"""Flat `key = value` experiment configuration, and the section types.

One dotted key per line, `#` starts a comment, whitespace is free.  Every
tunable of the attack, loss, regularizer, trainer and bound modules has a
key, listed once in :data:`_KEYS` with its type and file default; unknown
keys are an error (typos should not pass silently).  Overrides (CLI flags,
sweep values) are applied as extra key lines before anything is built, so
they are cast and checked exactly like the file.  Parse errors, rejected
values and cross-field inconsistencies raise :class:`ConfigError` with the
offending key and line.

The six section types (:class:`RobustLossKind`, :class:`AttackConfig`,
:class:`TrHConfig`, :class:`TrainConfig`, :class:`PacBayesConfig` and the
CLI's :class:`MeasureConfig`) live here, not in the modules that run them,
so that reading a config imports no attack, training, curvature or bound
code; those modules re-import them.  Each checks every field, built from
a file or from Python, through one helper that rejects nan and ``±inf``
(only the clamp box's ends may be infinite) and raises a
:class:`FieldError` naming the field, which the reader reports against
that field's key and line.

Cross-field rules: any `pacbayes.*` key gives the bound section, which then
needs pacbayes.sigma0_sq and pacbayes.beta; when those are given alongside
explicit train.gamma / trh.lambda, they must satisfy gamma = 1/(2 beta
sigma0_sq) and lambda = sigma0_sq/2 within 1e-12.  attack.clamp_min and
attack.clamp_max come together.  Attack radii are stated in raw input
units; with dataset.normalize = true the radius and step are rescaled by
1/std (:meth:`ExperimentConfig.effective_attack`), but not the clamp box,
which bounds the normalized inputs the attack sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .data import Dataset, load_csv, normalize_center, two_moons
from .network import MlpNetwork, init_mlp
from .numerics import Rng


# -- section types ----------------------------------------------------


class FieldError(ValueError):
    """A value that its section type rejects; `field` names the argument."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field} {message}")
        self.field = field


_INFINITE = (math.inf, -math.inf)


def _check(field: str, value, ok: bool, rule) -> None:
    """Raise a :class:`FieldError` naming `field` unless `ok` (`value` lies
    in `rule`, an interval or choices) holds and `value` is neither nan nor
    ``±inf``; a clamp box is one value, so its ends may be infinite."""
    if not ok or value != value or value in _INFINITE:
        raise FieldError(field, f"must be in {rule}, got {value!r}")


_BOOLS = (True, False)
_VARIANTS = ("at", "trades", "alp", "mart")


@dataclass(frozen=True)
class RobustLossKind:
    """Which robust objective to train: at | trades | alp | mart.

    `penalty` is the pairing coefficient of the variant (the TRADES KL
    weight, the ALP pairing weight or the MART weighted-KL weight); it is
    ignored for plain adversarial training.  The batched loss body of every
    variant is ``trh._loss_rows``.
    """

    variant: str
    penalty: float = 0.0

    def __post_init__(self):
        _check("variant", self.variant, self.variant in _VARIANTS, _VARIANTS)
        _check("penalty", self.penalty, self.penalty >= 0, "[0, inf)")


_NORMS = ("linf", "l2")
_INNER = ("ce", "kl")


@dataclass(frozen=True)
class AttackConfig:
    """The attack of :func:`trhreg.attacks.pgd`.

    ``step_size`` None steps ``2.5 * delta / steps``.  ``clamp`` is an
    optional box ``(low, high)`` for the attacked inputs; either end may be
    infinite, which leaves that side open.  ``delta = 0`` is the degenerate
    no-attack evaluation.
    """

    delta: float
    steps: int = 10
    norm: str = "linf"
    step_size: float | None = None
    restarts: int = 1
    inner_loss: str = "ce"
    clamp: tuple[float, float] | None = None
    random_start: bool = True

    def __post_init__(self):
        _check("delta", self.delta, self.delta >= 0, "[0, inf)")
        _check("steps", self.steps, self.steps >= 1, "[1, inf)")
        _check("norm", self.norm, self.norm in _NORMS, _NORMS)
        _check("step_size", self.step_size,
               self.step_size is None or self.step_size > 0, "(0, inf) or None")
        _check("restarts", self.restarts, self.restarts >= 1, "[1, inf)")
        _check("inner_loss", self.inner_loss, self.inner_loss in _INNER, _INNER)
        _check("clamp", self.clamp,
               self.clamp is None or self.clamp[0] <= self.clamp[1],
               "{(low, high): low <= high} or None")
        _check("random_start", self.random_start, self.random_start in _BOOLS,
               _BOOLS)

    @property
    def effective_step(self) -> float:
        return self.step_size if self.step_size is not None else 2.5 * self.delta / self.steps

    def scaled(self, factor: float) -> "AttackConfig":
        """Radius (and step) rescaled, e.g. into normalized input units."""
        return replace(self, delta=self.delta * factor,
                       step_size=None if self.step_size is None
                       else self.step_size * factor)


_SCHEDULES = ("constant", "linear", "multistep")


@dataclass(frozen=True)
class TrHConfig:
    """Penalty strength and schedule for the curvature regularizer.

    Under the bound reparameterization, ``lam`` equals half the prior
    variance.  ``stop_grad_clean`` selects the frozen-clean-logits variant
    of the TRADES trace (the default; the full variant adds the G term).
    ``full_coeff`` weighs the whole-network CE-trace penalty added to it.
    """

    lam: float = 0.0
    schedule: str = "constant"
    stop_grad_clean: bool = True
    full_coeff: float = 0.0

    def __post_init__(self):
        _check("lam", self.lam, self.lam >= 0, "[0, inf)")
        _check("schedule", self.schedule, self.schedule in _SCHEDULES, _SCHEDULES)
        _check("stop_grad_clean", self.stop_grad_clean,
               self.stop_grad_clean in _BOOLS, _BOOLS)
        _check("full_coeff", self.full_coeff, self.full_coeff >= 0, "[0, inf)")


_BASELINES = ("none", "swa", "awp")
_LR_DECAYS = ("constant", "cosine", "multistep")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    base_lr: float
    batch_size: int = 0            # 0 = full batch
    momentum: float = 0.9
    warmup_iters: int = 0
    lr_decay: str = "cosine"
    lr_milestones: tuple = (0.5, 0.75)  # fractions of total iterations
    lr_drop: float = 0.1
    gamma: float = 0.0
    seed: int = 0
    baseline: str = "none"
    swa_alpha: float = 0.995
    awp_delta: float = 0.005

    def __post_init__(self):
        _check("epochs", self.epochs, self.epochs >= 1, "[1, inf)")
        _check("base_lr", self.base_lr, self.base_lr > 0, "(0, inf)")
        _check("batch_size", self.batch_size, self.batch_size >= 0, "[0, inf)")
        _check("momentum", self.momentum, 0 <= self.momentum < 1, "[0, 1)")
        _check("warmup_iters", self.warmup_iters, self.warmup_iters >= 0, "[0, inf)")
        _check("lr_decay", self.lr_decay, self.lr_decay in _LR_DECAYS, _LR_DECAYS)
        for m in self.lr_milestones:
            _check("lr_milestones", m, 0 <= m <= 1, "[0, 1]")
        _check("lr_drop", self.lr_drop, self.lr_drop > 0, "(0, inf)")
        _check("gamma", self.gamma, self.gamma >= 0, "[0, inf)")
        _check("seed", self.seed, self.seed >= 0, "[0, inf)")
        _check("baseline", self.baseline, self.baseline in _BASELINES, _BASELINES)
        _check("swa_alpha", self.swa_alpha, 0 < self.swa_alpha < 1, "(0, 1)")
        _check("awp_delta", self.awp_delta, self.awp_delta > 0, "(0, inf)")


@dataclass(frozen=True)
class PacBayesConfig:
    sigma0_sq: float
    beta: float
    c_const: float = 0.0

    def __post_init__(self):
        _check("sigma0_sq", self.sigma0_sq, self.sigma0_sq > 0, "(0, inf)")
        _check("beta", self.beta, self.beta > 0, "(0, inf)")
        _check("c_const", self.c_const, True, "(-inf, inf)")

    @property
    def gamma(self) -> float:
        """Weight-decay coefficient implied by the bound."""
        return 1.0 / (2.0 * self.beta * self.sigma0_sq)

    @property
    def lam(self) -> float:
        """Curvature-penalty coefficient implied by the bound."""
        return self.sigma0_sq / 2.0

    def consistent_with(self, gamma: float, lam: float) -> bool:
        """Whether (gamma, lam) are the bound's own, to 1e-12 relative
        (absolute below 1)."""
        return all(abs(given - own) <= 1e-12 * max(1.0, abs(own))
                   for given, own in ((gamma, self.gamma), (lam, self.lam)))


_MODES = ("top", "full", "spectrum")


@dataclass(frozen=True)
class MeasureConfig:
    """What to measure along the run and how often.

    mode "top": the closed-form top-layer trace of the robust loss with the
    clean side frozen (not the training loss's when ``trh.stop_grad_clean``
    is false) and the per-layer CE traces; the estimate columns are nan.
    "full": adds that objective's whole-network Rademacher estimate
    (``hessian_oracle.hutchinson_trace``) with the same seeded probes at
    every measurement (common random numbers keep the trajectory smooth).
    "spectrum" produces per-layer and whole-network (trace, trace_sq) pairs
    and eigenvalue statistics from ``hessian_oracle`` probe estimators.  The
    measurement objective is the bare robust loss of the training kind with
    adversarial inputs regenerated (and then frozen) at measurement time.
    Attack starts and probes come from streams of ``trainer.PROBE_SEED``.
    """

    mode: str
    every: int = 1
    probes: int = 64

    def __post_init__(self):
        _check("mode", self.mode, self.mode in _MODES, _MODES)
        _check("every", self.every, self.every >= 1, "[1, inf)")
        _check("probes", self.probes, self.probes >= 1, "[1, inf)")


# -- the key file -----------------------------------------------------


class ConfigError(ValueError):
    def __init__(self, message, key=None, line=None):
        loc = ""
        if key is not None:
            loc += f" (key {key!r}"
            loc += f", line {line})" if line is not None else ")"
        elif line is not None:
            loc += f" (line {line})"
        super().__init__(message + loc)
        self.key = key
        self.line = line


def parse_kv(text: str) -> dict:
    """Parse `key = value` lines into {key: (value, lineno)}."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"empty key or value in {line!r}", line=lineno)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", key=key, line=lineno)
        out[key] = (value, lineno)
    return out


def _bool(text: str) -> bool:
    value = {"true": True, "false": False, "1": True, "0": False,
             "yes": True, "no": False}.get(text.lower())
    if value is None:
        raise ValueError(f"not a boolean: {text!r}")
    return value


def _ints(text: str) -> list:
    return [int(v) for v in text.split(",") if v.strip()]


def _float(text: str, finite: bool = True) -> float:
    """A float that is not nan, nor ``±inf`` where `finite`: a key read on
    its own; only the clamp box's ends may be infinite, leaving a side open."""
    value = float(text)
    if value != value or (finite and math.isinf(value)):
        raise ValueError(f"must be a {'finite ' if finite else ''}number, got {text!r}")
    return value


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _at_least(cast, low):
    """`cast`, then reject a value below `low`."""
    def checked(text: str):
        value = cast(text)
        if not value >= low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value
    return checked


def _widths(text: str) -> list:
    widths = _ints(text)
    if any(w < 1 for w in widths):
        raise ValueError(f"hidden widths must be >= 1, got {text!r}")
    return widths


_REQUIRED = object()  # no default: must be given once its section is

# Every key once: its cast and its file default, written as a file line
# would be (None: unset).  A section key's value is checked by its type.
_KEYS = {
    "dataset.kind": (str, "two_moons"),
    "dataset.n": (_at_least(int, 2), "500"),
    "dataset.noise_std": (_at_least(_float, 0.0), "0.1"),
    "dataset.seed": (_at_least(int, 0), "1"),
    "dataset.path": (str, None),
    "dataset.normalize": (_bool, "false"),
    "net.hidden": (_widths, "100,100"),
    "net.hidden_bias": (_bool, "true"),
    "loss.kind": (str, "at"),
    "loss.penalty": (float, "0.0"),
    "attack.norm": (str, "linf"),
    "attack.delta": (float, "0.02"),
    "attack.steps": (int, "1"),
    "attack.step_size": (float, None),
    "attack.restarts": (int, "1"),
    "attack.random_start": (_bool, "true"),
    "attack.clamp_min": (lambda text: _float(text, finite=False), None),
    "attack.clamp_max": (lambda text: _float(text, finite=False), None),
    "trh.lambda": (float, "0.0"),
    "trh.schedule": (str, "constant"),
    "trh.stop_grad_clean": (_bool, "true"),
    "trh.full_coeff": (float, "0.0"),
    "train.epochs": (int, "100"),
    "train.batch_size": (int, "0"),
    "train.base_lr": (float, "0.1"),
    "train.momentum": (float, "0.9"),
    "train.warmup_iters": (int, "0"),
    "train.lr_decay": (str, "constant"),
    "train.lr_milestones": (_floats, "0.5,0.75"),
    "train.lr_drop": (float, "0.1"),
    "train.gamma": (float, "0.0"),
    "train.seed": (int, "0"),
    "train.baseline": (str, "none"),
    "train.swa_alpha": (float, "0.995"),
    "train.awp_delta": (float, "0.005"),
    "pacbayes.sigma0_sq": (float, _REQUIRED),
    "pacbayes.beta": (float, _REQUIRED),
    "pacbayes.c_const": (float, "0.0"),
    "out.dir": (str, None),
}

# Section keys whose constructor argument is not the key's last part
# (None: the key is read on its own, not passed to the constructor).
_ARG = {"loss.kind": "variant", "trh.lambda": "lam",
        "attack.clamp_min": None, "attack.clamp_max": None}
# the key that names an argument built from keys read on their own
_FIXED_KEY = {"clamp": "attack.clamp_min"}


class _Reader:
    def __init__(self, kv: dict):
        self.kv = kv
        for key in kv:
            if key not in _KEYS:
                raise ConfigError("unknown key", key=key, line=kv[key][1])

    def has(self, key) -> bool:
        return key in self.kv

    def get(self, key):
        """The key's value from its line, else its cast default."""
        cast, default = _KEYS[key]
        value, line = self.kv.get(key, (default, None))
        if value is _REQUIRED:
            self.err(key, "no default; required once its section is given")
        try:
            return None if value is None else cast(value)
        except ValueError as exc:
            raise ConfigError(str(exc), key=key, line=line) from None

    def err(self, key, message):
        line = self.kv[key][1] if key in self.kv else None
        raise ConfigError(message, key=key, line=line)

    def build(self, ctor, section: str, **fixed):
        """``ctor(**fixed, **args)`` with one argument per key of `section`;
        a value the constructor rejects is reported against the key of the
        field its :class:`FieldError` names."""
        keys = {}
        for key in _KEYS:
            arg = _ARG.get(key, key.partition(".")[2])
            if key.startswith(section + ".") and arg is not None:
                keys[arg] = key
        # given keys first: a bad value is named before a missing one
        args = {arg: self.get(key) for arg, key in
                sorted(keys.items(), key=lambda item: item[1] not in self.kv)}
        try:
            return ctor(**fixed, **args)
        except FieldError as exc:
            self.err(keys.get(exc.field) or _FIXED_KEY[exc.field], str(exc))


@dataclass
class ExperimentConfig:
    dataset_kind: str
    dataset_n: int
    dataset_noise_std: float
    dataset_seed: int
    dataset_path: str | None
    dataset_normalize: bool
    hidden: list
    hidden_bias: bool
    loss: RobustLossKind
    attack: AttackConfig
    trh: TrHConfig
    train: TrainConfig
    pacbayes: PacBayesConfig | None
    out_dir: str | None

    @classmethod
    def from_text(cls, text: str, overrides: dict | None = None) -> "ExperimentConfig":
        """The config of `text`, with ``overrides = {key: value}`` applied as
        key lines that replace the file's."""
        kv = parse_kv(text)
        kv.update({key: (str(value), None) for key, value in (overrides or {}).items()})
        r = _Reader(kv)
        kind = r.get("dataset.kind")
        if kind not in ("two_moons", "csv"):
            r.err("dataset.kind", f"unknown dataset kind {kind!r}")
        if kind == "csv" and not r.get("dataset.path"):
            r.err("dataset.path", "dataset.path required for csv datasets")

        loss = r.build(RobustLossKind, "loss")
        clamp_min, clamp_max = r.get("attack.clamp_min"), r.get("attack.clamp_max")
        if (clamp_min is None) != (clamp_max is None):
            r.err("attack.clamp_min", "clamp_min and clamp_max must be given together")
        attack = r.build(AttackConfig, "attack",
                         inner_loss="kl" if loss.variant == "trades" else "ce",
                         clamp=None if clamp_min is None else (clamp_min, clamp_max))
        trh = r.build(TrHConfig, "trh")
        train = r.build(TrainConfig, "train")

        pacbayes = None
        if any(key.startswith("pacbayes.") for key in kv):
            pacbayes = r.build(PacBayesConfig, "pacbayes")
            if r.has("train.gamma") and not pacbayes.consistent_with(
                    train.gamma, pacbayes.lam):
                r.err("train.gamma",
                      f"gamma={train.gamma} inconsistent with "
                      f"1/(2 beta sigma0_sq)={pacbayes.gamma}")
            if r.has("trh.lambda") and not pacbayes.consistent_with(
                    pacbayes.gamma, trh.lam):
                r.err("trh.lambda",
                      f"lambda={trh.lam} inconsistent with "
                      f"sigma0_sq/2={pacbayes.lam}")

        return cls(dataset_kind=kind, dataset_n=r.get("dataset.n"),
                   dataset_noise_std=r.get("dataset.noise_std"),
                   dataset_seed=r.get("dataset.seed"),
                   dataset_path=r.get("dataset.path"),
                   dataset_normalize=r.get("dataset.normalize"),
                   hidden=r.get("net.hidden"), hidden_bias=r.get("net.hidden_bias"),
                   loss=loss, attack=attack, trh=trh, train=train,
                   pacbayes=pacbayes, out_dir=r.get("out.dir"))

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read(), overrides)

    # -- experiment assembly -------------------------------------------

    def build_dataset(self) -> Dataset:
        if self.dataset_kind == "two_moons":
            ds = two_moons(self.dataset_n, self.dataset_noise_std,
                           seed=self.dataset_seed)
        else:
            ds = load_csv(self.dataset_path)
        if self.dataset_normalize:
            ds = normalize_center(ds)
        return ds

    def effective_attack(self, ds: Dataset) -> AttackConfig:
        """Attack with its raw-unit radius and step rescaled to data units."""
        if ds.scale is not None and ds.scale != 1.0:
            return self.attack.scaled(1.0 / ds.scale)
        return self.attack

    def build_network(self, ds: Dataset) -> MlpNetwork:
        if ds.num_classes < 2:
            raise ConfigError(f"the labels give {ds.num_classes} class; a classifier "
                              f"needs at least 2", key="dataset.path")
        dims = [ds.inputs.shape[1]] + list(self.hidden) + [ds.num_classes]
        return init_mlp(dims, Rng(self.train.seed).child("init"),
                        hidden_bias=self.hidden_bias)

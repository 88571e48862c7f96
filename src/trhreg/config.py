"""Flat `key = value` experiment configuration.

One dotted key per line, `#` starts a comment, whitespace is free.  Every
tunable of the attack, loss, regularizer, trainer and bound modules has a
key, listed once in :data:`_KEYS` with its type and file default; unknown
keys are an error (typos should not pass silently).  Overrides (CLI flags,
sweep values) are applied as extra key lines before anything is built, so
they are cast and checked exactly like the file.  Parse errors, rejected
values and cross-field inconsistencies raise :class:`ConfigError` with the
offending key and line.

Cross-field rules: any `pacbayes.*` key gives the bound section, which then
needs pacbayes.sigma0_sq and pacbayes.beta, both positive; when those are
given alongside explicit train.gamma / trh.lambda, they must satisfy
gamma = 1/(2 beta sigma0_sq) and lambda = sigma0_sq/2 within 1e-12.
attack.clamp_min and attack.clamp_max come together, the lower not above
the upper.  Attack radii are stated in raw input units; with
dataset.normalize = true the radius and step are rescaled by 1/std
(:meth:`ExperimentConfig.effective_attack`), but not the clamp box, which
bounds the normalized inputs the attack sees.

The value types of the trh, train and pacbayes sections and of the CLI's
measurement flags (:class:`TrHConfig`, :class:`TrainConfig`,
:class:`PacBayesConfig`, :class:`MeasureConfig`) are defined here, not in
the modules that run them, so that reading a config imports no training,
curvature or bound code; those modules re-import them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .attacks import AttackConfig
from .data import Dataset, load_csv, normalize_center, two_moons
from .losses import RobustLossKind
from .network import MlpNetwork, init_mlp
from .numerics import Rng


# -- section types ----------------------------------------------------

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
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.full_coeff < 0:
            raise ValueError("full_coeff must be >= 0")
        if self.schedule not in _SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")


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
        if self.epochs < 1 or self.base_lr <= 0:
            raise ValueError("need epochs >= 1 and base_lr > 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.gamma < 0 or self.batch_size < 0 or self.warmup_iters < 0:
            raise ValueError("gamma, batch_size, warmup_iters must be >= 0")
        if self.lr_decay not in _LR_DECAYS:
            raise ValueError(f"unknown lr decay {self.lr_decay!r}")
        if self.baseline not in _BASELINES:
            raise ValueError(f"unknown baseline {self.baseline!r}")
        if not 0 < self.swa_alpha < 1:
            raise ValueError("swa_alpha must lie in (0, 1)")
        if self.awp_delta <= 0:
            raise ValueError("awp_delta must be positive")


@dataclass(frozen=True)
class PacBayesConfig:
    sigma0_sq: float
    beta: float
    c_const: float = 0.0

    def __post_init__(self):
        if self.sigma0_sq <= 0 or self.beta <= 0:
            raise ValueError("sigma0_sq and beta must be positive")

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
        if self.mode not in ("top", "full", "spectrum"):
            raise ValueError(f"unknown measure mode {self.mode!r}")
        if self.every < 1 or self.probes < 1:
            raise ValueError("every and probes must be >= 1")


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


def _positive(cast):
    """`cast`, then reject a value that is not above zero."""
    def checked(text: str):
        value = cast(text)
        if not value > 0:
            raise ValueError(f"must be positive, got {value}")
        return value
    return checked


def _widths(text: str) -> list:
    widths = _ints(text)
    if any(w < 1 for w in widths):
        raise ValueError(f"hidden widths must be >= 1, got {text!r}")
    return widths


_REQUIRED = object()  # no default: must be given once its section is

# Every key once: its cast and its file default, written as a file line
# would be (None: unset).
_KEYS = {
    "dataset.kind": (str, "two_moons"),
    "dataset.n": (_at_least(int, 2), "500"),
    "dataset.noise_std": (_at_least(float, 0.0), "0.1"),
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
    "attack.clamp_min": (float, None),
    "attack.clamp_max": (float, None),
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
    "train.seed": (_at_least(int, 0), "0"),
    "train.baseline": (str, "none"),
    "train.swa_alpha": (float, "0.995"),
    "train.awp_delta": (float, "0.005"),
    "pacbayes.sigma0_sq": (_positive(float), _REQUIRED),
    "pacbayes.beta": (_positive(float), _REQUIRED),
    "pacbayes.c_const": (float, "0.0"),
    "out.dir": (str, None),
}

# Section keys whose constructor argument is not the key's last part
# (None: the key is read on its own, not passed to the constructor).
_ARG = {"loss.kind": "variant", "trh.lambda": "lam",
        "attack.clamp_min": None, "attack.clamp_max": None}


class _Reader:
    def __init__(self, kv: dict):
        self.kv = kv
        for key in kv:
            if key not in _KEYS:
                raise ConfigError("unknown key", key=key, line=kv[key][1])

    def has(self, key) -> bool:
        return key in self.kv

    def get(self, key, given: bool = True):
        """The key's value from its line (unless not `given`), else its
        cast default."""
        cast, default = _KEYS[key]
        value, line = self.kv[key] if given and key in self.kv else (default, None)
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
        """``ctor(**fixed, **args)`` with one argument per key of `section`.

        A rejected value is reported against its key: the first given key
        that the constructor rejects with the section's other keys at their
        defaults.  Keys without a default keep their given value there, so
        the constructor cannot tell which of them is wrong: their casts
        check them instead."""
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
        except ValueError as exc:
            message = str(exc)
        base = {arg: self.get(key, given=_KEYS[key][1] is _REQUIRED)
                for arg, key in keys.items()}
        given = [(arg, key) for arg, key in keys.items() if key in self.kv]
        for arg, key in given:
            try:
                ctor(**fixed, **{**base, arg: args[arg]})
            except ValueError:
                self.err(key, message)
        self.err(given[0][1], message)


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
        if clamp_min is not None and not clamp_min <= clamp_max:
            r.err("attack.clamp_min",
                  f"clamp_min={clamp_min} must be <= clamp_max={clamp_max}")
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
        dims = [ds.inputs.shape[1]] + list(self.hidden) + [ds.num_classes]
        return init_mlp(dims, Rng(self.train.seed).child("init"),
                        hidden_bias=self.hidden_bias)

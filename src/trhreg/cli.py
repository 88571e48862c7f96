"""Command-line experiment runner.

Subcommands: train, eval, trace, spectrum, sweep, verify.  Every run is
driven by a flat `key = value` config file (see :mod:`trhreg.config`) plus
a few overrides.  Outputs are self-describing CSVs and `TRHNET v1`
checkpoints.  The training subcommands import :mod:`trhreg.trainer` and
``verify`` imports :mod:`trhreg.verify` inside their functions, so ``eval``
runs no training, curvature, bound or verification code.

Exit codes: 0 success, 1 config or usage error (an unreadable input path
too), 2 divergence (in training or in an oracle), 3 verification failure,
4 a finite-difference oracle hit a non-finite evaluation, 5 an input too
close to a ReLU kink for an exact formula, 6 curvature out of the
closed-form posterior's regime.  Codes 2 and 4-6 print one line naming
the error.  141 (128 + SIGPIPE, what a shell reports for a writer that a
closed pipe killed): standard output was closed before the run finished
writing it, as in ``trhreg verify | head -1``; the rest of the output is
dropped and nothing is printed.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import sys
from dataclasses import replace

from .attacks import clean_accuracy, eval_robust_accuracy
from .config import ConfigError, ExperimentConfig, MeasureConfig
from .network import (MetricsLog, TrainingDivergence, load_checkpoint,
                      save_checkpoint)
from .numerics import (NonSmoothInput, OracleError, OutOfRegimeError, Rng,
                       pin_allocator)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_VERIFY = 3
EXIT_ORACLE = 4
EXIT_NON_SMOOTH = 5
EXIT_OUT_OF_REGIME = 6
EXIT_BROKEN_PIPE = 141


def _register_unexecuted(name: str) -> None:
    """Put the package module `name` in ``sys.modules`` without running
    it: its code runs at its first attribute access (``LazyLoader``)."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)


# The modules only some subcommands run (eval runs none of them) are
# imported inside those subcommands.  They are still registered here,
# unexecuted, so that `import trhreg.cli` shows every module the CLI can
# run: bench/tracer.py rebinds traced functions across the modules it finds
# in sys.modules right after that import.
for _name in ("trh", "layer_traces", "hessian_oracle", "pacbayes", "trainer",
              "verify"):
    _register_unexecuted(_name)


def _load_config(args, lines=None) -> ExperimentConfig:
    """The config file with --seed, --out and `lines` ({key: value}) applied
    as key lines, so they are checked like the file's own."""
    lines = {"train.seed": args.seed, "out.dir": args.out, **(lines or {})}
    return ExperimentConfig.from_file(
        args.config, {key: value for key, value in lines.items() if value is not None})


def _outdir(cfg: ExperimentConfig) -> str:
    out = cfg.out_dir or "runs/latest"
    os.makedirs(out, exist_ok=True)
    return out


def _preamble(cfg: ExperimentConfig) -> dict:
    pre = {
        "loss.kind": cfg.loss.variant,
        "attack.norm": cfg.attack.norm,
        "attack.delta": cfg.attack.delta,
        "trh.lambda": cfg.trh.lam,
        "trh.schedule": cfg.trh.schedule,
        "train.gamma": cfg.train.gamma,
        "train.seed": cfg.train.seed,
    }
    if cfg.loss.variant == "trades":
        pre["loss.lambda_t"] = cfg.loss.penalty
    elif cfg.loss.variant == "alp":
        pre["loss.lambda_a"] = cfg.loss.penalty
    elif cfg.loss.variant == "mart":
        pre["loss.lambda_m"] = cfg.loss.penalty
    return pre


def _run_training(cfg: ExperimentConfig, measure: MeasureConfig | None = None):
    from .trainer import train

    ds = cfg.build_dataset()
    if cfg.train.batch_size > len(ds):
        raise ConfigError(f"batch size {cfg.train.batch_size} exceeds dataset "
                          f"size {len(ds)}", key="train.batch_size")
    net = cfg.build_network(ds)
    attack = cfg.effective_attack(ds)
    return train(net, ds, cfg.loss, cfg.trh, attack, cfg.train, measure=measure)


def _train_and_write(args, mode: str | None = None):
    """Shared by train, trace and spectrum: load the config, make the output
    directory, train (measuring in `mode`, if given), then write
    ``metrics.csv`` and the checkpoint.  Returns ``(cfg, out, result)``."""
    cfg = _load_config(args)
    out = _outdir(cfg)
    measure = (None if mode is None else
               MeasureConfig(mode=mode, every=args.every, probes=args.probes))
    result = _run_training(cfg, measure=measure)
    result.metrics.preamble = _preamble(cfg)
    result.metrics.write_csv(os.path.join(out, "metrics.csv"))
    save_checkpoint(result.net, os.path.join(out, "checkpoint.txt"))
    return cfg, out, result


def _train_and_measure(args, mode: str, name: str, what: str) -> int:
    """trace and spectrum: train measuring in `mode`, write the records
    to `name` and report; the exit code."""
    from .trainer import measurement_columns

    cfg, out, result = _train_and_write(args, mode)
    log = MetricsLog(columns=measurement_columns(mode, result.net.depth),
                     rows=result.measurements, preamble=_preamble(cfg))
    log.write_csv(os.path.join(out, name))
    if result.diverged:
        print(f"diverged at epoch {result.diverged_epoch}", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"wrote {out}/{name} ({len(result.measurements)} {what})")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg, out, result = _train_and_write(args)
    if result.diverged:
        print(f"diverged at epoch {result.diverged_epoch}; "
              f"last-good checkpoint written to {out}", file=sys.stderr)
        return EXIT_DIVERGED
    last = result.metrics.rows[-1]
    print(f"trained {cfg.train.epochs} epochs: clean={last['clean_acc']:.4f} "
          f"pgd={last['pgd_acc']:.4f} loss={last['train_loss']:.6f}")
    print(f"wrote {out}/metrics.csv and {out}/checkpoint.txt")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    net = load_checkpoint(args.checkpoint)
    ds = cfg.build_dataset()
    if ds.inputs.shape[1] != net.input_dim:
        raise ConfigError(f"checkpoint input dim {net.input_dim} does not "
                          f"match dataset dim {ds.inputs.shape[1]}")
    if net.num_classes < ds.num_classes:
        raise ConfigError(f"checkpoint has {net.num_classes} outputs but the "
                          f"dataset has {ds.num_classes} classes")
    # evaluation attacks with CE whatever the training loss, as the
    # trainer's per-epoch robust accuracy does
    attack = replace(cfg.effective_attack(ds), inner_loss="ce")
    if args.restarts is not None:
        attack = replace(attack, restarts=args.restarts)
    rng = Rng(cfg.train.seed).child("eval-cli")
    clean = clean_accuracy(net, ds)
    robust = eval_robust_accuracy(net, ds, attack, rng)
    out = _outdir(cfg)
    log = MetricsLog(columns=["clean_acc", "robust_acc", "delta", "restarts"],
                     preamble=_preamble(cfg))
    log.append(clean_acc=clean, robust_acc=robust, delta=attack.delta,
               restarts=attack.restarts)
    # written before anything is printed, so a closed stdout cannot lose it
    log.write_csv(os.path.join(out, "eval.csv"))
    print(f"clean_acc={clean:.6f} robust_acc={robust:.6f} "
          f"(delta={attack.delta}, restarts={attack.restarts})")
    print(f"wrote {out}/eval.csv")
    return EXIT_OK


def cmd_trace(args) -> int:
    return _train_and_measure(args, args.measure, "trace.csv", "measurements")


def cmd_spectrum(args) -> int:
    return _train_and_measure(args, "spectrum", "spectrum.csv", "rows")


_SWEEPABLE = {
    "lambda": "trh.lambda",
    "gamma": "train.gamma",
    "delta": "attack.delta",
    "penalty": "loss.penalty",
}


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if args.param not in _SWEEPABLE:
        raise ConfigError(f"unsupported sweep parameter {args.param!r}; "
                          f"choose from {sorted(_SWEEPABLE)}")
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--values must be comma-separated numbers, "
                          f"got {args.values!r}") from None
    if len(values) < 2:
        raise ConfigError("sweep needs at least 2 values")
    out = _outdir(cfg)
    log = MetricsLog(columns=["value", "clean_acc", "robust_acc"],
                     preamble=_preamble(cfg))
    failures = 0
    for value in values:
        # a trial fails on a rejected value (or unreadable data) or on
        # divergence; any other error is a fault and propagates
        try:
            result = _run_training(_load_config(args, {_SWEEPABLE[args.param]: value}))
        except ValueError as exc:
            reason = exc
        else:
            reason = (f"diverged at epoch {result.diverged_epoch}"
                      if result.diverged else None)
        if reason is None:
            last = result.metrics.rows[-1]
            log.append(value=value, clean_acc=last["clean_acc"],
                       robust_acc=last["pgd_acc"])
            line, stream = (f"{args.param}={value}: clean={last['clean_acc']:.4f} "
                            f"robust={last['pgd_acc']:.4f}"), sys.stdout
        else:
            failures += 1
            log.append(value=value, clean_acc=float("nan"),
                       robust_acc=float("nan"))
            line, stream = f"{args.param}={value}: FAILED ({reason})", sys.stderr
        # rewritten before the trial's line is printed, so a closed stdout
        # cannot lose a finished trial
        log.write_csv(os.path.join(out, "sweep.csv"))
        print(line, file=stream)
    print(f"wrote {out}/sweep.csv ({len(values)} trials, {failures} failed)")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import format_report, run_verification

    results, passed = run_verification(level=args.level, seed=args.seed)
    print(format_report(results))
    print(f"{'PASS' if passed else 'FAIL'} total checks={len(results)}")
    return EXIT_OK if passed else EXIT_VERIFY


def _seed(text: str) -> int:
    """argparse type of ``verify --seed``: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="trhreg",
                                description="Curvature-regularized robust training workbench")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True,
                        help="key = value experiment file")
        sp.add_argument("--seed", type=int, default=None,
                        help="override train.seed")
        sp.add_argument("--out", default=None, help="output directory")

    sp = sub.add_parser("train", help="run the training loop")
    add_common(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="clean + multi-restart attack accuracy")
    add_common(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--restarts", type=int, default=None)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("trace", help="train while logging curvature traces")
    add_common(sp)
    # "layers" is an older name of "top", kept for existing command lines
    sp.add_argument("--measure", choices=["top", "full", "layers"],
                    type=lambda mode: "top" if mode == "layers" else mode,
                    default="full")
    sp.add_argument("--every", type=int, default=1)
    sp.add_argument("--probes", type=int, default=64)
    sp.set_defaults(func=cmd_trace)

    sp = sub.add_parser("spectrum", help="per-layer eigenvalue statistics")
    add_common(sp)
    sp.add_argument("--every", type=int, default=10)
    sp.add_argument("--probes", type=int, default=32)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("sweep", help="grid over one hyper-parameter")
    add_common(sp)
    sp.add_argument("--param", required=True)
    sp.add_argument("--values", required=True,
                    help="comma-separated numeric values")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="run the oracle cross-validation suites")
    sp.add_argument("--level", choices=["quick", "full"], default="quick")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    pin_allocator()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed its usage; --help exits 0
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away: point stdout at devnull, so that the flush
        # at interpreter exit has nowhere to fail (Python docs, "Note on
        # SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        # ConfigError, malformed CSV/checkpoint files, bad combinations,
        # an input path that cannot be read or an out.dir that cannot be made
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDivergence as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OracleError as exc:
        print(f"oracle error at index {exc.index}: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except NonSmoothInput as exc:
        print(f"non-smooth input: {exc}", file=sys.stderr)
        return EXIT_NON_SMOOTH
    except OutOfRegimeError as exc:
        print(f"out of regime: {exc}", file=sys.stderr)
        return EXIT_OUT_OF_REGIME


def entry() -> int:
    """The process entry (``python -m trhreg``, the ``trhreg`` script):
    :func:`main`, then ``gc.freeze()``, so that interpreter exit does not
    walk and clear the reference cycles numpy and the package made at
    import.  Output is still flushed at exit."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())

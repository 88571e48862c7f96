"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The toy-problem reproduction (criteria 6 and 7) trains nine
networks and is the only slow part; its runs are shared through a module
fixture.
"""

import time

import numpy as np
import pytest

from trhreg import verify
from trhreg.attacks import AttackConfig, clean_accuracy, eval_robust_accuracy, pgd
from trhreg.cli import main
from trhreg.config import RobustLossKind, TrHConfig
from trhreg.data import two_moons
from trhreg.network import DenseLayer, MlpNetwork, init_mlp
from trhreg.numerics import Rng
from trhreg.trainer import MeasureConfig, TrainConfig, spectrum_records, train

pytestmark = pytest.mark.acceptance


def report(num, name, passed, detail=""):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if passed else 'FAIL'}] {name} {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_trh_formula_correctness():
    t0 = time.monotonic()
    results = verify.check_trh_formulas(50, seed=910)
    elapsed = time.monotonic() - t0
    bad = [r for r in results if not r.passed]
    report(1, "closed-form top-layer traces vs oracle (50 instances x 5 forms)",
           not bad and elapsed < 120,
           f"checks={len(results)} failed={len(bad)} elapsed={elapsed:.1f}s")


def test_criterion_2_layerwise_traces_and_bound():
    t0 = time.monotonic()
    results = verify.check_layer_traces(50, 100, seed=920)
    elapsed = time.monotonic() - t0
    layer_checks = [r for r in results if r.name.startswith("layer")]
    bound_checks = [r for r in results if r.name.startswith("bound")]
    bad = [r for r in results if not r.passed]
    report(2, "layer-wise CE traces vs oracle + consecutive-level bound",
           not bad and elapsed < 120,
           f"layer_checks={len(layer_checks)} bound_checks={len(bound_checks)} "
           f"failed={len(bad)} elapsed={elapsed:.1f}s")


def test_criterion_3_gradient_integrity():
    results = verify.check_gradients(50, seed=930, always_regularized=True)
    bad = [r for r in results if not r.passed]
    report(3, "regularized-objective gradients vs finite differences "
              "(50 instances, all loss kinds, penalty on)",
           not bad, f"checks={len(results)} failed={len(bad)}")


def test_criterion_4_pacbayes_closed_forms():
    results = verify.check_pacbayes(20, seed=940)
    bad = [r for r in results if not r.passed]
    report(4, "posterior KL properties, grid-beating variances, "
              "objective reparameterization",
           not bad, f"checks={len(results)} failed={len(bad)}")


def test_criterion_5_hutchinson_estimators():
    results = verify.check_hutchinson(seed=950)
    bad = [r for r in results if not r.passed]
    report(5, "probe estimators: diagonal exactness, exact trace and "
              "trace-square over every sign vector",
           not bad, f"checks={len(results)} failed={len(bad)}")


# -- toy-problem reproduction (criteria 6 and 7) ------------------------
#
# The whole-network trace under constant-rate momentum SGD bounces by a
# factor of 2-3 between adjacent late epochs (the iterate keeps moving),
# so the arm comparison uses the late-plateau mean: the trajectory is
# measured every 10 epochs with a fixed common probe set and averaged
# over the measured epochs >= PLATEAU_START.  This mirrors how the
# qualitative claim is stated (behavior "after the 60-th epoch"), and the
# protocol is fixed here, not tuned per seed.

ARMS = ("standard", "top", "full")
SEEDS = (0, 1, 2)
PLATEAU_START = 60


@pytest.fixture(scope="module")
def toy_runs():
    ds = two_moons(500, noise_std=0.1, seed=1)
    kind = RobustLossKind("at")
    attack = AttackConfig(delta=0.02, steps=1, norm="linf")
    measure = MeasureConfig(mode="full", every=10, probes=48)
    measure_rng = Rng(2024)

    out = {}
    for seed in SEEDS:
        for arm in ARMS:
            lam = 0.5 if arm == "top" else 0.0
            full_coeff = 0.05 if arm == "full" else 0.0
            net = init_mlp([2, 100, 100, 2], Rng(seed).child("init"))
            cfg = TrainConfig(epochs=100, base_lr=0.1, momentum=0.9,
                              lr_decay="constant", seed=seed)
            result = train(net, ds, kind,
                           TrHConfig(lam=lam, full_coeff=full_coeff), attack,
                           cfg, measure=measure)
            plateau = [r["trh_full_estimate"] for r in result.measurements
                       if r["epoch"] >= PLATEAU_START]
            entry = {
                "clean": result.metrics.rows[-1]["clean_acc"],
                "trh_full": float(np.mean(plateau)),
            }
            if arm in ("standard", "top"):
                trained = result.net
                x_adv = pgd(trained, ds.inputs, ds.labels, attack,
                            measure_rng.child("attack", seed, arm))
                records = spectrum_records(
                    trained, ds.inputs, x_adv, ds.labels, kind, epoch=99,
                    probes=24, rng=measure_rng.child("spectrum", seed, arm))
                entry["eig_std_all"] = next(r["eig_std"] for r in records
                                            if r["layer"] == 0)
            out[(seed, arm)] = entry
    return out


def test_criterion_6_toy_flatness_ordering(toy_runs):
    good_seeds = 0
    details = []
    for seed in SEEDS:
        s = toy_runs[(seed, "standard")]["trh_full"]
        t = toy_runs[(seed, "top")]["trh_full"]
        f = toy_runs[(seed, "full")]["trh_full"]
        ok = (f <= t < s) and (t <= 2 * f)
        good_seeds += ok
        details.append(f"seed{seed}: full={f:.2f} top={t:.2f} std={s:.2f} "
                       f"{'ok' if ok else 'x'}")
    standard_clean = min(toy_runs[(seed, "standard")]["clean"] for seed in SEEDS)
    report(6, "whole-network late-plateau trace: full<=top<standard and "
              "top<=2*full (>=2/3 seeds); baseline trains past 95% clean",
           good_seeds >= 2 and standard_clean > 0.95,
           "; ".join(details) + f"; min standard clean={standard_clean:.3f}")


def test_criterion_7_eigenvalue_contraction(toy_runs):
    wins = 0
    details = []
    for seed in SEEDS:
        s = toy_runs[(seed, "standard")]["eig_std_all"]
        t = toy_runs[(seed, "top")]["eig_std_all"]
        wins += t < s
        details.append(f"seed{seed}: top={t:.4f} std={s:.4f}")
    report(7, "all-layer eigenvalue std: top-regularized < standard "
              "(>=2/3 seeds)", wins >= 2, "; ".join(details))


def test_criterion_8_attack_contracts():
    rng = Rng(88)
    net = init_mlp([4, 8, 3], rng.child("i"))
    X = rng.child("x").normal(size=(10_000, 4))
    y = rng.child("y").integers(0, 3, size=10_000)
    worst = 0.0
    for norm in ("linf", "l2"):
        cfg = AttackConfig(delta=0.25, steps=4, norm=norm)
        adv = pgd(net, X, y, cfg, rng.child("a", norm))
        d = adv - X
        if norm == "linf":
            violation = float(np.abs(d).max()) - 0.25
        else:
            violation = float(np.linalg.norm(d, axis=1).max()) - 0.25
        worst = max(worst, violation)
    ball_ok = worst <= 1e-12

    c = np.array([1.5, -2.0, 0.25, 0.8])
    w = np.column_stack([c, np.zeros(4)])
    linear = MlpNetwork([DenseLayer(w)])
    x0 = rng.child("x0").normal(size=4)
    delta = 0.2
    cfg = AttackConfig(delta=delta, steps=1, step_size=2.5 * delta,
                       random_start=False)
    adv = pgd(linear, x0, np.array([1]), cfg, rng.child("fgsm"))
    fgsm_ok = float(c @ adv) == pytest.approx(float(c @ x0) + delta * np.abs(c).sum())

    ds = two_moons(300, seed=9)
    small = init_mlp([2, 8, 2], rng.child("n2"))
    zero_cfg = AttackConfig(delta=0.0, steps=5, restarts=4)
    zero_ok = (eval_robust_accuracy(small, ds, zero_cfg, rng.child("e"))
               == clean_accuracy(small, ds))

    report(8, "exact ball membership (1e4 trials), linear-model single-step "
              "optimum, zero-radius = clean accuracy",
           ball_ok and fgsm_ok and zero_ok,
           f"worst_violation={worst:.2e} fgsm={fgsm_ok} zero_radius={zero_ok}")


def test_criterion_9_bitwise_determinism(tmp_path):
    cfg_text = (
        "dataset.kind = two_moons\ndataset.n = 120\ndataset.seed = 1\n"
        "net.hidden = 10,10\nloss.kind = trades\nloss.penalty = 6.0\n"
        "attack.delta = 0.02\nattack.steps = 2\ntrh.lambda = 0.05\n"
        "train.epochs = 8\ntrain.base_lr = 0.1\ntrain.lr_decay = constant\n"
        "train.seed = 7\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(cfg_text)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "metrics.csv").read_bytes())
    ckpt_a = (tmp_path / "a" / "checkpoint.txt").read_bytes()
    ckpt_b = (tmp_path / "b" / "checkpoint.txt").read_bytes()
    report(9, "identical config+seed gives bitwise-identical metrics.csv",
           outs[0] == outs[1] and ckpt_a == ckpt_b,
           f"metrics_bytes={len(outs[0])}")


def test_criterion_10_verify_quick_and_mutation_sensitivity(monkeypatch):
    import trhreg.trh as trh_module

    t0 = time.monotonic()
    results, passed = verify.run_verification(level="quick", seed=0)
    elapsed = time.monotonic() - t0
    quick_ok = passed and elapsed < 120

    mutations_caught = 0
    flips = {
        "trh_at": lambda orig: (lambda tr: -orig(tr)),
        "trh_trades": lambda orig: (lambda a, b, lt: -orig(a, b, lt)),
        "trh_trades_full": lambda orig: (
            lambda a, b, lt: (lambda v: (-v[0], v[1]))(orig(a, b, lt))),
        "trh_alp": lambda orig: (lambda a, b, la: -orig(a, b, la)),
        "trh_mart": lambda orig: (lambda a, b, y, lm: -orig(a, b, y, lm)),
    }
    for name, wrap in flips.items():
        original = getattr(trh_module, name)
        monkeypatch.setattr(trh_module, name, wrap(original))
        mutated = verify.check_trh_formulas(2, seed=5)
        monkeypatch.setattr(trh_module, name, original)
        if any(not r.passed for r in mutated):
            mutations_caught += 1
    report(10, "quick verification passes under budget; sign flips in every "
               "closed form are caught",
           quick_ok and mutations_caught == len(flips),
           f"elapsed={elapsed:.1f}s checks={len(results)} "
           f"mutations_caught={mutations_caught}/{len(flips)}")

"""Self-contained cross-validation suites behind the `verify` subcommand.

Five property groups, each pitting an analytic computation against an
independent numerical route:

* gradients      -- backprop vs central differences of objective values
* trh_formulas   -- closed-form top-layer traces vs finite-difference
                    Hessian diagonals of the matching (stop-gradient
                    respecting) objectives
* layer_traces   -- per-layer CE traces vs per-layer oracle restriction,
                    plus the consecutive-level max bound
* pacbayes       -- closed-form posterior variances vs log-grid search,
                    KL properties, and the objective reparameterization
* hutchinson     -- probe estimators vs exact traces and a dense
                    eigensolver on a toy matrix

Every check records the instance seed so failures are reproducible.  The
"quick" level runs reduced instance counts; "full" runs the 50/100-instance
sweeps used by the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hessian_oracle as ho
from . import pacbayes as pb
from . import layer_traces as lt
from . import trh as trh_module
from .attacks import AttackConfig, pgd
from .losses import RobustLossKind, softmax
from .network import (flatten_weights, forward, init_mlp,
                      min_preact_magnitude)
from .numerics import (SMOOTH_TOL, Rng, finite_diff_gradient,
                       rademacher_vector)

KINDS = (RobustLossKind("at"),
         RobustLossKind("trades", 6.0),
         RobustLossKind("alp", 0.5),
         RobustLossKind("mart", 5.0))


@dataclass
class CheckResult:
    group: str
    name: str
    passed: bool
    detail: str
    seed: int


def sample_smooth_instance(seed: int, max_inputs: int = 6, max_width: int = 8,
                           max_classes: int = 5, tries: int = 200):
    """Random net + input + adversarial input, away from every ReLU kink.

    Also enforces a healthy feature norm and (for the margin-boosted loss)
    a unique runner-up class, so finite differences stay trustworthy.
    Returns ``(net, x, x_adv, y)`` with batch dimension 1.
    """
    rng = Rng(seed).child("instance")
    for attempt in range(tries):
        r = rng.child(attempt)
        d_in = int(r.integers(2, max_inputs + 1))
        k = int(r.integers(2, max_classes + 1))
        n_hidden = int(r.integers(1, 3))
        widths = [int(r.integers(2, max_width + 1)) for _ in range(n_hidden)]
        net = init_mlp([d_in] + widths + [k], r.child("init"))
        x = r.child("x").normal(size=(1, d_in))
        y = np.array([int(r.integers(0, k))])
        cfg = AttackConfig(delta=0.1, steps=5)
        x_adv = pgd(net, x, y, cfg, r.child("attack"))
        if min_preact_magnitude(net, x) < SMOOTH_TOL:
            continue
        if min_preact_magnitude(net, x_adv) < SMOOTH_TOL:
            continue
        tr = forward(net, x)
        tr_adv = forward(net, x_adv)
        if float(np.dot(tr.features[0], tr.features[0])) < 0.05:
            continue
        if float(np.dot(tr_adv.features[0], tr_adv.features[0])) < 0.05:
            continue
        s_adv = softmax(tr_adv.logits[0])
        masked = np.delete(s_adv, y[0])
        top2 = np.sort(masked)[-2:] if masked.size >= 2 else np.array([0.0, masked[0]])
        if masked.size >= 2 and top2[1] - top2[0] < 1e-4:
            continue  # runner-up class nearly tied: argmax unstable
        return net, x, x_adv, y
    raise RuntimeError(f"no smooth instance found for seed {seed}")


# -- group runners ------------------------------------------------------


def check_gradients(instances: int, seed: int = 0,
                    always_regularized: bool = False) -> list[CheckResult]:
    out = []
    for i in range(instances):
        net, x, x_adv, y = sample_smooth_instance(seed * 1000 + i)
        # cycle through every (loss kind, regularizer on/off, freeze) combo;
        # `always_regularized` pins the trace penalty on for every instance
        kind = KINDS[i % len(KINDS)]
        lam = 0.25 if always_regularized or (i % 8) < 4 else 0.0
        stop_grad = (i // 8) % 2 == 0
        value_fn, grad_fn = ho.frozen_objective_fns(
            net, x, x_adv, y, kind, lam=lam, gamma=0.01,
            stop_grad_clean=stop_grad)
        w0 = flatten_weights(net)
        g_an = grad_fn(w0)
        g_fd = finite_diff_gradient(value_fn, w0)
        rel = float(np.linalg.norm(g_an - g_fd)
                    / max(1e-10, np.linalg.norm(g_fd)))
        out.append(CheckResult(
            "gradients", f"{kind.variant}:lam={lam}:inst{i}", rel <= 1e-6,
            f"rel_err={rel:.3e}", seed * 1000 + i))
    return out


def check_trh_formulas(instances: int, seed: int = 0) -> list[CheckResult]:
    out = []
    variants = [("at", True), ("trades", True), ("trades", False),
                ("alp", True), ("mart", True)]
    for i in range(instances):
        inst_seed = seed * 1000 + i
        net, x, x_adv, y = sample_smooth_instance(inst_seed)
        w0 = flatten_weights(net)
        top = ho.top_layer_indices(net)
        for variant, stop_grad in variants:
            kind = next(k for k in KINDS if k.variant == variant)
            _, grad_fn = ho.frozen_objective_fns(
                net, x, x_adv, y, kind, stop_grad_clean=stop_grad)
            oracle = ho.exact_trace(grad_fn, w0, top)
            analytic = float(trh_module.analytic_trh_rows(
                net, x, x_adv, y, kind, stop_grad_clean=stop_grad)[0])
            rel = abs(oracle - analytic) / max(1e-8, abs(oracle))
            tag = variant if stop_grad else f"{variant}-full"
            out.append(CheckResult(
                "trh_formulas", f"{tag}:inst{i}", rel <= 1e-5,
                f"oracle={oracle:.6e} analytic={analytic:.6e} rel={rel:.3e}",
                inst_seed))
    return out


def check_layer_traces(instances: int, inequality_instances: int,
                   seed: int = 0) -> list[CheckResult]:
    out = []
    ce = RobustLossKind("at")  # adversarial CE at x_adv == x is plain CE
    for i in range(instances):
        inst_seed = seed * 2000 + i
        net, x, _, y = sample_smooth_instance(inst_seed)
        w0 = flatten_weights(net)
        _, grad_fn = ho.frozen_objective_fns(net, x, x, y, ce)
        for layer in range(net.depth):
            idx = ho.weight_indices(net, layer=layer)
            oracle = ho.exact_trace(grad_fn, w0, idx)
            analytic = lt.trh_ce_layer(net, x[0], layer)
            rel = abs(oracle - analytic) / max(1e-8, abs(oracle))
            out.append(CheckResult(
                "layer_traces", f"layer{layer}:inst{i}", rel <= 1e-5,
                f"oracle={oracle:.6e} analytic={analytic:.6e} rel={rel:.3e}",
                inst_seed))
    for i in range(inequality_instances):
        inst_seed = seed * 3000 + i
        net, x, _, _ = sample_smooth_instance(inst_seed)
        for level in range(net.depth):
            r = lt.check_layer_inequality(net, x[0], level)
            out.append(CheckResult(
                "layer_traces", f"bound:level{level}:inst{i}", r.holds,
                f"lhs={r.lhs:.6e} rhs={r.rhs:.6e}", inst_seed))
    return out


def check_pacbayes(curvature_vectors: int = 20, seed: int = 0) -> list[CheckResult]:
    out = []
    rng = Rng(seed).child("pacbayes")
    sigma0_sq, beta = 0.1, 50.0

    # KL: zero at the prior, positive elsewhere
    n = 12
    prior_post = pb.GaussianPosterior(np.zeros(n), sigma0_sq)
    kl0 = pb.gaussian_kl(prior_post, sigma0_sq)
    out.append(CheckResult("pacbayes", "kl-zero-at-prior", abs(kl0) <= 1e-12,
                           f"kl={kl0:.3e}", seed))
    ok = True
    worst = 0.0
    for i in range(50):
        r = rng.child("kl", i)
        post = pb.GaussianPosterior(r.normal(size=n),
                                    np.exp(r.normal(size=n) * 0.5) * sigma0_sq)
        kl = pb.gaussian_kl(post, sigma0_sq)
        worst = min(worst, kl)
        ok &= kl >= -1e-12
    out.append(CheckResult("pacbayes", "kl-nonnegative", ok,
                           f"min over 50 draws: {worst:.3e}", seed))

    # closed-form variances beat a 100-point log grid
    grid_ok = True
    detail = ""
    for i in range(curvature_vectors):
        r = rng.child("curv", i)
        dim = int(r.integers(3, 10))
        diag = np.abs(r.normal(size=dim)) * r.uniform(0.1, 5.0)
        theta = r.normal(size=dim)
        risk = float(r.uniform(0.0, 1.0))

        sph = pb.optimal_sigma_spherical(float(diag.sum()), sigma0_sq, beta, dim)
        best = pb.second_order_inner_objective(risk, diag, theta, sph,
                                               sigma0_sq, beta)
        # each grid is one (100, dim) stack of variance vectors
        grid = np.logspace(np.log10(sph) - 2, np.log10(sph) + 2, 100)
        vals = pb.second_order_inner_objective(
            risk, diag, theta, np.repeat(grid[:, None], dim, axis=1),
            sigma0_sq, beta)
        beaten = np.flatnonzero(best > vals + 1e-9)
        if beaten.size:
            grid_ok = False
            detail = f"spherical beaten at inst {i}: {best:.9f} > {vals[beaten[-1]]:.9f}"

        dvec = pb.optimal_sigma_diag(diag, sigma0_sq, beta)
        best_d = pb.second_order_inner_objective(risk, diag, theta, dvec,
                                                 sigma0_sq, beta)
        if best_d > best + 1e-12:
            grid_ok = False
            detail = f"diagonal worse than spherical at inst {i}"
        for j in range(dim):
            cand = np.tile(dvec, (100, 1))
            cand[:, j] = np.logspace(np.log10(dvec[j]) - 2, np.log10(dvec[j]) + 2, 100)
            vals = pb.second_order_inner_objective(risk, diag, theta, cand,
                                                   sigma0_sq, beta)
            if np.any(best_d > vals + 1e-9):
                grid_ok = False
                detail = f"diagonal beaten at inst {i} coord {j}"
    out.append(CheckResult("pacbayes", "closed-form-beats-grid", grid_ok,
                           detail or f"{curvature_vectors} curvature vectors",
                           seed))

    # reparameterization identity between surrogate and training objective
    from .data import two_moons
    ds = two_moons(24, noise_std=0.1, seed=seed + 3)
    net = init_mlp([2, 6, 2], rng.child("net"))
    cfg = pb.PacBayesConfig(sigma0_sq=0.02, beta=200.0, m=len(ds))
    atk = AttackConfig(delta=0.05, steps=3)
    kind = RobustLossKind("at")
    arng = Rng(seed).child("repar-attack")
    x_adv = pgd(net, ds.inputs, ds.labels, atk, arng)
    trh_mean = float(np.mean(trh_module.analytic_trh_rows(
        net, ds.inputs, x_adv, ds.labels, kind)))
    risk = float(np.mean(trh_module.robust_loss_rows(
        net, ds.inputs, x_adv, ds.labels, kind)))
    theta = flatten_weights(net)
    surrogate = (risk + float(np.dot(theta, theta)) / (2 * cfg.beta * cfg.sigma0_sq)
                 + (cfg.sigma0_sq / 2) * trh_mean)
    from .network import lift
    node = trh_module.objective_nodes(lift(net), ds.inputs, x_adv, ds.labels,
                                      kind, cfg.lam, cfg.gamma)
    objective = float(node.value)
    err = abs(surrogate - objective) / max(1.0, abs(objective))
    out.append(CheckResult("pacbayes", "reparameterization-identity",
                           err <= 1e-12,
                           f"surrogate={surrogate!r} objective={objective!r} rel={err:.3e}",
                           seed))
    return out


def check_hutchinson(seed: int = 0) -> list[CheckResult]:
    out = []
    rng = Rng(seed).child("hutchinson")

    diag = np.array([1.0, 3.0, -2.0, 0.5])
    quad = lambda v: float(v @ (diag * v))
    est, _ = ho.hutchinson_trace(quad, diag.size, probes=1, rng=rng.child("one"))
    out.append(CheckResult("hutchinson", "diagonal-exact-one-probe",
                           abs(est - diag.sum()) <= 1e-12,
                           f"est={est} trace={diag.sum()}", seed))

    r = rng.child("quadratic")
    a = r.normal(size=(8, 8))
    h_mat = a + a.T
    h_mat *= 10.0 / np.trace(h_mat)  # fixed trace 10
    quad2 = lambda v: float(v @ h_mat @ v)
    est, se = ho.hutchinson_trace(quad2, 8, probes=1000, rng=rng.child("probes"))
    ok = abs(est - 10.0) <= 3 * max(se, 1e-12)
    out.append(CheckResult("hutchinson", "trace-10-within-3se", ok,
                           f"est={est:.4f} se={se:.4f}", seed))

    b = rng.child("six").normal(size=(6, 6))
    sym = b + b.T
    hvp = lambda v: sym @ v
    est_sq, se_sq = ho.hutchinson_trace_sq(hvp, 6, probes=4000,
                                           rng=rng.child("sq"))
    truth = float(np.sum(np.linalg.eigvalsh(sym) ** 2))
    ok = abs(est_sq - truth) <= 3 * max(se_sq, 1e-12)
    out.append(CheckResult("hutchinson", "trace-sq-vs-eigensolver", ok,
                           f"est={est_sq:.4f} se={se_sq:.4f} truth={truth:.4f}",
                           seed))

    mean, std = ho.eigen_stats(4.0, 10.0, 2)
    out.append(CheckResult("hutchinson", "eigen-stats-diag13",
                           abs(mean - 2.0) <= 1e-12 and abs(std - 1.0) <= 1e-12,
                           f"mean={mean} std={std}", seed))
    return out


LEVELS = {
    "quick": dict(gradients=8, trh=6, layer_traces=5, inequality=8, curvature=5),
    "full": dict(gradients=50, trh=50, layer_traces=50, inequality=100, curvature=20),
}


def run_verification(level: str = "quick", seed: int = 0):
    """Run every group; returns (results, all_passed)."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    sizes = LEVELS[level]
    results = []
    results += check_gradients(sizes["gradients"], seed=seed)
    results += check_trh_formulas(sizes["trh"], seed=seed + 1)
    results += check_layer_traces(sizes["layer_traces"], sizes["inequality"], seed=seed + 2)
    results += check_pacbayes(sizes["curvature"], seed=seed + 3)
    results += check_hutchinson(seed=seed + 4)
    return results, all(r.passed for r in results)


def format_report(results) -> str:
    lines = []
    groups = []
    for r in results:
        if r.group not in groups:
            groups.append(r.group)
    for group in groups:
        members = [r for r in results if r.group == group]
        failed = [r for r in members if not r.passed]
        status = "PASS" if not failed else "FAIL"
        lines.append(f"{status} group={group} checks={len(members)} failed={len(failed)}")
        for r in failed:
            lines.append(f"  FAIL {group}/{r.name} seed={r.seed} {r.detail}")
    return "\n".join(lines)

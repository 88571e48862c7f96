"""Gaussian-posterior bound machinery.

The generalization bound being minimized has the linear form

    expected test loss <= E_Q[train loss] + KL(Q || P) / beta + C

with P a zero-mean isotropic Gaussian of variance ``sigma0_sq`` and Q a
product of univariate Gaussians centered at the trained weights.  Under a
second-order expansion of the expected train loss, the optimal posterior
variances have closed forms (one shared variance, or one per weight), and
substituting them back yields the training surrogate

    R(theta) + ||theta||^2 / (2 beta sigma0_sq) + (sigma0_sq / 2) * Tr(Hessian)

which is exactly the regularized objective under the reparameterization
``gamma = 1 / (2 beta sigma0_sq)``, ``lam = sigma0_sq / 2``.

``C`` is a user-supplied constant (default 0): nothing here claims an
absolute bound value, only Q-relative comparisons.  When curvature is
negative enough to break the closed forms, the optimizers report
out-of-regime instead of silently clamping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attacks import pgd
from .config import AttackConfig, PacBayesConfig, RobustLossKind
from .network import MlpNetwork, flatten_weights, param_count, unflatten_weights
from .numerics import OutOfRegimeError, Rng, mean_se
from .trh import robust_loss_rows


@dataclass
class GaussianPosterior:
    """Product-Gaussian posterior: mean vector plus shared or per-weight variance.

    A ``(G, N)`` stack of per-weight variance vectors stands for G
    posteriors around the same mean; :func:`gaussian_kl` then returns one
    divergence per row.
    """

    mean: np.ndarray
    sigma_sq: float | np.ndarray  # scalar -> spherical, vector -> diagonal

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        if np.isscalar(self.sigma_sq) or np.ndim(self.sigma_sq) == 0:
            if float(self.sigma_sq) <= 0:
                raise ValueError("variance must be positive")
        else:
            self.sigma_sq = np.asarray(self.sigma_sq, dtype=np.float64)
            if self.sigma_sq.ndim > 2 or self.sigma_sq.shape[-1:] != self.mean.shape:
                raise ValueError("per-weight variance must match the mean shape")
            if np.any(self.sigma_sq <= 0):
                raise ValueError("variance must be positive")

    @property
    def dim(self) -> int:
        return self.mean.size

    def variances(self) -> np.ndarray:
        if np.ndim(self.sigma_sq) == 0:
            return np.full(self.dim, float(self.sigma_sq))
        return self.sigma_sq


def gaussian_kl(post: GaussianPosterior, sigma0_sq: float) -> float:
    """KL between the posterior and the zero-mean isotropic prior.

    0.5 [ sum_n log(sigma0^2 / sigma_n^2) - N + ||theta||^2 / sigma0^2
          + sum_n sigma_n^2 / sigma0^2 ];  zero iff posterior == prior.
    A float, or ``(G,)`` for a stack of G variance vectors.
    """
    if sigma0_sq <= 0:
        raise ValueError("sigma0_sq must be positive")
    var = post.variances()
    n = post.dim
    kl = 0.5 * (np.sum(np.log(sigma0_sq / var), axis=-1) - n
                + float(np.dot(post.mean, post.mean)) / sigma0_sq
                + var.sum(axis=-1) / sigma0_sq)
    return float(kl) if kl.ndim == 0 else kl


def optimal_sigma_spherical(trace: float, sigma0_sq: float, beta: float,
                            n_params: int) -> float:
    """Shared posterior variance minimizing the second-order bound.

    sigma*^2 = sigma0^2 / (1 + sigma0^2 beta trace / N); at most sigma0^2
    for non-negative curvature.
    """
    if n_params < 1:
        raise ValueError("n_params must be >= 1")
    denom = 1.0 + sigma0_sq * beta * trace / n_params
    if denom <= 0:
        raise OutOfRegimeError(
            f"trace {trace} too negative: 1 + sigma0^2 beta trace / N = {denom} <= 0")
    return sigma0_sq / denom


def optimal_sigma_diag(hessian_diag: np.ndarray, sigma0_sq: float,
                       beta: float) -> np.ndarray:
    """Per-weight posterior variances; zero-curvature entries keep sigma0^2."""
    d = np.asarray(hessian_diag, dtype=np.float64)
    denom = 1.0 + sigma0_sq * beta * d
    bad = np.flatnonzero(denom <= 0)
    if bad.size:
        raise OutOfRegimeError(
            f"{bad.size} curvature entries out of regime (first: {bad[:10].tolist()})",
            indices=bad.tolist())
    return sigma0_sq / denom


def second_order_inner_objective(robust_loss: float, hessian_diag: np.ndarray,
                                 theta: np.ndarray, sigma_sq,
                                 sigma0_sq: float, beta: float):
    """R + 0.5 sum sigma_n^2 d_n + KL/beta: the expanded bound being minimized.

    A float, or ``(G,)`` for a ``(G, N)`` stack of variance vectors; each
    row's value equals the call on that row alone to the bit.
    """
    post = GaussianPosterior(mean=theta, sigma_sq=sigma_sq)
    var = post.variances()
    # one (1, N) @ (N, 1) product per row: the same dot as for one vector
    curvature = np.matmul(var[..., None, :], hessian_diag[:, None])[..., 0, 0]
    value = (robust_loss + 0.5 * curvature + gaussian_kl(post, sigma0_sq) / beta)
    return float(value) if np.ndim(value) == 0 else value


def expected_loss_mc(net: MlpNetwork, dataset, kind: RobustLossKind,
                     attack_cfg: AttackConfig, post: GaussianPosterior,
                     samples: int, rng: Rng):
    """Monte-Carlo mean of the robust loss over posterior weight draws.

    Adversarial examples are recomputed per draw: the robust loss is
    defined with its inner maximization at each sampled weight vector.
    Returns ``(mean, standard_error)``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if post.dim != param_count(net):
        raise ValueError("posterior dimension does not match the network")
    sigma = np.sqrt(post.variances())
    vals = np.empty(samples)
    for i in range(samples):
        draw_rng = rng.child("draw", i)
        theta = post.mean + sigma * draw_rng.normal(size=post.dim)
        candidate = unflatten_weights(net, theta)
        x_adv = pgd(candidate, dataset.inputs, dataset.labels, attack_cfg,
                    draw_rng.child("attack"))
        vals[i] = float(np.mean(robust_loss_rows(candidate, dataset.inputs,
                                                 x_adv, dataset.labels, kind)))
    return mean_se(vals)


def bound_surrogate(net: MlpNetwork, X, X_adv, y, kind: RobustLossKind,
                    cfg: PacBayesConfig, trh_value: float) -> float:
    """The trainable upper-bound surrogate at the current weights.

    ``mean robust loss + ||theta||^2/(2 beta sigma0^2)
    + (sigma0^2/2) * trh_value + c_const``, with the robust loss at the
    caller's points `X_adv` and `trh_value` from the caller too (top-layer
    closed form, or a whole-network oracle measurement).
    """
    risk = float(np.mean(robust_loss_rows(net, X, X_adv, y, kind)))
    theta = flatten_weights(net)
    return (risk + float(np.dot(theta, theta)) / (2.0 * cfg.beta * cfg.sigma0_sq)
            + (cfg.sigma0_sq / 2.0) * trh_value + cfg.c_const)

"""Hessian-trace regularized adversarial training, with the bound machinery
that derives it and the finite-difference oracles that validate it."""

from .attacks import AttackConfig, clean_accuracy, eval_robust_accuracy, pgd, project
from .data import Dataset, load_csv, normalize_center, two_moons
from .hessian_oracle import (LayerHessianReport, eigen_stats, exact_trace,
                             hutchinson_trace, hutchinson_trace_sq)
from .losses import (MartTerms, RobustLossKind, SoftmaxDerivs, alp_pair_loss,
                     cross_entropy, kl_div, mart_losses, softmax,
                     softmax_derivs)
from .network import (DenseLayer, ForwardTrace, MlpNetwork, backprop,
                      flatten_weights, forward, init_mlp, load_checkpoint,
                      param_count, save_checkpoint, unflatten_weights)
from .numerics import (OracleError, Rng, finite_diff_gradient,
                       finite_diff_hessian_diag, rademacher_vector)
from .pacbayes import (GaussianPosterior, OutOfRegimeError, PacBayesConfig,
                       bound_surrogate, expected_loss_mc, gaussian_kl,
                       optimal_sigma_diag, optimal_sigma_spherical)
from .layer_traces import (LayerHTensor, check_layer_inequality, full_ce_trace,
                       l1_operator_norm, layer_h_tensor, trh_ce_layer)
from .trainer import (MeasureConfig, MetricsLog, TrainConfig, TrainResult,
                      awp_step, lambda_at, lr_at, swa_update, train)
from .trh import (TradesFullTerms, TrHConfig, analytic_trh, trh_alp, trh_at,
                  trh_mart, trh_trades, trh_trades_full)

__version__ = "0.1.0"

"""Hessian-trace regularized adversarial training, with the bound machinery
that derives it and the finite-difference oracles that validate it.

Import from the submodules (``trhreg.trainer``, ``trhreg.trh``, ...); the
package top level exports nothing else."""

__version__ = "0.1.0"

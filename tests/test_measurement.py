"""The trainer's measurements run the `hessian_oracle` estimators.

Each test pins one measurement against a reference written here the
explicit way (probe matrices, hand-written probe loops, the tape objective),
bit for bit.
"""

import numpy as np
import pytest

from loss_references import cross_entropy_rows
from oracle_helpers import layer_block
from trhreg import tape
from trhreg.attacks import AttackConfig, pgd
from trhreg.data import two_moons
from trhreg.hessian_oracle import (eigen_stats, frozen_objective_fns,
                                   hutchinson_trace, hvp_from_grad,
                                   quad_form_from_values)
from trhreg.losses import RobustLossKind
from trhreg.network import (flatten_weights, forward, init_mlp, lift,
                            unflatten_weights)
from trhreg.numerics import Rng, rademacher_vector
from trhreg.trainer import (PROBE_SEED, MeasureConfig, measure_trace_row,
                            measurement_columns, spectrum_records)
from trhreg.trh import capture_frozen, objective_nodes

ATTACK = AttackConfig(delta=0.05, steps=2)
KINDS = [RobustLossKind("at"), RobustLossKind("trades", 6.0),
         RobustLossKind("alp", 0.5), RobustLossKind("mart", 5.0)]


def _setup(seed=3):
    ds = two_moons(40, noise_std=0.1, seed=seed)
    net = init_mlp([2, 6, 5, 2], Rng(seed).child("init"))
    return ds, net


def _measured_adv(net, ds, epoch):
    meas_rng = Rng(PROBE_SEED).child("measure", epoch)
    return pgd(net, ds.inputs, ds.labels, ATTACK, meas_rng.child("attack"))


def _tape_value_fn(net, X, X_adv, y, kind, lam=0.0, gamma=0.0,
                   stop_grad_clean=True):
    """The objective's value the tape way, constants frozen at `net`."""
    frozen = capture_frozen(net, X, X_adv, y, kind)

    def value_fn(w):
        return float(objective_nodes(lift(unflatten_weights(net, w)), X, X_adv,
                                     y, kind, lam, gamma,
                                     stop_grad_clean=stop_grad_clean,
                                     frozen=frozen).value)

    return value_fn


class TestFullEstimate:
    @pytest.mark.parametrize("variant", ["at", "mart"])
    def test_equals_hutchinson_on_trace_probe_stream(self, variant):
        kind = next(k for k in KINDS if k.variant == variant)
        ds, net = _setup()
        measure = MeasureConfig(mode="full", probes=6)
        for epoch in (0, 3):
            [row] = measure_trace_row(net, ds, kind, ATTACK, epoch, measure,
                                      {"train_loss": 0.0, "pgd_acc": 0.0})
            x_adv = _measured_adv(net, ds, epoch)
            w0 = flatten_weights(net)
            if variant == "at":
                # the numpy cross entropy the AT estimate used to run on
                def value_fn(w):
                    logits = forward(unflatten_weights(net, w), x_adv).logits
                    return float(np.mean(cross_entropy_rows(logits, ds.labels)))
            else:
                value_fn = _tape_value_fn(net, ds.inputs, x_adv, ds.labels, kind)
            quad = quad_form_from_values(value_fn, w0)
            est, se = hutchinson_trace(quad, w0.size, measure.probes,
                                       Rng(PROBE_SEED).child("trace-probes"))
            assert row["trh_full_estimate"] == est
            assert row["trh_full_stderr"] == se
            # the probes are the rows of one matrix drawn once per run
            probe_rng = Rng(PROBE_SEED).child("trace-probes")
            probes = np.stack([rademacher_vector(w0.size, probe_rng)
                               for _ in range(measure.probes)])
            vals = np.array([quad(v) for v in probes])
            assert est == float(vals.mean())
            assert se == float(np.std(vals, ddof=1) / np.sqrt(vals.size))

    def test_other_modes_leave_estimate_nan(self):
        ds, net = _setup()
        [row] = measure_trace_row(net, ds, RobustLossKind("at"), ATTACK, 0,
                                  MeasureConfig(mode="top"),
                                  {"train_loss": 0.0, "pgd_acc": 0.0})
        assert np.isnan(row["trh_full_estimate"])
        assert np.isnan(row["trh_full_stderr"])


class TestMeasurementColumns:
    @pytest.mark.parametrize("mode", ["top", "full", "spectrum"])
    @pytest.mark.parametrize("hidden", [[6], [6, 5]], ids=["depth2", "depth3"])
    def test_are_the_keys_of_every_record(self, mode, hidden):
        ds = two_moons(40, noise_std=0.1, seed=3)
        net = init_mlp([2, *hidden, 2], Rng(3).child("init"))
        records = measure_trace_row(net, ds, RobustLossKind("at"), ATTACK, 0,
                                    MeasureConfig(mode=mode, probes=4),
                                    {"train_loss": 0.0, "pgd_acc": 0.0})
        assert len(records) == (net.depth + 1 if mode == "spectrum" else 1)
        for record in records:
            assert list(record) == measurement_columns(mode, net.depth)


def _reference_spectrum(net, x, x_adv, y, kind, epoch, probes, rng):
    """Spectrum records with explicit per-layer and whole-network probe loops."""
    _, grad_fn = frozen_objective_fns(net, x, x_adv, y, kind)
    w0 = flatten_weights(net)
    hvp = hvp_from_grad(grad_fn, w0)
    dim = w0.size
    records = []
    trace_total = 0.0
    for li in range(1, net.depth + 1):
        idx = layer_block(net, li - 1)
        tvals = np.empty(probes)
        sqvals = np.empty(probes)
        layer_rng = rng.child("layer", li)
        for p in range(probes):
            v = np.zeros(dim)
            v[idx] = rademacher_vector(idx.size, layer_rng)
            hv = hvp(v)
            # a layer's v . Hv sums over its own entries
            tvals[p] = float(np.dot(v[idx], hv[idx]))
            sqvals[p] = float(np.dot(hv[idx], hv[idx]))
        trace = float(tvals.mean())
        trace_total += trace
        records.append((li, trace, float(sqvals.mean()), idx.size))
    full_rng = rng.child("full")
    sqvals = np.empty(probes)
    for p in range(probes):
        hv = hvp(rademacher_vector(dim, full_rng))
        sqvals[p] = float(np.dot(hv, hv))
    records.insert(0, (0, trace_total, float(sqvals.mean()), dim))
    out = []
    for layer, trace, trace_sq, n in records:
        mean, std = eigen_stats(trace, trace_sq, n)
        out.append({"epoch": epoch, "layer": layer, "trace": trace,
                    "trace_sq": trace_sq, "eig_mean": mean, "eig_std": std})
    return out


class TestSpectrum:
    @pytest.mark.parametrize("variant", ["at", "mart"])
    def test_equals_explicit_probe_loops(self, variant):
        kind = next(k for k in KINDS if k.variant == variant)
        ds, net = _setup(seed=4)
        x_adv = pgd(net, ds.inputs, ds.labels, ATTACK, Rng(4).child("a"))
        rng = Rng(21).child("spectrum")
        got = spectrum_records(net, ds.inputs, x_adv, ds.labels, kind, 5, 3, rng)
        ref = _reference_spectrum(net, ds.inputs, x_adv, ds.labels, kind, 5, 3,
                                  Rng(21).child("spectrum"))
        assert [r["layer"] for r in got] == [0, 1, 2, 3]
        assert got == ref


    @pytest.mark.parametrize("dims,bias", [([2, 6, 5, 2], False), ([2, 2], True)],
                             ids=["no-hidden-bias", "one-layer"])
    @pytest.mark.parametrize("variant", ["trades", "alp"])
    def test_other_losses_and_nets_equal_explicit_probe_loops(self, variant,
                                                             dims, bias):
        kind = next(k for k in KINDS if k.variant == variant)
        ds = two_moons(40, noise_std=0.1, seed=6)
        net = init_mlp(dims, Rng(6).child("init"), hidden_bias=bias)
        x_adv = pgd(net, ds.inputs, ds.labels, ATTACK, Rng(6).child("a"))
        got = spectrum_records(net, ds.inputs, x_adv, ds.labels, kind, 2, 3,
                               Rng(22).child("spectrum"))
        ref = _reference_spectrum(net, ds.inputs, x_adv, ds.labels, kind, 2, 3,
                                  Rng(22).child("spectrum"))
        assert [r["layer"] for r in got] == list(range(len(dims)))
        assert got == ref


class TestValuePath:
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.variant)
    def test_value_equals_tape_objective_and_records_no_edges(self, kind,
                                                              monkeypatch):
        ds, net = _setup(seed=5)
        x_adv = pgd(net, ds.inputs, ds.labels, ATTACK, Rng(5).child("a"))
        args = (ds.inputs, x_adv, ds.labels, kind)
        value_fn, _ = frozen_objective_fns(net, *args, lam=0.3, gamma=0.01,
                                           stop_grad_clean=False)
        ref_fn = _tape_value_fn(net, *args, lam=0.3, gamma=0.01,
                                stop_grad_clean=False)
        w0 = flatten_weights(net)
        shifted = w0 + 1e-3 * rademacher_vector(w0.size, Rng(5).child("v"))

        built = []  # one entry per Node constructed
        init = tape.Node.__init__

        def counting_init(self, value, edges=()):
            init(self, value, edges)
            built.append(self)

        monkeypatch.setattr(tape.Node, "__init__", counting_init)
        for w in (w0, shifted):
            built.clear()
            value = value_fn(w)
            assert built == []  # the value route is plain numpy
            assert value == ref_fn(w)
            assert built  # the tape objective on leaves does build its graph

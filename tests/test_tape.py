"""Gradient checks for every tape op: adjoints vs central differences."""

import numpy as np
import pytest

from trhreg import tape
from trhreg.numerics import Rng, finite_diff_gradient


def gradcheck(build, x0, rtol=1e-7):
    """build(leaf Node) -> scalar Node; compares backward to FD."""
    leaf = tape.leaf(x0)
    out = build(leaf)
    tape.backward(out)
    analytic = leaf.grad.ravel()

    def value(flat):
        node = tape.leaf(flat.reshape(x0.shape))
        return float(build(node).value)

    numeric = finite_diff_gradient(value, x0.ravel().copy())
    err = np.linalg.norm(analytic - numeric) / max(1e-10, np.linalg.norm(numeric))
    assert err <= rtol, f"gradcheck failed: rel err {err:.3e}"


R = Rng(123)


class TestElementwise:
    def test_add_broadcast_bias(self):
        x0 = R.child("a").normal(size=(3, 4))
        bias = R.child("b").normal(size=4)
        gradcheck(lambda n: tape.nsum((n + tape.constant(bias)) * (n + 1.0)), x0)

    def test_mul_div_square(self):
        x0 = np.abs(R.child("c").normal(size=(2, 5))) + 0.5
        gradcheck(lambda n: tape.nsum(n * n / (1.0 + n)), x0)

    def test_neg_sub_scalars(self):
        x0 = R.child("d").normal(size=6)
        gradcheck(lambda n: tape.nsum(2.0 - (-n) * 3.0 - n), x0)

    def test_exp_log(self):
        x0 = np.abs(R.child("e").normal(size=(4,))) + 0.2
        gradcheck(lambda n: tape.nsum(tape.log(n) + tape.exp(-(n * n))), x0)

    def test_relu_masks_gradient(self):
        x0 = np.array([[-1.0, 2.0, -0.5, 3.0]])
        leaf = tape.leaf(x0)
        out = tape.nsum(tape.relu(leaf))
        tape.backward(out)
        assert np.array_equal(leaf.grad, [[0.0, 1.0, 0.0, 1.0]])


class TestMatmulReductions:
    def test_matmul_both_sides(self):
        a0 = R.child("f").normal(size=(3, 4))
        b = tape.constant(R.child("g").normal(size=(4, 2)))
        gradcheck(lambda n: tape.nsum((n @ b) * (n @ b)), a0)

        b0 = R.child("h").normal(size=(4, 2))
        a = tape.constant(R.child("i").normal(size=(3, 4)))
        gradcheck(lambda n: tape.nsum((a @ n) * (a @ n)), b0)

    def test_row_sum_keepdims_broadcast(self):
        x0 = np.abs(R.child("j").normal(size=(3, 4))) + 0.1
        w = tape.constant(R.child("jw").normal(size=(3, 4)))
        gradcheck(lambda n: tape.nsum(w * n / tape.row_sum(n, keepdims=True)), x0)

    def test_mean(self):
        x0 = R.child("k").normal(size=(5, 2))
        leaf = tape.leaf(x0)
        out = tape.mean(leaf)
        tape.backward(out)
        assert np.allclose(leaf.grad, np.full((5, 2), 0.1))


class TestLogSoftmax:
    def test_rows_sum_to_one_probabilities(self):
        logits = R.child("l").normal(size=(4, 6)) * 5
        node = tape.exp(tape.log_softmax(tape.constant(logits)))
        assert np.allclose(node.value.sum(axis=1), 1.0, atol=1e-12)

    def test_gradcheck_cross_entropy(self):
        x0 = R.child("m").normal(size=(3, 5))
        onehot = np.zeros((3, 5))
        onehot[np.arange(3), [1, 4, 0]] = 1.0
        gradcheck(lambda n: tape.mean(-tape.row_sum(
            tape.log_softmax(n) * tape.constant(onehot))), x0)

    def test_extreme_logits_stable(self):
        logits = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
        node = tape.log_softmax(tape.constant(logits))
        assert np.all(np.isfinite(node.value))


class TestBackwardMechanics:
    def test_shared_subexpression_accumulates(self):
        leaf = tape.leaf(np.array(2.0))
        shared = leaf * leaf          # x^2
        out = shared + shared         # 2 x^2 -> d/dx = 4x = 8
        tape.backward(out)
        assert float(leaf.grad) == 8.0

    def test_backward_requires_scalar(self):
        leaf = tape.leaf(np.ones(3))
        with pytest.raises(ValueError):
            tape.backward(leaf + 1.0)

    def test_constant_gets_no_edges(self):
        const = tape.constant(np.ones(3))
        leaf = tape.leaf(np.ones(3))
        out = tape.nsum(const * leaf)
        tape.backward(out)
        assert np.array_equal(leaf.grad, np.ones(3))


class TestConstantPropagation:
    def test_ops_on_constants_record_no_edges(self):
        a = tape.constant(np.ones((2, 3)))
        out = tape.nsum(tape.exp(a * 2.0 + a) @ tape.constant(np.ones((3, 1))))
        assert out._edges == () and not out.live

    def test_mixed_op_records_only_the_live_operand(self):
        const = tape.constant(np.ones(3))
        leaf = tape.leaf(np.ones(3))
        node = const * leaf
        assert node.live and [p for p, _ in node._edges] == [leaf]

    def test_reshape_gradient(self):
        x0 = R.child("r").normal(size=(2, 6))
        w = tape.constant(R.child("rw").normal(size=(3, 2, 2)))
        gradcheck(lambda n: tape.nsum(tape.reshape(n, (3, 2, 2)) * w), x0)

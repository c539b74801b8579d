import numpy as np
import pytest

import openviewer.tensor_core as tc
from openviewer.unfold_net import _bind_params, init_params

import fine_ops as fo


def grad_of(loss_builder, values, eps=1e-5):
    """Analytic gradients of loss_builder(nodes) for each value array."""
    nodes = [tc.leaf(v) for v in values]
    out = loss_builder(nodes)
    tc.backward(out)
    return [n.grad for n in nodes]


class TestMatrixInvariants:
    def test_matrix_row_major_float64(self):
        m = tc.matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.flags["C_CONTIGUOUS"]
        assert m.shape == (2, 2)

    def test_matrix_rejects_nonfinite(self):
        with pytest.raises(tc.NumericError):
            tc.matrix([[np.nan, 0.0]])
        with pytest.raises(tc.NumericError):
            tc.matrix([[np.inf]])

    def test_values_frozen(self):
        node = tc.leaf([[1.0, 2.0]])
        with pytest.raises(ValueError):
            node.value[0, 0] = 7.0

    def test_gradient_shape_matches_value(self):
        node = tc.leaf(np.ones((3, 4)))
        assert node.grad.shape == node.value.shape
        assert np.all(node.grad == 0.0)


class TestMatmul:
    def test_identity(self):
        a = tc.leaf([[1.0, 2.0], [3.0, 4.0]])
        eye = tc.leaf(np.eye(2))
        out = fo.matmul(eye, a)
        assert np.array_equal(out.value, a.value)

    def test_selector_row(self):
        out = fo.matmul(tc.leaf([[1.0, 0.0]]), tc.leaf([[2.0], [3.0]]))
        assert np.allclose(out.value, [[2.0]])

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(tc.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            fo.matmul(tc.leaf(np.zeros((2, 3))), tc.leaf(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=(4, 2))

        def loss(nodes):
            return fo.sum(fo.matmul(nodes[0], nodes[1]))

        err = fo.finite_diff_check(loss, [tc.leaf(a0), tc.leaf(b0)], eps=1e-5)
        assert err < 1e-6

    def test_identity_associativity_bitwise(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 3))
        left = fo.matmul(fo.matmul(tc.leaf(a), tc.leaf(np.eye(4))), tc.leaf(b))
        right = fo.matmul(tc.leaf(a), tc.leaf(b))
        assert np.array_equal(left.value, right.value)


class TestElementwise:
    def test_add_identity(self):
        a = tc.leaf([[1.0, -2.0]])
        out = fo.add(a, tc.leaf(np.zeros((1, 2))))
        assert np.array_equal(out.value, a.value)

    def test_scale_identity(self):
        a = tc.leaf([[3.0, 4.0]])
        assert np.array_equal(fo.scale(a, 1.0).value, a.value)

    def test_sub_gradient_is_negated(self):
        rng = np.random.default_rng(2)
        a0, b0 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        ga, gb = grad_of(lambda n: fo.sum(fo.sub(n[0], n[1])), [a0, b0])
        assert np.allclose(ga, 1.0)
        assert np.allclose(gb, -1.0)
        err = fo.finite_diff_check(
            lambda n: fo.sum(fo.sub(n[0], n[1])), [tc.leaf(a0), tc.leaf(b0)]
        )
        assert err < 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(tc.ShapeError):
            fo.add(tc.leaf(np.zeros((1, 2))), tc.leaf(np.zeros((2, 1))))

    def test_accumulation_is_additive(self):
        # node consumed twice receives the sum of both partials
        a = tc.leaf([[2.0]])
        out = fo.add(a, a)
        tc.backward(fo.sum(out))
        assert np.allclose(a.grad, [[2.0]])


class TestSoftThreshold:
    def test_definition(self):
        theta = tc.leaf([[2.0]])
        out = fo.soft_threshold(tc.leaf([[5.0, -5.0, 1.0]]), theta)
        assert np.allclose(out.value, [[3.0, -3.0, 0.0]])

    def test_zero_threshold_exact_identity(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 4))
        out = fo.soft_threshold(tc.leaf(a), tc.leaf([[0.0]]))
        assert np.array_equal(out.value, a)

    def test_negative_threshold_rejected(self):
        with pytest.raises(tc.DomainError):
            fo.soft_threshold(tc.leaf([[1.0]]), tc.leaf([[-0.5]]))

    def test_theta_gradient_hand_case(self):
        a = tc.leaf([[3.0, -3.0, 1.0]])
        theta = tc.leaf([[1.0]])
        tc.backward(fo.sum(fo.soft_threshold(a, theta)))
        # -1*1 - (-1)*1 + 0 = 0
        assert np.allclose(theta.grad, [[0.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        a0 = rng.normal(size=(4, 3)) * 2.0
        # keep entries away from the kink at |a| = theta
        a0[np.abs(np.abs(a0) - 0.5) < 0.05] += 0.2
        err = fo.finite_diff_check(
            lambda n: fo.sum(fo.soft_threshold(n[0], n[1])),
            [tc.leaf(a0), tc.leaf([[0.5]])],
        )
        assert err < 1e-6

    def test_nonexpansive(self):
        rng = np.random.default_rng(5)
        theta = tc.leaf([[0.7]])
        for _ in range(50):
            a = rng.normal(size=(4, 4)) * 3
            b = rng.normal(size=(4, 4)) * 3
            pa = fo.soft_threshold(tc.leaf(a), theta).value
            pb = fo.soft_threshold(tc.leaf(b), theta).value
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


class TestGroupSoftThreshold:
    def test_definition_column(self):
        out = fo.group_soft_threshold(tc.leaf([[3.0], [4.0]]), tc.leaf([[2.0]]))
        assert np.allclose(out.value, [[1.8], [2.4]])

    def test_dead_zone(self):
        out = fo.group_soft_threshold(tc.leaf([[0.3], [0.4]]), tc.leaf([[2.0]]))
        assert np.array_equal(out.value, np.zeros((2, 1)))

    def test_zero_threshold_exact_identity(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(4, 5))
        out = fo.group_soft_threshold(tc.leaf(a), tc.leaf([[0.0]]))
        assert np.array_equal(out.value, a)

    def test_rows_axis(self):
        a = np.array([[3.0, 4.0], [0.1, 0.2]])
        out = fo.group_soft_threshold(tc.leaf(a), tc.leaf([[2.0]]), axis="rows")
        assert out.value[0] == pytest.approx([1.8, 2.4])
        assert np.array_equal(out.value[1], [0.0, 0.0])

    def test_negative_threshold_rejected(self):
        with pytest.raises(tc.DomainError):
            fo.group_soft_threshold(tc.leaf([[1.0]]), tc.leaf([[-1.0]]))

    def test_gradient_matches_finite_differences_away_from_kink(self):
        rng = np.random.default_rng(7)
        rho = 0.5
        a0 = rng.normal(size=(4, 3))
        norms = np.sqrt(np.sum(a0 * a0, axis=0))
        assert np.all(np.abs(norms - rho) > 1e-3)  # seed chosen off the kink
        err = fo.finite_diff_check(
            lambda n: fo.sum(fo.group_soft_threshold(n[0], n[1])),
            [tc.leaf(a0), tc.leaf([[rho]])],
        )
        assert err < 1e-5

    def test_nonexpansive(self):
        rng = np.random.default_rng(8)
        rho = tc.leaf([[0.9]])
        for _ in range(50):
            a = rng.normal(size=(5, 3)) * 2
            b = rng.normal(size=(5, 3)) * 2
            pa = fo.group_soft_threshold(tc.leaf(a), rho).value
            pb = fo.group_soft_threshold(tc.leaf(b), rho).value
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


class TestReductionsAndSoftmax:
    def test_row_softmax_symmetry(self):
        out = fo.row_softmax(tc.leaf([[0.0, 0.0, 0.0]]))
        assert np.allclose(out.value, [[1 / 3, 1 / 3, 1 / 3]])

    def test_row_softmax_stability(self):
        out = fo.row_softmax(tc.leaf([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.value))
        assert out.value[0, 0] == pytest.approx(1.0)

    def test_frobenius_sq_identity(self):
        assert fo.frobenius_sq(tc.leaf(np.eye(2))).item() == pytest.approx(2.0)

    def test_row_softmax_gradient(self):
        rng = np.random.default_rng(9)
        a0 = rng.normal(size=(2, 4))
        w = tc.leaf(rng.normal(size=(2, 4)))
        err = fo.finite_diff_check(
            lambda n: fo.sum(fo.mul_elem(fo.row_softmax(n[0]), w)), [tc.leaf(a0)]
        )
        assert err < 1e-6

    def test_row_log_softmax_matches_composition(self):
        rng = np.random.default_rng(21)
        a0 = rng.normal(size=(4, 5)) * 3
        fused = fo.row_log_softmax(tc.leaf(a0)).value
        composed = fo.log(fo.row_softmax(tc.leaf(a0))).value
        assert np.allclose(fused, composed, atol=1e-12)
        err = fo.finite_diff_check(
            lambda n: fo.sum(fo.row_log_softmax(n[0])), [tc.leaf(a0)]
        )
        assert err < 1e-6

    def test_row_log_softmax_survives_huge_spread(self):
        out = fo.row_log_softmax(tc.leaf([[0.0, -800.0, 2.0]]))
        assert np.all(np.isfinite(out.value))

    def test_log_domain_error(self):
        with pytest.raises(tc.DomainError):
            fo.log(tc.leaf([[0.0]]))

    def test_log_sum_row_norm_gradients(self):
        rng = np.random.default_rng(10)
        a0 = np.abs(rng.normal(size=(3, 3))) + 0.5

        def loss(n):
            return fo.add(fo.sum(fo.log(n[0])), fo.sum(fo.row_l2_norms(n[0])))

        err = fo.finite_diff_check(loss, [tc.leaf(a0)])
        assert err < 1e-6

    def test_row_l2_norms_values(self):
        out = fo.row_l2_norms(tc.leaf([[3.0, 4.0], [0.0, 0.0]]))
        assert np.allclose(out.value, [[5.0], [0.0]])


class TestPlumbingOps:
    def test_transpose_roundtrip_gradient(self):
        rng = np.random.default_rng(11)
        a0 = rng.normal(size=(3, 2))
        err = fo.finite_diff_check(
            lambda n: fo.frobenius_sq(fo.transpose(n[0])), [tc.leaf(a0)]
        )
        assert err < 1e-7

    def test_take_rows_scatter(self):
        a = tc.leaf(np.arange(12.0).reshape(4, 3))
        out = fo.take_rows(a, [2, 0, 2])
        assert np.array_equal(out.value, a.value[[2, 0, 2]])
        tc.backward(fo.sum(out))
        assert np.array_equal(a.grad[:, 0], [1.0, 0.0, 2.0, 0.0])

    def test_take_rows_out_of_range(self):
        with pytest.raises(tc.ShapeError):
            fo.take_rows(tc.leaf(np.zeros((2, 2))), [3])

    def test_hstack_and_split_gradient(self):
        rng = np.random.default_rng(12)
        parts = [rng.normal(size=(2, k)) for k in (1, 3, 2)]

        def loss(n):
            return fo.frobenius_sq(fo.hstack(n))

        err = fo.finite_diff_check(loss, [tc.leaf(p) for p in parts])
        assert err < 1e-7

    def test_mul_scalar_node_gradient(self):
        rng = np.random.default_rng(13)
        a0 = rng.normal(size=(2, 3))
        err = fo.finite_diff_check(
            lambda n: fo.frobenius_sq(fo.mul_scalar_node(n[0], n[1])),
            [tc.leaf(a0), tc.leaf([[0.7]])],
        )
        assert err < 1e-6

    def test_reciprocal_sqrt_clamp_gradients(self):
        a0 = np.array([[0.9, 2.0, 4.0]])

        def loss(n):
            return fo.sum(fo.reciprocal(fo.sqrt(fo.clamp_min(n[0], 0.5))))

        err = fo.finite_diff_check(loss, [tc.leaf(a0)])
        assert err < 1e-6

    def test_relu_kink_subgradient_zero(self):
        a = tc.leaf([[0.0, -1.0, 2.0]])
        tc.backward(fo.sum(fo.relu(a)))
        assert np.array_equal(a.grad, [[0.0, 0.0, 1.0]])


class TestFiniteDiffCheck:
    def test_quadratic_loss_exact(self):
        rng = np.random.default_rng(14)
        a0 = rng.normal(size=(3, 3))
        err = fo.finite_diff_check(lambda n: fo.frobenius_sq(n[0]), [tc.leaf(a0)])
        assert err < 1e-9

    def test_constant_loss_zero_error(self):
        c = tc.leaf([[5.0]])
        err = fo.finite_diff_check(lambda n: fo.sum(fo.mul_elem(n[0], fo.scale(n[0], 0.0))), [c])
        assert err == 0.0

    def test_eps_domain(self):
        with pytest.raises(tc.DomainError):
            fo.finite_diff_check(lambda n: fo.sum(n[0]), [tc.leaf([[1.0]])], eps=1e-2)

    def test_nonfinite_loss_propagates(self):
        def loss(n):
            return fo.log(fo.scale(n[0], -1.0))

        with pytest.raises((tc.NumericError, tc.DomainError)):
            fo.finite_diff_check(loss, [tc.leaf([[1.0]])])


class TestCentralDifferenceError:
    @staticmethod
    def _params():
        return init_params([6, 5], 4, seed=21, num_layers=2)

    def test_every_array_restored_bit_for_bit(self):
        params = self._params()
        arrays = params.arrays
        assert {n.split("/")[0] for n in arrays} == {"d_init", "r", "u", "theta", "m", "rho"}
        before = {n: a.tobytes() for n, a in arrays.items()}

        def loss():
            return float(np.sum([np.sum(a * a) for a in params.arrays.values()]))

        for name, a in arrays.items():
            assert tc.central_difference_error(loss, a, 2.0 * a) < 1e-6
        assert {n: a.tobytes() for n, a in params.arrays.items()} == before
        # stepping +eps, -2 eps, +eps would not give these entries back
        eps = 1e-5
        assert any(((x + eps) - 2 * eps) + eps != x for a in arrays.values() for x in a.flat)

    def test_theta_view_reaches_the_loss(self):
        params = self._params()
        theta = params.arrays["theta/1/0"]

        def loss():  # the threshold as the forward pass binds it
            return _bind_params(params)["theta/1/0"].item()

        assert tc.central_difference_error(loss, theta, np.ones((1, 1))) < 1e-9
        assert tc.central_difference_error(loss, theta, np.zeros((1, 1))) > 0.99

    def test_prefix_checks_only_leading_entries(self):
        a = np.arange(6.0).reshape(2, 3)
        calls = []

        def loss():
            calls.append(a.copy())
            return float(np.sum(a * a))

        assert tc.central_difference_error(loss, a, (2.0 * a).reshape(-1)[:2]) < 1e-9
        assert len(calls) == 4
        assert [np.flatnonzero(c != np.arange(6.0).reshape(2, 3)).tolist() for c in calls] == [
            [0], [0], [1], [1]
        ]

    def test_nan_loss_raises_numeric_error(self):
        a = np.array([[0.0, 1.0]])

        def loss():
            with np.errstate(invalid="ignore"):
                return float(np.log(a[0, 0]))

        with pytest.raises(tc.NumericError):
            tc.central_difference_error(loss, a, np.zeros((1, 2)))
        assert a.tobytes() == np.array([[0.0, 1.0]]).tobytes()

    def test_nan_gradient_raises_numeric_error(self):
        # max() would skip a NaN error and report the other entries' error
        a = np.ones((1, 2))
        with pytest.raises(tc.NumericError, match="entry 1"):
            tc.central_difference_error(lambda: float(a.sum()), a, np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("eps", [1e-2, 2e-3, 5e-8, 0.0, -1e-5])
    def test_eps_outside_domain_raises(self, eps):
        def loss():
            raise AssertionError("loss must not be called")

        with pytest.raises(tc.DomainError, match="eps"):
            tc.central_difference_error(loss, np.ones((1, 1)), np.ones((1, 1)), eps)

    @pytest.mark.parametrize("eps", [1e-7, 1e-3])
    def test_eps_domain_bounds_accepted(self, eps):
        a = np.ones((1, 1))
        assert tc.central_difference_error(lambda: float(a[0, 0]), a, np.ones((1, 1)), eps) < 1e-6


def test_public_names_are_the_custom_op_tape():
    # the fine-grained ops live in the test tree (fine_ops); the package
    # differentiates only through leaves and custom ops
    defined = {
        name for name, value in vars(tc).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == tc.__name__
    }
    assert defined == {
        "ShapeError", "DomainError", "NumericError", "matrix", "DiffNode", "leaf",
        "backward", "value_of", "custom_op", "check_same_shape", "check_scalar", "dot",
        "central_difference_error",
    }


def test_backward_requires_scalar_root():
    with pytest.raises(tc.ShapeError):
        tc.backward(tc.leaf(np.zeros((2, 2))))


def test_all_ops_match_finite_differences_random():
    # composite graph touching every differentiable op at once
    rng = np.random.default_rng(15)
    a0 = rng.normal(size=(4, 3)) + 0.1
    b0 = rng.normal(size=(3, 3))

    def loss(n):
        a, b = n
        m = fo.matmul(a, b)
        s = fo.soft_threshold(m, tc.leaf([[0.3]]))
        g = fo.group_soft_threshold(s, tc.leaf([[0.2]]))
        p = fo.row_softmax(g)
        part1 = fo.sum(fo.log(p))
        part2 = fo.frobenius_sq(fo.relu(fo.sub(m, fo.transpose(fo.transpose(g)))))
        part3 = fo.sum(fo.row_l2_norms(fo.take_rows(m, [0, 2])))
        return fo.add(fo.add(part1, fo.scale(part2, 0.5)), part3)

    err = fo.finite_diff_check(loss, [tc.leaf(a0), tc.leaf(b0)])
    assert err < 1e-4

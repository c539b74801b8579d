import collections
import copy
import math
import re

import numpy as np
import pytest

import openviewer.tensor_core as tc
from openviewer import admm_oracle as ao
from openviewer import synthgen, unfold_net
from openviewer.losses import LossConfig, total_loss
from openviewer.pseudo_gen import MixConfig, generate_pseudo
from openviewer.unfold_net import (
    ABLATIONS,
    MIN_CENTROID_DISTANCE,
    FusionError,
    StateError,
    UnfoldParams,
    cd_forward,
    dn_forward,
    forward,
    fusion_weights,
    init_params,
    param_shapes,
    params_from_dict,
    params_to_dict,
    predict,
    rf_forward,
)

import fine_ops as fo
import fine_reference as ref
from helpers import analytic_params_from_oracle, batch_from_dataset, small_spec


def small_problem(seed=0, n=10, c=4, dims=(8, 6)):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n, d)) for d in dims]


class TestInitParams:
    def test_dictionary_closed_forms(self):
        # R, U, theta and rho follow from the network's own D and L = ||D D^T||
        cfg = ao.AdmmConfig(alpha=0.3, beta=0.5, gamma=0.9)
        params = init_params([7], 3, cfg, seed=0, num_layers=2)
        arrays = params.arrays
        d = arrays["d_init/0"]
        lp = ao.power_iteration_norm(d @ d.T)
        for l in range(2):
            assert np.array_equal(arrays[f"u/{l}/0"], np.eye(3) / lp)
            assert arrays[f"theta/{l}/0"][0, 0] == cfg.alpha / lp
        assert np.array_equal(arrays["r/1/0"], np.eye(3) - (d @ d.T) / lp)
        assert arrays["rho/0/0"][0, 0] == cfg.gamma / lp
        assert np.array_equal(arrays["m/0/0"], np.eye(3) / (cfg.beta + unfold_net.INIT_RIDGE))

    def test_u_diagonal_at_init(self):
        params = init_params([9, 7], 4, seed=1)
        for v in range(2):
            u = params.arrays[f"u/0/{v}"]
            assert np.allclose(u, np.diag(np.diag(u)))
            assert np.allclose(np.diag(u), np.diag(u)[0])

    def test_spectral_norm_matches_eigensolver(self):
        rng = np.random.default_rng(2)
        sym = rng.normal(size=(5, 5))
        sym = sym @ sym.T
        expected = float(np.linalg.eigvalsh(sym).max())
        assert ao.power_iteration_norm(sym) == pytest.approx(expected, rel=1e-8)

    def test_gaussian_rows_are_normalized(self):
        params = init_params([9], 4, seed=3)
        norms = np.linalg.norm(params.arrays["d_init/0"], axis=1)
        assert np.allclose(norms, 1.0)



class TestModules:
    def test_rf_zero_state_reduction(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 6))
        d = rng.normal(size=(3, 6))
        out = rf_forward(
            tc.leaf(np.zeros((5, 3))),
            tc.leaf(x),
            None,
            tc.leaf(d),
            tc.leaf(rng.normal(size=(3, 3))),
            tc.leaf(np.eye(3)),
            tc.leaf([[0.0]]),
        )
        assert np.allclose(out.value, x @ d.T, atol=1e-14)

    def test_rf_huge_threshold_zeroes(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 6))
        d = rng.normal(size=(3, 6))
        out = rf_forward(
            tc.leaf(np.zeros((4, 3))), tc.leaf(x), None, tc.leaf(d),
            tc.leaf(np.eye(3)), tc.leaf(np.eye(3)), tc.leaf([[1e6]]),
        )
        assert np.array_equal(out.value, np.zeros((4, 3)))

    def test_cd_zero_code_and_zero_residual(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 6))
        m = tc.leaf(rng.normal(size=(3, 3)))
        zero_code = cd_forward(tc.leaf(np.zeros((5, 3))), tc.leaf(x), None, m)
        assert np.array_equal(zero_code.value, np.zeros((3, 6)))
        z = tc.leaf(rng.normal(size=(5, 3)))
        zero_resid = cd_forward(z, tc.leaf(x), tc.leaf(x), m)
        assert np.array_equal(zero_resid.value, np.zeros((3, 6)))

    def test_dn_reductions(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(5, 3))
        d = rng.normal(size=(3, 6))
        x = z @ d
        out = dn_forward(tc.leaf(x), tc.leaf(z), tc.leaf(d), tc.leaf([[2.0]]))
        assert np.allclose(out.value, 0.0, atol=1e-12)
        x2 = rng.normal(size=(5, 6))
        out2 = dn_forward(tc.leaf(x2), tc.leaf(z), tc.leaf(d), tc.leaf([[0.0]]))
        assert np.array_equal(out2.value, x2 - z @ d)

    def test_modules_match_oracle_single_steps(self):
        x_views = small_problem(seed=8)
        cfg = ao.AdmmConfig(alpha=0.2, beta=0.4, gamma=0.7, seed=8)
        state = ao.init_state(x_views, cfg, code_dim=4)
        # run one half-iteration at a random (z, e) point for a stronger check
        rng = np.random.default_rng(9)
        state.z = [rng.normal(size=z.shape) for z in state.z]
        state.e = [rng.normal(size=e.shape) * 0.2 for e in state.e]

        z_next = ao.z_step(state, x_views, cfg)
        for v in range(2):
            lp = state.l_p[v]
            r = np.eye(4) - (state.d[v] @ state.d[v].T) / lp
            out = rf_forward(
                tc.leaf(state.z[v]), tc.leaf(x_views[v]), tc.leaf(state.e[v]),
                tc.leaf(state.d[v]), tc.leaf(r), tc.leaf(np.eye(4) / lp),
                tc.leaf([[cfg.alpha / lp]]),
            )
            assert np.max(np.abs(out.value - z_next.z[v])) <= 1e-12

        d_next = ao.d_step(z_next, x_views, cfg)
        for v in range(2):
            m = np.linalg.inv(z_next.z[v].T @ z_next.z[v] + cfg.beta * np.eye(4))
            out = cd_forward(
                tc.leaf(z_next.z[v]), tc.leaf(x_views[v]),
                tc.leaf(state.e[v]), tc.leaf(m),
            )
            assert np.max(np.abs(out.value - d_next.d[v])) <= 1e-10

        e_next = ao.e_step(d_next, x_views, cfg)
        for v in range(2):
            out = dn_forward(
                tc.leaf(x_views[v]), tc.leaf(d_next.z[v]), tc.leaf(d_next.d[v]),
                tc.leaf([[cfg.gamma / d_next.l_p[v]]]),
            )
            assert np.max(np.abs(out.value - e_next.e[v])) <= 1e-12


def all_pairs_fusion_weights(z_views, labels):
    """Reference: every centroid pair on the tape, minimum kept by strict <."""
    labels = np.asarray(labels, dtype=np.int64)
    groups = np.unique(labels)
    averaging = np.zeros((groups.size, labels.size))
    for gi, g in enumerate(groups):
        rows = labels == g
        averaging[gi, rows] = 1.0 / rows.sum()
    avg_node = tc.leaf(averaging)
    min_dists = []
    for z in z_views:
        centroids = fo.matmul(avg_node, z)
        best = None
        for i in range(groups.size):
            for j in range(i + 1, groups.size):
                diff = fo.sub(fo.take_rows(centroids, [i]), fo.take_rows(centroids, [j]))
                dsq = fo.frobenius_sq(diff)
                if best is None or dsq.value[0, 0] < best.value[0, 0]:
                    best = dsq
        min_dists.append(fo.sqrt(fo.clamp_min(best, MIN_CENTROID_DISTANCE**2)))
    dvec = fo.hstack(min_dists)
    inv = fo.reciprocal(dvec)
    dbar = fo.mul_scalar_node(inv, fo.reciprocal(fo.sum(inv)))
    return fo.row_softmax(fo.scale(dbar, -1.0))


def fusion_value_and_grads(fn, codes, labels, probe):
    """Weights from `fn` and the gradients of <w, probe> in every code view."""
    leaves = [tc.leaf(z) for z in codes]
    w = fn(leaves, labels)
    tc.backward(fo.sum(fo.mul_elem(w, tc.leaf(probe))))
    return w.value, [leaf.grad for leaf in leaves]


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _codes_with_centroids(centroids, rows_per_class, rng):
    """Rows scattered around the given class centroids. With power-of-two
    row counts and integer offsets every centroid is computed exactly."""
    labels, rows = [], []
    for g, (c, n) in enumerate(zip(centroids, rows_per_class)):
        offsets = rng.integers(-3, 4, size=(n, len(c))).astype(float)
        offsets -= offsets.mean(axis=0)
        rows.append(np.asarray(c, dtype=float) + offsets)
        labels += [g] * n
    return np.vstack(rows), np.array(labels)


class TestFusionMinimumPair:
    def _assert_matches_reference(self, codes, labels, seed=0):
        probe = np.random.default_rng(seed).normal(size=(1, len(codes)))
        w, grads = fusion_value_and_grads(fusion_weights, codes, labels, probe)
        for reference in (all_pairs_fusion_weights, ref.fusion_weights):
            w_ref, grads_ref = fusion_value_and_grads(reference, codes, labels, probe)
            assert same_bits(w, w_ref)
            for g, g_ref in zip(grads, grads_ref):
                assert same_bits(g, g_ref)
        return grads

    @pytest.mark.parametrize("cols", [3, 5, 12])
    def test_random_codes_bitwise(self, cols):
        rng = np.random.default_rng(cols)
        for _ in range(10):
            labels = rng.integers(0, 6, size=40)
            codes = [rng.normal(size=(40, cols)) for _ in range(3)]
            self._assert_matches_reference(codes, labels, seed=cols)

    def test_exact_tie_first_pair_wins(self):
        # 1-D centroids 0, 3, 4, 5: pairs (1, 2) and (2, 3) tie at distance 1
        rng = np.random.default_rng(20)
        z, labels = _codes_with_centroids([[0.0], [3.0], [4.0], [5.0]], [4, 2, 4, 2], rng)
        assert [z[labels == g].mean() for g in range(4)] == [0.0, 3.0, 4.0, 5.0]
        other = rng.normal(size=z.shape)
        grads = self._assert_matches_reference([z, other], labels)
        # the subgradient comes from pair (1, 2) only: classes 0 and 3 get none
        assert np.any(grads[0][labels == 1] != 0.0)
        assert np.any(grads[0][labels == 2] != 0.0)
        assert np.all(grads[0][(labels == 0) | (labels == 3)] == 0.0)

    def test_coincident_centroids_clamped(self):
        rng = np.random.default_rng(21)
        z, labels = _codes_with_centroids([[1.0, 2.0], [1.0, 2.0], [4.0, 0.0]], [2, 4, 2], rng)
        other = rng.normal(size=z.shape)
        grads = self._assert_matches_reference([z, other], labels)
        # distance 0 sits below the clamp floor, so no gradient reaches the view
        assert np.all(grads[0] == 0.0)

    def test_node_count_does_not_grow_with_groups(self):
        rng = np.random.default_rng(22)

        def nodes_created(groups):
            labels = np.arange(48) % groups
            codes = [tc.leaf(rng.normal(size=(48, 4))) for _ in range(2)]
            start = next(tc._NODE_COUNTER)
            fusion_weights(codes, labels)
            return next(tc._NODE_COUNTER) - start

        assert nodes_created(3) == nodes_created(12)


def signed_zeros(a, rng):
    """`a` with about half its entries set to 0.0 or -0.0."""
    a = a.copy()
    mask = rng.random(a.shape) < 0.5
    a[mask] = rng.choice([0.0, -0.0], size=int(mask.sum()))
    return a


class TestFusionGrouping:
    """The sort-and-search grouping and the cached pair table give the bits
    of the former `np.unique` / `np.triu_indices` grouping."""

    def test_grouping_matches_unique(self):
        rng = np.random.default_rng(40)
        for n in [0, 1, 2, 5, 30] * 20:
            labels = rng.integers(-5, 6, size=n)
            ours = unfold_net._group_rows(labels)
            theirs = np.unique(labels, return_inverse=True, return_counts=True)
            for a, b in zip(ours, theirs):
                assert a.dtype == b.dtype and same_bits(a, b)

    def test_pair_table_cached_and_read_only(self):
        first, second = unfold_net._pairs(6)
        assert unfold_net._pairs(6)[0] is first
        assert not first.flags.writeable and not second.flags.writeable
        expected = np.triu_indices(6, k=1)
        assert same_bits(first, expected[0]) and same_bits(second, expected[1])

    def test_random_cases_bitwise(self):
        rng = np.random.default_rng(41)
        refused = 0
        for case in range(3000):
            # sparse and negative ids, groups of one row, all-zero and signed-zero codes
            ids = rng.choice(np.arange(-6, 30), size=int(rng.integers(1, 7)), replace=False)
            labels = ids[rng.integers(ids.size, size=int(rng.integers(1, 16)))]
            shape = (labels.size, int(rng.integers(1, 5)))
            codes = [rng.normal(size=shape), rng.normal(size=shape)]
            if case % 3 == 1:
                codes = [np.zeros_like(codes[0]), codes[1] * 3.0]
            elif case % 3 == 2:
                codes = [signed_zeros(z, rng) for z in codes]
            probe = rng.normal(size=(1, 2))
            try:
                w_ref, grads_ref = fusion_value_and_grads(ref.fusion_weights_unique, codes,
                                                          labels, probe)
            except FusionError as exc:
                with pytest.raises(FusionError, match=re.escape(str(exc))):
                    fusion_weights([tc.leaf(z) for z in codes], labels)
                refused += 1
                continue
            w, grads = fusion_value_and_grads(fusion_weights, codes, labels, probe)
            assert same_bits(w, w_ref), case
            for g, g_ref in zip(grads, grads_ref):
                assert same_bits(g, g_ref), case
        assert 0 < refused < 1000


class TestFusionWeights:
    def test_equal_distances_uniform(self):
        z = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
        labels = [0, 1, 0, 1]
        w = fusion_weights([tc.leaf(z), tc.leaf(z)], labels)
        assert np.allclose(w.value, [[0.5, 0.5]], atol=1e-15)

    def test_hand_case_distances_one_and_two(self):
        # view centroids 1 apart vs 2 apart; independent scalar evaluation
        z1 = np.array([[0.0], [1.0]])
        z2 = np.array([[0.0], [2.0]])
        w = fusion_weights([tc.leaf(z1), tc.leaf(z2)], [0, 1])
        inv = np.array([1.0, 0.5])
        dbar = inv / inv.sum()
        expected = np.exp(-dbar) / np.exp(-dbar).sum()
        assert np.allclose(w.value.ravel(), expected, atol=1e-12)
        assert w.value.ravel() == pytest.approx([0.4174, 0.5826], abs=5e-5)

    def test_similar_separations_near_balanced(self):
        # two views whose class separations differ mildly end up with
        # near-balanced weights (reference heatmap run: 0.5132 / 0.4868)
        z1 = np.array([[0.0], [1.0]])
        z2 = np.array([[0.0], [1.1]])
        w = fusion_weights([tc.leaf(z1), tc.leaf(z2)], [0, 1]).value.ravel()
        assert abs(w[0] - w[1]) < 0.1
        assert w[1] > w[0]  # the better-separated view gets more weight

    def test_simplex_invariant(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            z_views = [tc.leaf(rng.normal(size=(8, 3))) for _ in range(3)]
            labels = rng.integers(0, 3, size=8)
            if np.unique(labels).size < 2:
                continue
            w = fusion_weights(z_views, labels).value.ravel()
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w >= 0)

    def test_single_label_rejected(self):
        with pytest.raises(FusionError):
            fusion_weights([tc.leaf(np.zeros((3, 2)))], [1, 1, 1])

    def test_weights_differentiable(self):
        rng = np.random.default_rng(11)
        z0 = rng.normal(size=(6, 3))
        labels = np.array([0, 0, 1, 1, 2, 2])

        def loss(nodes):
            w = fusion_weights(nodes, labels)
            return fo.frobenius_sq(w)

        err = fo.finite_diff_check(loss, [tc.leaf(z0), tc.leaf(z0 + 1.0)])
        assert err < 1e-5


class TestForward:
    def test_layer1_uniform_closed_form(self):
        dataset, _ = synthgen.generate(small_spec())
        batch = batch_from_dataset(dataset, range(10))
        cfg = ao.AdmmConfig()
        params = init_params(dataset.view_dims, dataset.class_count, cfg, seed=0)
        res = forward(batch, params)
        expected = np.zeros((10, dataset.class_count))
        for v in range(dataset.n_views):
            d = params.arrays[f"d_init/{v}"]
            lp = ao.power_iteration_norm(d @ d.T)
            pre = batch.views[v] @ d.T @ (np.eye(dataset.class_count) / lp)
            shrunk = np.sign(pre) * np.maximum(np.abs(pre) - params.arrays[f"theta/0/{v}"], 0.0)
            expected += shrunk / dataset.n_views
        assert np.max(np.abs(res.z_fused.value - expected)) < 1e-12

    def test_identical_views_uniform_weights(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 8))
        params = init_params([8, 8], 3, seed=13)
        for kind in ("d_init", "u/0", "theta/0"):
            params.arrays[f"{kind}/1"][...] = params.arrays[f"{kind}/0"]
        from openviewer.dataset import Batch

        batch = Batch(views=[x, x.copy()], labels=np.zeros(6, dtype=np.int64),
                      is_pseudo=np.zeros(6, dtype=bool))
        res = forward(batch, params)
        # identical view states under uniform weights: fused equals either view
        assert np.allclose(res.z_fused.value, res.trace[-1].z[0], atol=1e-12)
        assert np.allclose(res.trace[-1].z[0], res.trace[-1].z[1], atol=1e-12)

    @pytest.mark.parametrize("layers", [1, 2, 4, 5])
    def test_full_stack_matches_oracle_iterations(self, layers):
        x_views = small_problem(seed=14, n=12, c=5, dims=(9, 7))
        cfg = ao.AdmmConfig(alpha=0.15, beta=0.4, gamma=0.6, seed=14)
        params, snapshots = analytic_params_from_oracle(x_views, cfg, 5, layers)
        from openviewer.dataset import Batch

        batch = Batch(views=x_views, labels=np.zeros(12, dtype=np.int64),
                      is_pseudo=np.zeros(12, dtype=bool))
        res = forward(batch, params)
        # the last layer runs RF only: its trace holds the D and E it read
        for l in range(layers):
            for v in range(2):
                assert np.max(np.abs(res.trace[l].z[v] - snapshots[l]["z"][v])) <= 1e-10
                if l < layers - 1:
                    assert np.max(np.abs(res.trace[l].d[v] - snapshots[l]["d"][v])) <= 1e-10
                    assert np.max(np.abs(res.trace[l].e[v] - snapshots[l]["e"][v])) <= 1e-10

    def test_contraction_of_rf_map(self):
        rng = np.random.default_rng(15)
        params = init_params([9], 4, seed=15, num_layers=2)
        r = params.arrays["r/1/0"]
        norm_r = math.sqrt(ao.power_iteration_norm(r.T @ r))
        assert norm_r < 1.0
        x = rng.normal(size=(6, 9))
        offs = tc.leaf(x)
        d, theta, u = (tc.leaf(params.arrays[n]) for n in ("d_init/0", "theta/1/0", "u/1/0"))
        rn = tc.leaf(r)
        for _ in range(50):
            za, zb = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
            fa = rf_forward(tc.leaf(za), offs, None, d, rn, u, theta).value
            fb = rf_forward(tc.leaf(zb), offs, None, d, rn, u, theta).value
            lhs = np.linalg.norm(fa - fb)
            assert lhs <= norm_r * np.linalg.norm(za - zb) + 1e-9

    def test_forward_deterministic(self):
        dataset, _ = synthgen.generate(small_spec())
        batch = batch_from_dataset(dataset, range(8))
        params = init_params(dataset.view_dims, dataset.class_count, seed=2, num_layers=2)
        a = forward(batch, params, labels_for_fusion=batch.labels)
        b = forward(batch, params, labels_for_fusion=batch.labels)
        assert np.array_equal(a.z_fused.value, b.z_fused.value)
        assert np.array_equal(a.weights, b.weights)

    def test_inference_without_snapshot_raises(self):
        dataset, _ = synthgen.generate(small_spec())
        params = init_params(dataset.view_dims, dataset.class_count, seed=0)
        batch = batch_from_dataset(dataset, range(6))
        with pytest.raises(StateError):
            forward(batch, params, inference=True)

    def test_inference_uses_snapshot(self):
        dataset, _ = synthgen.generate(small_spec())
        params = init_params(dataset.view_dims, dataset.class_count, seed=0)
        params.fusion_weights_snapshot = np.array([0.3, 0.7])
        batch = batch_from_dataset(dataset, range(6))
        res = forward(batch, params, inference=True)
        manual = 0.3 * res.trace[-1].z[0] + 0.7 * res.trace[-1].z[1]
        assert np.allclose(res.z_fused, manual, atol=1e-14)

    def test_ablations_change_structure(self):
        dataset, _ = synthgen.generate(small_spec())
        batch = batch_from_dataset(dataset, range(8))
        base = init_params(dataset.view_dims, dataset.class_count, seed=1, num_layers=2)
        full = forward(batch, base, labels_for_fusion=batch.labels)
        for mode in ("no_cd_dn", "no_dn"):
            p = init_params(dataset.view_dims, dataset.class_count, seed=1,
                            num_layers=2, ablation=mode)
            res = forward(batch, p, labels_for_fusion=batch.labels)
            assert not np.allclose(res.z_fused.value, full.z_fused.value)
            assert not np.any(res.trace[-1].e[0])
            if mode == "no_cd_dn":
                assert np.array_equal(res.trace[-1].d[0], p.arrays["d_init/0"])


class TestGraphReach:
    """A forward builds only what can reach its output."""

    def test_rf_without_code_matches_zero_code_bitwise(self):
        rng = np.random.default_rng(16)
        inputs = [rng.normal(size=(5, 6)), 0.3 * rng.normal(size=(5, 6)),
                  rng.normal(size=(3, 6)), rng.normal(size=(3, 3)), [[0.4]]]
        r = rng.normal(size=(3, 3))
        results = []
        for z_prev in (None, tc.leaf(np.zeros((5, 3)))):
            x, e, d, u, theta = (tc.leaf(a) for a in inputs)
            out = rf_forward(z_prev, x, e, d, tc.leaf(r), u, theta)
            tc.backward(fo.frobenius_sq(out))
            results.append((out.value, [n.grad for n in (x, e, d, u, theta)]))
        (skip, skip_grads), (zero, zero_grads) = results
        assert np.count_nonzero(skip) and np.count_nonzero(skip_grads[-1])
        assert np.array_equal(skip, zero)
        for a, b in zip(skip_grads, zero_grads):
            assert np.array_equal(a, b)

    def _labelled(self, layers):
        dataset, _ = synthgen.generate(small_spec())
        batch = batch_from_dataset(dataset, range(0, 40, 3))
        params = init_params(dataset.view_dims, dataset.class_count, seed=3,
                             num_layers=layers, expected_rows=14)
        return batch, params

    @pytest.mark.parametrize("layers", [1, 2, 4])
    def test_labelled_forward_fuses_once(self, layers, monkeypatch):
        calls = []
        real = unfold_net.fusion_weights

        def counting(z_views, labels):
            calls.append(len(z_views))
            return real(z_views, labels)

        monkeypatch.setattr(unfold_net, "fusion_weights", counting)
        batch, params = self._labelled(layers)
        forward(batch, params, labels_for_fusion=batch.labels)
        assert calls == [2]

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_every_named_array_gets_a_gradient(self, layers):
        batch, params = self._labelled(layers)
        res = forward(batch, params, labels_for_fusion=batch.labels)
        node, _ = total_loss(res.z_fused, batch.labels, batch.is_pseudo, np.zeros((5, 5)),
                             LossConfig())
        tc.backward(node)
        assert res.grad.shape == params.flat.shape
        grads = unfold_net._views(res.grad, params.shapes())
        assert [n for n, g in grads.items() if not np.any(g)] == []

    def test_fusion_nodes_do_not_grow_with_layers(self):
        def nodes_made(batch, params, labels):
            start = next(tc._NODE_COUNTER)
            forward(batch, params, labels_for_fusion=labels)
            return next(tc._NODE_COUNTER) - start - 1

        extra = []
        for layers in (1, 2, 4):
            batch, params = self._labelled(layers)
            extra.append(nodes_made(batch, params, batch.labels)
                         - nodes_made(batch, params, None))
        assert extra[0] > 0
        assert extra == [extra[0]] * 3


class TestPredict:
    def test_confident_row(self):
        classes, conf = predict(np.array([[10.0, 0.0, 0.0]]))
        assert classes[0] == 0
        assert conf[0] == pytest.approx(1.0 / (1.0 + 2.0 * math.exp(-10.0)), rel=1e-12)
        assert conf[0] == pytest.approx(0.99991, abs=1e-5)

    def test_tie_breaks_to_smaller_index(self):
        classes, conf = predict(np.zeros((1, 3)))
        assert classes[0] == 0
        assert conf[0] == pytest.approx(1.0 / 3.0)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(16)
        z = rng.normal(size=(7, 5)) * 10
        shifted = z - z.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)


class TestNamedParams:
    def test_bind_order_and_shapes(self):
        params = init_params([9, 7], 4, seed=3, num_layers=2)
        names = list(params.arrays)
        # layer 0 has no R, layer 1 (the last) no M or rho
        assert names == ["d_init/0", "d_init/1",
                         "u/0/0", "theta/0/0", "m/0/0", "rho/0/0",
                         "u/0/1", "theta/0/1", "m/0/1", "rho/0/1",
                         "r/1/0", "u/1/0", "theta/1/0", "r/1/1", "u/1/1", "theta/1/1"]
        shapes = {name: a.shape for name, a in params.arrays.items()}
        assert shapes == param_shapes([9, 7], 4, 2)
        assert shapes["d_init/1"] == (4, 7)
        assert shapes["m/0/1"] == shapes["r/1/1"] == (4, 4)
        assert shapes["theta/1/0"] == shapes["rho/0/1"] == (1, 1)
        assert [len(param_shapes([9, 7], 4, l)) for l in (1, 3)] == [6, 26]
        assert [len(param_shapes([9, 7], 4, 3, mode)) for mode in ABLATIONS] == [26, 18, 22]
        # arrays given in any order are kept in bind order
        again = UnfoldParams([9, 7], 4, 2, dict(sorted(params.arrays.items())))
        assert list(again.arrays) == names

    def test_writes_reach_the_parameter_set(self):
        params = init_params([9, 7], 4, seed=3, num_layers=2)
        # construction copies the arrays into the set's own vector, in bind order
        again = UnfoldParams([9, 7], 4, 2, dict(params.arrays))
        assert not np.shares_memory(again.flat, params.flat)
        assert same_bits(again.flat, np.concatenate([a.ravel() for a in params.arrays.values()]))
        # writes through `arrays` reach `flat` and the next bind
        again.arrays["theta/1/0"][0, 0] = 0.25
        again.arrays["r/1/1"][2, 3] = 7.0
        assert 0.25 in again.flat and 7.0 in again.flat
        assert params.arrays["theta/1/0"][0, 0] != 0.25
        bound, grad = unfold_net._bind_params(again)
        assert bound["theta/1/0"].item() == 0.25
        assert bound["r/1/1"].value[2, 3] == 7.0
        # each leaf's gradient is its slice of one zero vector in `flat`'s layout
        assert same_bits(grad, np.zeros_like(again.flat))
        bound["r/1/1"].grad[2, 3] = 1.0
        assert np.flatnonzero(grad).tolist() == np.flatnonzero(again.flat == 7.0).tolist()
        # the bound values are a copy: a later write leaves the tape as it was
        again.flat[:] = 0.0
        assert bound["theta/1/0"].item() == 0.25

    def test_deep_copy_views_its_own_vector(self):
        params = init_params([9, 7], 4, seed=3, num_layers=2)
        params.fusion_weights_snapshot = np.array([0.4, 0.6])
        clone = copy.deepcopy(params)
        assert same_bits(clone.flat, params.flat)
        assert not np.shares_memory(clone.flat, params.flat)
        for name, a in clone.arrays.items():
            assert np.shares_memory(a, clone.flat), name
            assert same_bits(a, params.arrays[name]), name
        assert not np.shares_memory(clone.fusion_weights_snapshot, params.fusion_weights_snapshot)
        clone.arrays["u/0/1"][0, 0] += 1.0
        assert np.count_nonzero(clone.flat != params.flat) == 1
        bound, _ = unfold_net._bind_params(clone)
        assert bound["u/0/1"].value[0, 0] == params.arrays["u/0/1"][0, 0] + 1.0

    def test_forward_reads_exactly_the_layout(self, monkeypatch):
        reads = []

        class Recording(dict):
            def __getitem__(self, name):
                reads.append(name)
                return super().__getitem__(name)

        def recording_bind(params, _bind=unfold_net._bind_params):
            nodes, grad = _bind(params)
            return Recording(nodes), grad

        monkeypatch.setattr(unfold_net, "_bind_params", recording_bind)
        dataset, _ = synthgen.generate(small_spec())
        batch = batch_from_dataset(dataset, range(0, 40, 4))
        dims, classes = dataset.view_dims, dataset.class_count
        for mode in ABLATIONS:
            for layers in (1, 2, 3):
                params = init_params(dims, classes, seed=4, num_layers=layers, ablation=mode)
                reads.clear()
                forward(batch, params, labels_for_fusion=batch.labels)
                assert reads == list(param_shapes(dims, classes, layers, mode)), (mode, layers)

    def test_modules_run_where_the_layout_holds_their_parameters(self, monkeypatch):
        # each call is placed by the parameter it reads: RF its u, CD its m, DN its rho
        calls = []
        placed_by = {"rf_forward": 5, "cd_forward": 3, "dn_forward": 3}
        for op in placed_by:
            def counted(*args, _run=getattr(unfold_net, op), _op=op):
                calls.append((_op, args))
                return _run(*args)
            monkeypatch.setattr(unfold_net, op, counted)
        binds = []

        def recording_bind(params, _bind=unfold_net._bind_params):
            binds.append(_bind(params))
            return binds[-1]

        monkeypatch.setattr(unfold_net, "_bind_params", recording_bind)
        dataset, _ = synthgen.generate(small_spec())
        batch = batch_from_dataset(dataset, range(0, 40, 4))
        dims, classes, views = dataset.view_dims, dataset.class_count, dataset.n_views
        module_of = {"u": "rf_forward", "r": "z_r", "m": "cd_forward", "rho": "dn_forward"}
        for mode in ABLATIONS:
            for layers in (1, 2, 3):
                params = init_params(dims, classes, seed=4, num_layers=layers, ablation=mode)
                params.fusion_weights_snapshot = np.full(views, 1.0 / views)
                for inference in (False, True):
                    calls.clear()
                    res = forward(batch, params, labels_for_fusion=batch.labels,
                                  inference=inference)
                    bound = params.arrays if inference else binds[-1][0]
                    name_of = {id(a): name for name, a in bound.items()}
                    ran = collections.Counter()
                    for op, args in calls:
                        _, l, v = name_of[id(args[placed_by[op]])].split("/")
                        ran[op, int(l), int(v)] += 1
                        if op == "rf_forward" and args[4] is not None:
                            assert args[0] is not None  # Z R reads the previous code
                            ran["z_r", int(l), int(v)] += 1
                    expected = collections.Counter()
                    for name in param_shapes(dims, classes, layers, mode):
                        kind, *index = name.split("/")
                        if kind in module_of:
                            expected[(module_of[kind], *map(int, index))] += 1
                    assert ran == expected, (mode, layers, inference)
                    totals = collections.Counter(op for op, *_ in ran.elements())
                    inner = (layers - 1) * views
                    assert totals == collections.Counter({
                        "rf_forward": layers * views, "z_r": inner,
                        "cd_forward": 0 if mode == "no_cd_dn" else inner,
                        "dn_forward": inner if mode == "full" else 0,
                    }), (mode, layers, inference)


class TestSerialization:
    def test_roundtrip(self):
        params = init_params([9, 7], 4, seed=17, num_layers=2)
        params.fusion_weights_snapshot = np.array([0.4, 0.6])
        again = params_from_dict(params_to_dict(params))
        assert params_to_dict(again) == params_to_dict(params)

    def test_gradcheck_through_forward_and_fusion(self):
        dataset, _ = synthgen.generate(small_spec(jitter=0.3))
        batch = batch_from_dataset(dataset, range(0, 40, 4))
        params = init_params(dataset.view_dims, dataset.class_count,
                             ao.AdmmConfig(alpha=0.1, gamma=0.5), seed=18, num_layers=2)

        def loss():
            out = forward(batch, params, labels_for_fusion=batch.labels)
            return float(np.sum(out.z_fused.value ** 2))

        # finite differences only (values flow through plain arrays); compare
        # against gradients taken on the bound parameter nodes directly, over
        # the first six entries of each checked parameter
        res = forward(batch, params, labels_for_fusion=batch.labels)
        tc.backward(fo.frobenius_sq(res.z_fused))
        arrays, grads = params.arrays, unfold_net._views(res.grad, params.shapes())
        for name in ("d_init/0", "r/1/0", "theta/0/1"):
            grad = grads[name]
            assert tc.central_difference_error(loss, arrays[name], grad.reshape(-1)[:6]) < 1e-4


def as_leaves(inputs):
    """Leaves for the array inputs; other inputs (None, strings) as given."""
    return [tc.leaf(a) if isinstance(a, np.ndarray) else a for a in inputs]


def op_value_and_grads(op, args, seed=0):
    """Value of `op(*args)` and the gradients of <out, probe> in every
    argument that is a node, None for the others."""
    out = op(*args)
    probe = np.random.default_rng(seed).normal(size=out.shape)
    tc.backward(fo.sum(fo.mul_elem(out, tc.leaf(probe))))
    return out.value, [a.grad if isinstance(a, tc.DiffNode) else None for a in args]


def assert_matches_fine_graph(op, reference, inputs, seed=0, data=None):
    """`op` on `as_leaves(inputs)` gives the value and gradients of the
    fine graph `reference`, bit for bit. The input at position `data` enters
    `op` as plain data, as X does in the network; the fine graph, whose ops
    take nodes only, gets it as a leaf whose gradient is not compared."""
    args = as_leaves(inputs)
    if data is not None:
        args[data] = inputs[data]
    value, grads = op_value_and_grads(op, args, seed)
    ref_value, ref_grads = op_value_and_grads(reference, as_leaves(inputs), seed)
    if data is not None:
        ref_grads[data] = None
    assert same_bits(value, ref_value)
    assert [g is None for g in grads] == [g is None for g in ref_grads]
    for g, g_ref in zip(grads, ref_grads):
        assert g is None or same_bits(g, g_ref)
    return value, grads


def rf_inputs(rng, with_state, n=9, dim=7, c=4, theta=0.6):
    """(z_prev, x, e_prev, d, r, u, theta); z_prev and e_prev None unless
    `with_state`."""
    x = rng.normal(size=(n, dim))
    state = (rng.normal(size=(n, c)), 0.3 * rng.normal(size=(n, dim))) if with_state else (None, None)
    return [state[0], x, state[1], rng.normal(size=(c, dim)), rng.normal(size=(c, c)),
            rng.normal(size=(c, c)), np.array([[theta]])]


class TestModuleOps:
    """Each module is one tape op whose value and gradients in every input
    but the data X equal the fine-grained graph of `fine_reference` bit for
    bit."""

    @pytest.mark.parametrize("with_state", [False, True])
    def test_rf_matches_fine_graph(self, with_state):
        rng = np.random.default_rng(30)
        for trial in range(5):
            inputs = rf_inputs(rng, with_state)
            out, _ = assert_matches_fine_graph(rf_forward, ref.rf_forward, inputs, seed=trial,
                                              data=1)
            # both the dead zone and active entries are exercised
            assert np.any(out == 0.0) and np.any(out != 0.0)

    @pytest.mark.parametrize("with_state", [False, True])
    def test_cd_matches_fine_graph(self, with_state):
        rng = np.random.default_rng(31)
        for trial in range(5):
            z, x = rng.normal(size=(9, 4)), rng.normal(size=(9, 7))
            e = 0.3 * rng.normal(size=(9, 7)) if with_state else None
            inputs = [z, x, e, rng.normal(size=(4, 4))]
            assert_matches_fine_graph(cd_forward, ref.cd_forward, inputs, seed=trial, data=1)

    def test_dn_matches_fine_graph(self):
        rng = np.random.default_rng(32)
        for trial in range(5):
            x, z, d = rng.normal(size=(9, 7)), rng.normal(size=(9, 4)), rng.normal(size=(4, 7))
            norms = np.linalg.norm(x - z @ d, axis=0)
            rho = np.array([[np.median(norms)]])
            out, _ = assert_matches_fine_graph(
                dn_forward, ref.dn_forward, [x, z, d, rho], seed=trial, data=0
            )
            group_norms = np.linalg.norm(out, axis=0)
            assert np.any(group_norms == 0.0) and np.any(group_norms > 0.0)

    @pytest.mark.parametrize("views", [1, 2, 3])
    def test_weighted_sum_matches_fine_graph(self, views):
        rng = np.random.default_rng(33)
        codes = [rng.normal(size=(8, 5)) for _ in range(views)]
        w = rng.dirichlet(np.ones(views)).reshape(1, -1)

        def op(w, *z):
            return tc.custom_op(unfold_net._weighted_sum_kernel, w, *z)

        assert_matches_fine_graph(op, lambda w, *z: ref.weighted_sum(w, z), [w, *codes])

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("ablation", ["full", "no_dn", "no_cd_dn"])
    def test_training_graph_matches_fine_graph(self, layers, ablation):
        dataset, _ = synthgen.generate(small_spec(jitter=0.3))
        batch = batch_from_dataset(dataset, range(0, 40, 3))
        batch = generate_pseudo(batch, MixConfig(omega=2.0, pseudo_ratio=0.5),
                                np.random.default_rng(34), 5)
        params = init_params(dataset.view_dims, dataset.class_count,
                             ao.AdmmConfig(alpha=0.05, gamma=1.0), seed=35, num_layers=layers,
                             ablation=ablation, expected_rows=20)
        centers = np.random.default_rng(36).normal(size=(5, 5))
        cfg = LossConfig(xi=1.5, lambda1=0.3, lambda2=0.2)
        runs = []
        for fwd, loss in ((forward, total_loss), (ref.forward, ref.total_loss)):
            res = fwd(batch, params, labels_for_fusion=batch.labels)
            node, parts = loss(res.z_fused, batch.labels, batch.is_pseudo, centers, cfg)
            tc.backward(node)
            runs.append((res, node, parts))
        (res, node, parts), (res_ref, node_ref, parts_ref) = runs
        assert same_bits(node.value, node_ref.value) and parts == parts_ref
        assert same_bits(res.z_fused.value, res_ref.z_fused.value)
        assert same_bits(res.z_fused.grad, res_ref.z_fused.grad)
        assert same_bits(res.weights, res_ref.weights)
        ref_grads = unfold_net._views(res_ref.grad, params.shapes())
        for name, grad in unfold_net._views(res.grad, params.shapes()).items():
            assert same_bits(grad, ref_grads[name]), name

    def test_plain_arrays_give_plain_arrays(self):
        rng = np.random.default_rng(37)
        inputs = rf_inputs(rng, with_state=True)
        start = next(tc._NODE_COUNTER)
        out = rf_forward(*inputs)
        assert next(tc._NODE_COUNTER) == start + 1  # nothing recorded in between
        assert isinstance(out, np.ndarray)
        assert same_bits(out, rf_forward(*as_leaves(inputs)).value)

    def test_data_gets_no_gradient(self):
        # X is never learned: a leaf passed as X receives nothing, while E,
        # read in the same residual X - E, does
        z, x, e, d, r, u, theta = as_leaves(rf_inputs(np.random.default_rng(41), with_state=True))
        outs = (rf_forward(z, x, e, d, r, u, theta), cd_forward(z, x, e, r),
                dn_forward(x, z, d, theta))
        total = fo.frobenius_sq(outs[0])
        for out in outs[1:]:
            total = fo.add(total, fo.frobenius_sq(out))
        tc.backward(total)
        assert np.any(e.grad) and not np.any(x.grad)

    def test_finite_differences(self):
        # every input but the data X, which enters as a plain array
        rng = np.random.default_rng(38)
        rf_args = rf_inputs(rng, with_state=True)
        cd_args = [rng.normal(size=(6, 3)), rng.normal(size=(6, 5)), rng.normal(size=(6, 5)),
                   rng.normal(size=(3, 3))]
        dn_args = [rng.normal(size=(6, 5)), rng.normal(size=(6, 3)), rng.normal(size=(3, 5)),
                   np.array([[1.5]])]
        rf_x, cd_x, dn_x = rf_args.pop(1), cd_args.pop(1), dn_args.pop(0)
        cases = [
            (lambda z, *rest: rf_forward(z, rf_x, *rest), rf_args),
            (lambda z, *rest: cd_forward(z, cd_x, *rest), cd_args),
            (lambda *rest: dn_forward(dn_x, *rest), dn_args),
            (lambda w, z0, z1: tc.custom_op(unfold_net._weighted_sum_kernel, w, z0, z1),
             [np.array([[0.3, 0.7]]), rng.normal(size=(6, 3)), rng.normal(size=(6, 3))]),
        ]
        for op, inputs in cases:
            probe = tc.leaf(rng.normal(size=op(*inputs).shape))
            leaves = [tc.leaf(a) for a in inputs]
            err = fo.finite_diff_check(lambda n: fo.sum(fo.mul_elem(op(*n), probe)), leaves)
            assert err < 1e-4

    def test_negative_thresholds_raise(self):
        rng = np.random.default_rng(39)
        inputs = rf_inputs(rng, with_state=True, theta=-0.1)
        with pytest.raises(tc.DomainError, match="theta"):
            rf_forward(*inputs)
        with pytest.raises(tc.DomainError, match="theta"):
            rf_forward(*as_leaves(inputs))
        x, z, d = rng.normal(size=(6, 5)), rng.normal(size=(6, 3)), rng.normal(size=(3, 5))
        with pytest.raises(tc.DomainError, match="rho"):
            dn_forward(tc.leaf(x), tc.leaf(z), tc.leaf(d), tc.leaf([[-0.1]]))

    @pytest.mark.parametrize("case", ["rf", "cd", "dn", "sum", "fusion"])
    def test_shape_mismatch_names_both_shapes(self, case):
        rng = np.random.default_rng(40)
        leaf = lambda *shape: tc.leaf(rng.normal(size=shape))  # noqa: E731
        a, b = (6, 5), (6, 4)
        if case == "rf":  # x against e_prev
            args = (leaf(6, 3), leaf(*a), leaf(*b), leaf(3, 5), leaf(3, 3), leaf(3, 3),
                    tc.leaf([[0.1]]))
            op = rf_forward
        elif case == "cd":  # x against e_prev
            args, op = (leaf(6, 3), leaf(*a), leaf(*b), leaf(3, 3)), cd_forward
        elif case == "dn":  # x against Z D
            args, op = (leaf(*a), leaf(6, 3), leaf(3, 4), tc.leaf([[0.1]])), dn_forward
        elif case == "sum":  # view codes of different widths
            args = (np.array([[0.5, 0.5]]), leaf(*a), leaf(*b))
            op = lambda *n: tc.custom_op(unfold_net._weighted_sum_kernel, *n)  # noqa: E731
        else:  # centroid averaging over 6 labels against a 5-row code
            a, b = (2, 6), (5, 3)
            args, op = ([leaf(*b)], [0, 0, 0, 1, 1, 1]), fusion_weights
        with pytest.raises(tc.ShapeError) as info:
            op(*args)
        assert str(a) in str(info.value) and str(b) in str(info.value)


class TestTapeSize:
    def _labelled(self, layers=2):
        dataset, _ = synthgen.generate(small_spec())
        batch = batch_from_dataset(dataset, range(0, 40, 3))
        params = init_params(dataset.view_dims, dataset.class_count, seed=3,
                             num_layers=layers, expected_rows=14)
        params.fusion_weights_snapshot = np.array([0.45, 0.55])
        return batch, params

    def test_training_step_nodes(self):
        batch, params = self._labelled()
        centers = np.zeros((5, 5))
        start = next(tc._NODE_COUNTER)
        res = forward(batch, params, labels_for_fusion=batch.labels)
        total_loss(res.z_fused, batch.labels, batch.is_pseudo, centers, LossConfig())
        # 16 parameter leaves, RF, CD and DN per view in layer 0, RF per view
        # in layer 1, fusion, sum, loss: 27
        assert next(tc._NODE_COUNTER) - start - 1 <= 27

    @pytest.mark.parametrize("layers", [1, 2])
    def test_inference_records_nothing(self, layers):
        batch, params = self._labelled(layers)
        start = next(tc._NODE_COUNTER)
        res = forward(batch, params, inference=True)
        assert next(tc._NODE_COUNTER) == start + 1
        assert isinstance(res.z_fused, np.ndarray) and res.grad is None
        # the taped forward with the snapshot as constant weights
        w = params.fusion_weights_snapshot.reshape(1, -1)
        taped = forward(batch, params)
        z_views = [tc.leaf(z) for z in taped.trace[-1].z]
        expected = tc.custom_op(unfold_net._weighted_sum_kernel, w, *z_views).value
        assert same_bits(res.z_fused, expected)
        for mine, theirs in zip(res.trace, taped.trace):
            for a, b in zip(mine.z + mine.d + mine.e, theirs.z + theirs.d + theirs.e):
                assert same_bits(a, b)

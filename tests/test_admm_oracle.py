import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from openviewer import admm_oracle as ao
from openviewer import synthgen

import fine_reference as ref
from helpers import FIXTURES, small_spec

SRC = Path(__file__).resolve().parent.parent / "src"

# trains a tiny instance, scores it, solves it and runs the oracle CLI on
# a synthesized manifest: none of it may load scipy
NO_SCIPY_SCRIPT = '''
import json
import sys
from dataclasses import asdict
from openviewer import cli, evaluation, synthgen, trainer
from openviewer.admm_oracle import AdmmConfig, solve
from openviewer.dataset import openness_split
from openviewer.losses import LossConfig

spec = synthgen.SynthSpec(classes=5, samples_per_class=12, views=2, dims=(12, 10),
                          sep_scale=1.0, noise_col_frac=0.1, noise_magnitude=0.5,
                          jitter=0.08, seed=3)
dataset, _ = synthgen.generate(spec)
split = openness_split(dataset, 0.2, (0.5, 0.1, 0.4), seed=3)
config = trainer.TrainConfig(
    epochs=2, batch_size=16, learning_rate=0.02, layers=2, seed=3,
    loss=LossConfig(xi=0.3, lambda1=0.1, lambda2=0.1),
    admm=AdmmConfig(alpha=0.01, beta=0.1, gamma=2.0), threshold_step_scale=0.01,
)
params, centers, _ = trainer.train(dataset, split, config)
curve = evaluation.oscr_curve(evaluation.score_test_set(params, centers, dataset, split))
evaluation.summary(curve)
solve(dataset.views, AdmmConfig(max_iter=3), code_dim=4)
with open("spec.json", "w") as f:
    json.dump(asdict(spec), f)
assert cli.main(["synth", "--spec", "spec.json", "--out", "data", "--quiet"]) == 0
assert cli.main(["oracle", "--manifest", "data/manifest.json", "--out", "oracle", "--quiet"]) == 0
assert "scipy" not in sys.modules, "an openviewer code path loaded scipy"
'''


def random_problem(seed=0, n=12, c=4, dims=(9, 7)):
    rng = np.random.default_rng(seed)
    x_views = [rng.normal(size=(n, d)) for d in dims]
    return x_views


def random_state(x_views, c, seed=1):
    rng = np.random.default_rng(seed)
    z = [rng.normal(size=(x.shape[0], c)) for x in x_views]
    d = [rng.normal(size=(c, x.shape[1])) for x in x_views]
    e = [rng.normal(size=x.shape) * 0.1 for x in x_views]
    lp = [ao.lipschitz(dv) for dv in d]
    return ao.AdmmState(z=z, d=d, e=e, l_p=lp)


def gram_with_spectrum(rng, eigvals):
    """Q diag(eigvals) Q^T for a random orthogonal Q."""
    q, _ = np.linalg.qr(rng.normal(size=(len(eigvals), len(eigvals))))
    return (q * np.asarray(eigvals)) @ q.T


def dictionary_with_ratio(rng, ratio, rows, cols):
    """A rows x cols dictionary whose D D^T has lambda_2 / lambda_1 = ratio."""
    lam1 = rng.uniform(0.5, 5.0)
    rest = lam1 * ratio * np.sort(rng.uniform(0.0, 1.0, rows - 2))[::-1]
    spectrum = np.concatenate([[lam1, lam1 * ratio], rest])
    u, _ = np.linalg.qr(rng.normal(size=(rows, rows)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, rows)))
    return (u * np.sqrt(spectrum)) @ v.T


def outcome(fn, mat, **kwargs):
    """The result as float.hex, or the error type and message."""
    try:
        return float.hex(fn(mat, **kwargs))
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def objective_reference(state, x_views, cfg):
    """Independent termwise re-implementation of the objective."""
    value = 0.0
    for v in range(len(x_views)):
        diff = x_views[v] - state.z[v] @ state.d[v] - state.e[v]
        value += 0.5 * np.linalg.norm(diff, "fro") ** 2
        value += cfg.alpha * np.abs(state.z[v]).sum()
        value += 0.5 * cfg.beta * np.linalg.norm(state.d[v], "fro") ** 2
        for col in range(state.e[v].shape[1]):
            value += cfg.gamma * np.linalg.norm(state.e[v][:, col])
    return value


class TestObjective:
    def test_zero_point(self):
        x_views = random_problem()
        cfg = ao.AdmmConfig()
        state = ao.AdmmState(
            z=[np.zeros((x.shape[0], 4)) for x in x_views],
            d=[np.zeros((4, x.shape[1])) for x in x_views],
            e=[np.zeros_like(x) for x in x_views],
            l_p=[1.0, 1.0],
        )
        expected = 0.5 * sum(np.sum(x * x) for x in x_views)
        assert ao.objective(state, x_views, cfg) == pytest.approx(expected, abs=1e-12)

    def test_planted_noiseless_point(self):
        dataset, planted = synthgen.generate(small_spec(jitter=0.0))
        cfg = ao.AdmmConfig()
        state = ao.AdmmState(
            z=[planted.z] * dataset.n_views,
            d=planted.d,
            e=planted.e,
            l_p=[1.0] * dataset.n_views,
        )
        expected = 0.0
        for v in range(dataset.n_views):
            expected += cfg.alpha * np.abs(planted.z).sum()
            expected += 0.5 * cfg.beta * np.sum(planted.d[v] ** 2)
            expected += cfg.gamma * np.sum(np.linalg.norm(planted.e[v], axis=0))
        assert ao.objective(state, dataset.views, cfg) == pytest.approx(expected, rel=1e-12)

    def test_matches_independent_reimplementation(self):
        x_views = random_problem(seed=3)
        state = random_state(x_views, c=4, seed=4)
        cfg = ao.AdmmConfig(alpha=0.3, beta=0.7, gamma=1.1)
        ours = ao.objective(state, x_views, cfg)
        ref = objective_reference(state, x_views, cfg)
        assert ours == pytest.approx(ref, abs=1e-12 * max(1, abs(ref)))


class TestLipschitz:
    def test_orthonormal_rows(self):
        d = np.hstack([np.eye(4), np.zeros((4, 3))])
        assert ao.lipschitz(d) == pytest.approx(1.01)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(5)
        d = rng.normal(size=(4, 8))
        assert ao.lipschitz(2.0 * d) == pytest.approx(4.0 * ao.lipschitz(d), rel=1e-8)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(6)
        d = rng.normal(size=(6, 10))
        expected = np.linalg.eigvalsh(d @ d.T).max()
        assert ao.power_iteration_norm(d @ d.T) == pytest.approx(expected, rel=1e-8)

    def test_zero_dictionary_warns_neutral(self):
        with pytest.warns(UserWarning):
            assert ao.lipschitz(np.zeros((3, 5))) == 1.0

    def test_never_below_largest_eigenvalue(self):
        # the bare power iteration under-estimates by up to 1e-3 relative
        # here (at 0.999), which the 1% safety pad covers; with tol=1e-6
        # instead of 1e-10, 4 of these 700 fall below lambda_max
        rng = np.random.default_rng(40)
        for ratio in (0.3, 0.6, 0.9, 0.99, 0.999, 0.9999, 0.99999):
            for _ in range(100):
                rows = int(rng.integers(2, 9))
                d = dictionary_with_ratio(rng, ratio, rows, int(rng.integers(rows, 3 * rows)))
                top = float(np.linalg.eigvalsh(d @ d.T).max())
                assert ao.lipschitz(d) >= top, (ratio, rows)


class TestPowerIteration:
    """The one-product loop against the two-product loop it replaced:
    the same bits, the same errors, cold and from a random unit start,
    and from the start the same bits written back into it."""

    def setup_method(self):
        self.starts = np.random.default_rng(50)

    def assert_same(self, mat, **kwargs):
        """Checks both loops cold and warm; returns the cold and warm
        outcomes and whether the start was overwritten."""
        cold = outcome(ao.power_iteration_norm, mat, **kwargs)
        assert cold == outcome(ref.power_iteration_norm, mat, **kwargs)
        start = self.starts.normal(size=mat.shape[0])
        start /= np.linalg.norm(start)
        ours, theirs = start.copy(), start.copy()
        warm = outcome(ao.power_iteration_norm, mat, start=ours, **kwargs)
        assert (warm, ours.tobytes()) == \
            (outcome(ref.power_iteration_norm, mat, start=theirs, **kwargs), theirs.tobytes())
        return cold, warm, not np.array_equal(ours, start)

    def test_random_gram_matrices_bitwise(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            a = rng.normal(size=(n, int(rng.integers(1, 2 * n + 1))))
            assert self.assert_same(a @ a.T)[2] or n == 1

    def test_near_degenerate_bitwise(self):
        rng = np.random.default_rng(42)
        for ratio in (0.9, 0.99, 0.999):
            for n in (2, 5, 8):
                for _ in range(5):
                    eig = np.concatenate([[1.0, ratio], ratio * rng.uniform(0, 1, n - 2)])
                    self.assert_same(gram_with_spectrum(rng, rng.uniform(0.1, 10) * eig))

    def test_rank_one_zero_and_scalar_bitwise(self):
        rng = np.random.default_rng(43)
        for n in (1, 3, 7):
            u = rng.normal(size=(n, 1))
            self.assert_same(u @ u.T)
            assert self.assert_same(np.zeros((n, n))) == (float.hex(0.0), float.hex(0.0), False)
        assert ao.power_iteration_norm(np.zeros((4, 4))) == 0.0
        self.assert_same(np.array([[2.5]]))

    def test_iteration_cap_bitwise(self):
        # with tol out of reach the cap decides: an early cap raises, a
        # later one accepts the last estimate (change <= 1e-5); both write
        # the last iterate back
        mat = gram_with_spectrum(np.random.default_rng(44), [1.0, 0.99, 0.5, 0.2, 0.1])
        cold_kinds, warm_kinds = set(), set()
        for max_iter in range(1, 400, 13):
            cold, warm, moved = self.assert_same(mat, tol=1e-15, max_iter=max_iter)
            assert moved
            cold_kinds.add(type(cold))
            warm_kinds.add(type(warm))
        assert cold_kinds == warm_kinds == {str, tuple}
        with pytest.raises(ao.PowerIterationError, match="did not converge in 3 iterations"):
            ao.power_iteration_norm(mat, max_iter=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_raise_before_iterating(self, bad):
        mat = np.eye(4)
        mat[1, 2] = bad
        with pytest.raises(ValueError, match=r"1 non-finite entries at \(1, 2\)"):
            ao.power_iteration_norm(mat)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            ao.power_iteration_norm(np.ones((2, 3)))

    @pytest.mark.parametrize("start, message", [
        (np.ones(3, dtype=np.int64), "float64 array of length 3, got int64 array of shape \\(3,\\)"),
        (np.ones(3, dtype=np.float32), "float64 array of length 3, got float32"),
        (np.ones((3, 1)), "float64 array of length 3, got float64 array of shape \\(3, 1\\)"),
        (np.ones(4), "float64 array of length 3, got float64 array of shape \\(4,\\)"),
        ([1.0, 0.0, 0.0], "float64 array of length 3, got list"),
        (np.zeros(3), "finite, positive norm, got squared norm 0.0"),
        (np.array([1.0, np.nan, 0.0]), "finite, positive norm, got squared norm nan"),
        (np.array([1.0, -np.inf, 0.0]), "finite, positive norm, got squared norm inf"),
        (np.full(3, 1e200), "finite, positive norm, got squared norm inf"),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_bad_start_rejected_and_left_alone(self, start, message):
        before = start.copy()
        with pytest.raises(ValueError, match=f"power iteration start must .*{message}"):
            ao.power_iteration_norm(np.eye(3), start=start)
        assert np.array_equal(np.asarray(start), np.asarray(before), equal_nan=True)


class TestWarmStart:
    """`solve` starts each power iteration where the last one ended."""

    def test_cold_start_vector_gives_the_cold_bits(self):
        rng = np.random.default_rng(45)
        for n in (1, 4, 9):
            a = rng.normal(size=(n, 2 * n))
            start = ao._cold_start(n)
            assert float.hex(ao.power_iteration_norm(a @ a.T, start=start)) == \
                float.hex(ao.power_iteration_norm(a @ a.T))

    def test_start_agrees_with_cold_and_is_left_a_unit_vector(self):
        # a random start, then the vector that call ended on; closer to a
        # double top eigenvalue (ratio 0.99) either run may stop short of
        # lambda_max by up to ~1e-7 relative, so the two differ more
        rng = np.random.default_rng(46)
        for ratio in (0.3, 0.6, 0.9):
            for _ in range(50):
                rows = int(rng.integers(2, 9))
                d = dictionary_with_ratio(rng, ratio, rows, int(rng.integers(rows, 3 * rows)))
                start = rng.normal(size=rows)
                start /= np.linalg.norm(start)
                cold = ao.power_iteration_norm(d @ d.T)
                for _ in range(2):
                    assert ao.power_iteration_norm(d @ d.T, start=start) == \
                        pytest.approx(cold, rel=1e-9)
                    assert np.linalg.norm(start) == pytest.approx(1.0, abs=1e-12)

    def test_init_state_step_sizes_are_the_cold_ones(self):
        x_views = random_problem(seed=47)
        state = ao.init_state(x_views, ao.AdmmConfig(), code_dim=4)
        for dv, lp, lead in zip(state.d, state.l_p, state.lead):
            assert float.hex(lp) == float.hex(ao.lipschitz(dv))
            assert np.linalg.norm(lead) == pytest.approx(1.0, abs=1e-12)

    def test_every_warm_step_size_on_the_golden_instance(self, monkeypatch):
        fixture = json.loads((FIXTURES / "admm_defaults.json").read_text())
        cfg = ao.AdmmConfig(**fixture["config"])
        spec = synthgen.SynthSpec(**fixture["data"])
        data, _ = synthgen.generate(spec)
        original = ao.d_step
        checked = []

        def checking_d_step(state, x_views, config):
            leads = [lead.copy() for lead in state.lead]
            new = original(state, x_views, config)
            for v, (dv, lp) in enumerate(zip(new.d, new.l_p)):
                assert lp >= float(np.linalg.eigvalsh(dv @ dv.T).max())
                assert lp == pytest.approx(ao.lipschitz(dv), rel=1e-8)
                assert np.array_equal(state.lead[v], leads[v])  # old state untouched
            checked.append(len(new.l_p))
            return new

        monkeypatch.setattr(ao, "d_step", checking_d_step)
        state = ao.solve(data.views, cfg, code_dim=spec.classes)
        assert len(checked) == len(state.objective_trace) - 1 == cfg.max_iter
        assert set(checked) == {data.n_views}

    def test_hand_built_state_starts_cold(self):
        x_views = random_problem(seed=48)
        state = random_state(x_views, c=4, seed=49)
        assert state.lead is None
        stepped = ao.d_step(state, x_views, ao.AdmmConfig())
        for dv, lp in zip(stepped.d, stepped.l_p):
            assert float.hex(lp) == float.hex(ao.lipschitz(dv))


class TestSteps:
    def test_z_step_from_zero_state(self):
        x_views = random_problem(seed=7)
        cfg = ao.AdmmConfig(alpha=0.2)
        state = ao.init_state(x_views, cfg, code_dim=4)
        stepped = ao.z_step(state, x_views, cfg)
        for v in range(2):
            lp = state.l_p[v]
            pre = (x_views[v] @ state.d[v].T) * (1.0 / lp)
            expected = np.sign(pre) * np.maximum(np.abs(pre) - cfg.alpha / lp, 0.0)
            assert np.allclose(stepped.z[v], expected, atol=1e-14)

    def test_d_step_least_squares_limit(self):
        rng = np.random.default_rng(8)
        n, c, dim = 10, 3, 6
        q, _ = np.linalg.qr(rng.normal(size=(n, c)))
        x = [rng.normal(size=(n, dim))]
        cfg = ao.AdmmConfig(beta=1e-10)
        state = ao.AdmmState(
            z=[q], d=[np.zeros((c, dim))], e=[np.zeros((n, dim))], l_p=[1.0]
        )
        stepped = ao.d_step(state, x, cfg)
        assert np.allclose(stepped.d[0], q.T @ x[0], atol=1e-7)

    def test_d_step_stationarity_residual(self):
        x_views = random_problem(seed=9)
        cfg = ao.AdmmConfig(beta=0.5)
        state = random_state(x_views, c=4, seed=10)
        stepped = ao.d_step(state, x_views, cfg)
        for v in range(2):
            lhs = state.z[v].T @ state.z[v] + cfg.beta * np.eye(4)
            rhs = state.z[v].T @ (x_views[v] - state.e[v])
            resid = np.linalg.norm(lhs @ stepped.d[v] - rhs)
            assert resid <= 1e-8 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("c", range(1, 9))
    def test_d_step_matches_dense_solve(self, c):
        # views of widths 9 and 7 share the stacked factorization
        cfg = ao.AdmmConfig(beta=0.3)
        for seed in range(5):
            x_views = random_problem(seed=400 + seed, n=20)
            state = random_state(x_views, c=c, seed=500 + seed)
            stepped = ao.d_step(state, x_views, cfg)
            for zv, xv, ev, dv in zip(state.z, x_views, state.e, stepped.d):
                lhs = zv.T @ zv + cfg.beta * np.eye(c)
                rhs = zv.T @ (xv - ev)
                dense = np.linalg.solve(lhs, rhs)
                assert dv.shape == dense.shape
                assert np.linalg.norm(dv - dense) <= 1e-12 * np.linalg.norm(dense)
                assert np.linalg.norm(lhs @ dv - rhs) <= 1e-12 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("field_name", ["z", "e"])
    def test_d_step_non_finite_input_raises(self, field_name):
        x_views = random_problem(seed=14)
        state = random_state(x_views, c=4, seed=15)
        getattr(state, field_name)[1][2, 0] = np.nan
        with pytest.raises(ValueError, match="view 1 has non-finite entries"):
            ao.d_step(state, x_views, ao.AdmmConfig())

    def test_d_step_singular_system_raises(self):
        x_views = random_problem(seed=16)
        state = random_state(x_views, c=4, seed=17)
        state.z = [np.zeros_like(z) for z in state.z]
        with pytest.raises(ao.FactorizationError, match="not SPD"):
            ao.d_step(state, x_views, ao.AdmmConfig(beta=0.0))

    def test_objective_reuses_the_e_step_fit_bitwise(self):
        cfg = ao.AdmmConfig(alpha=0.3, beta=0.4, gamma=0.8)
        x_views = random_problem(seed=18)
        state = random_state(x_views, c=4, seed=19)
        stepped = ao.e_step(ao.d_step(ao.z_step(state, x_views, cfg), x_views, cfg),
                            x_views, cfg)
        assert stepped.fit is not None
        assert float.hex(ao.objective(stepped, x_views, cfg)) == \
            float.hex(ao.objective(replace(stepped, fit=None), x_views, cfg))
        assert ao.z_step(stepped, x_views, cfg).fit is None
        assert ao.d_step(stepped, x_views, cfg).fit is None

    def test_z_and_d_steps_never_increase_objective(self):
        cfg = ao.AdmmConfig(alpha=0.3, beta=0.4, gamma=0.8)
        for seed in range(5):
            x_views = random_problem(seed=100 + seed)
            state = random_state(x_views, c=4, seed=200 + seed)
            before = ao.objective(state, x_views, cfg)
            after_z = ao.objective(ao.z_step(state, x_views, cfg), x_views, cfg)
            assert after_z <= before + 1e-10
            after_d = ao.objective(ao.d_step(state, x_views, cfg), x_views, cfg)
            assert after_d <= before + 1e-10

    def test_z_step_idempotent_at_fixed_point(self):
        cfg = ao.AdmmConfig(alpha=0.1, beta=0.2, gamma=0.5, max_iter=500, tol=1e-14)
        x_views = random_problem(seed=11, n=8, dims=(6,))
        state = ao.solve(x_views, cfg, code_dim=3)
        once = ao.z_step(state, x_views, cfg)
        fixed_resid = max(
            np.max(np.abs(a - b)) for a, b in zip(once.z, state.z)
        )
        if fixed_resid < 1e-12:
            twice = ao.z_step(once, x_views, cfg)
            assert max(np.max(np.abs(a - b)) for a, b in zip(twice.z, once.z)) < 1e-10


class TestGroupProx:
    """The E step's group shrinkage and penalty act on feature columns, as the
    network's DN module does."""

    @pytest.mark.parametrize("t", [0.0, 1.5, 3.0, 100.0])
    def test_group_soft_matches_fine_reference(self, t):
        from openviewer.tensor_core import DiffNode

        import fine_ops

        a = np.random.default_rng(4).normal(size=(6, 9))
        expected = fine_ops.group_soft_threshold(DiffNode(a), DiffNode([[t]])).value
        assert np.array_equal(ao._group_soft(a, t), expected)

    def test_group_norm_sum_is_column_norms(self):
        a = np.random.default_rng(5).normal(size=(6, 9))
        assert ao._group_norm_sum(a) == pytest.approx(np.linalg.norm(a, axis=0).sum(),
                                                      rel=1e-15)


class TestSolve:
    def test_tol_inf_single_iteration(self):
        x_views = random_problem(seed=12)
        cfg = ao.AdmmConfig(tol=np.inf, max_iter=50)
        state = ao.solve(x_views, cfg, code_dim=4)
        assert len(state.objective_trace) == 2  # initial value plus one iteration

    def test_trace_final_not_above_initial(self):
        for seed in range(3):
            x_views = random_problem(seed=300 + seed)
            cfg = ao.AdmmConfig(max_iter=40, seed=seed)
            state = ao.solve(x_views, cfg, code_dim=4)
            assert state.objective_trace[-1] <= state.objective_trace[0]

    def test_deterministic_given_seed(self):
        x_views = random_problem(seed=13)
        cfg = ao.AdmmConfig(max_iter=10, seed=42)
        a = ao.solve(x_views, cfg, code_dim=4)
        b = ao.solve(x_views, cfg, code_dim=4)
        for va, vb in zip(a.z, b.z):
            assert np.array_equal(va, vb)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ao.solve(random_problem(), ao.AdmmConfig(alpha=0.0), code_dim=3)
        with pytest.raises(ValueError, match="group_axis"):
            ao.solve(random_problem(), ao.AdmmConfig(group_axis="rows"), code_dim=3)

    def test_no_code_path_loads_scipy(self, tmp_path):
        # a fresh interpreter: pytest's own process may hold scipy already
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


class TestExactEProx:
    """With `exact_e_prox=True` every block step is an exact or proximal
    minimiser, so the objective can never rise."""

    FIXTURE = Path(__file__).parent / "fixtures" / "admm_defaults.json"

    def test_planted_trace_never_increases(self):
        # the fixture instance (seed 0) and the next planted seeds; the
        # default inexact E step lets the trace rise on seeds 2 and 3
        fixture = json.loads(self.FIXTURE.read_text())
        cfg = ao.AdmmConfig(**dict(fixture["config"], exact_e_prox=True))
        for seed in range(4):
            spec = synthgen.SynthSpec(**dict(fixture["data"], seed=seed))
            data, _ = synthgen.generate(spec)
            trace = np.array(ao.solve(data.views, cfg, code_dim=spec.classes).objective_trace)
            assert len(trace) > 2
            assert np.all(np.diff(trace) <= 0.0), f"seed {seed}"

    def test_e_step_threshold_is_gamma(self):
        x_views = random_problem(seed=21)
        state = random_state(x_views, 4)
        state.l_p = [3.0, 5.0]
        resid = [xv - zv @ dv for xv, zv, dv in zip(x_views, state.z, state.d)]
        # median column norm of view 0: half its columns fall below gamma
        gamma = float(np.median(np.linalg.norm(resid[0], axis=0)))
        new = ao.e_step(state, x_views, ao.AdmmConfig(gamma=gamma, exact_e_prox=True))
        for r, ev in zip(resid, new.e):
            expected = np.maximum(1.0 - gamma / np.linalg.norm(r, axis=0), 0.0) * r
            assert np.allclose(ev, expected, rtol=0.0, atol=1e-12)
        assert np.sum(np.linalg.norm(new.e[0], axis=0) == 0.0) >= 3

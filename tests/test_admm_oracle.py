import json
from pathlib import Path

import numpy as np
import pytest

from openviewer import admm_oracle as ao
from openviewer import synthgen

from helpers import small_spec


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

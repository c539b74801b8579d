"""Non-learned alternating solver for the multi-view sparse decomposition

    min over (Z_v, D_v, E_v) of
        sum_v  1/2 ||X_v - Z_v D_v - E_v||_F^2 + alpha ||Z_v||_1
               + beta/2 ||D_v||_F^2 + gamma ||E_v||_{2,1}

via proximal-gradient steps for Z and E and a closed-form ridge solve for
D. This module is intentionally self-contained plain numpy code: it
serves as the independent numerical reference for the unfolded network, so
its solver steps share no code paths with the differentiable
implementation. The step size of every Z and E step is 1/L with
L = `lipschitz(D_v)`, the largest eigenvalue of D_v D_v^T from
`np.linalg.eigvalsh`, padded by `LIPSCHITZ_SAFETY`; `d_step` takes it
once per view. One routine is shared: `power_iteration_norm`, always run
cold from the fixed seed-12345 vector. `unfold_net.init_params` calls it
for the analytic step sizes 1/L of the initial network and
`evaluation.contraction_diagnostic` for ||R||_2; its bits there feed the
analytic init that the golden tests pin, so any change to its arithmetic
must keep them. `init_state` calls it too, once per view, for the
starting step sizes of `solve`.

The D step factors with numpy's own Cholesky, so numpy is the one
library the solver needs: an `oracle` process loads no second
linear-algebra package, which would cost about 20 MB of RSS and 0.15 s of
start-up per process.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

LIPSCHITZ_SAFETY = 1.01


class FactorizationError(ArithmeticError):
    """Direct solve of the dictionary system failed."""


class PowerIterationError(ArithmeticError):
    """Power iteration failed to converge within the iteration cap."""


@dataclass(frozen=True)
class AdmmConfig:
    """Regularization weights and stopping rule.

    Defaults for alpha/gamma were calibrated on planted synthetic data
    (see tests/fixtures/admm_defaults.json, which pins the same values).
    """

    alpha: float = 0.02
    beta: float = 0.1
    gamma: float = 4.0
    max_iter: int = 300
    tol: float = 1e-8
    seed: int = 0
    exact_e_prox: bool = False
    group_axis: str = "columns"  # noise groups are feature columns; kept as configs still set it

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0 or self.gamma <= 0:
            raise ValueError("alpha, beta, gamma must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.group_axis != "columns":
            raise ValueError(f"group_axis must be 'columns', got {self.group_axis!r}")


@dataclass
class AdmmState:
    """Per-view iterates plus step-size constants and the objective trace.

    `fit` holds X - Z D at the stored Z and D, as `e_step` formed it, for
    `objective` to reuse; the Z and D steps clear it, and None means
    recompute. The steps build each new state positionally, in this field
    order, sharing the fields they leave unchanged and the trace list.
    """

    z: list[np.ndarray]
    d: list[np.ndarray]
    e: list[np.ndarray]
    l_p: list[float]
    objective_trace: list[float] = field(default_factory=list)
    fit: list[np.ndarray] | None = None

    @property
    def n_views(self) -> int:
        return len(self.z)


def power_iteration_norm(mat: np.ndarray, tol: float = 1e-10, max_iter: int = 1000) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration from
    a fixed unit vector (a seed-12345 normal draw); each step's one product
    `mat @ vec` gives the Rayleigh quotient and the next vector.

    Near-degenerate leading eigenvalues slow the tail of the iteration; an
    estimate whose relative change at the cap is below 1e-5 is accepted
    (its residual error is absorbed by the step-size safety factor),
    anything worse raises.
    """
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError(f"power iteration needs a square matrix, got {mat.shape}")
    finite = np.isfinite(mat)
    if not finite.all():
        bad = np.argwhere(~finite)
        shown = ", ".join(f"({i}, {j})" for i, j in bad[:5]) + (", ..." if len(bad) > 5 else "")
        raise ValueError(f"power iteration needs a finite matrix, got {len(bad)} "
                         f"non-finite entries at {shown}")
    it = np.random.default_rng(12345).normal(size=n)
    it /= np.linalg.norm(it)
    nxt = mat @ it
    lam = 0.0
    change = np.inf
    for _ in range(max_iter):
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            return 0.0
        it = nxt / norm
        nxt = mat @ it
        lam_new = float(it @ nxt)
        change = abs(lam_new - lam) / max(1.0, abs(lam_new))
        if change <= tol:
            return lam_new
        lam = lam_new
    if change <= 1e-5:
        return lam
    raise PowerIterationError(
        f"power iteration did not converge in {max_iter} iterations (last change {change:.3e})"
    )


def lipschitz(d: np.ndarray) -> float:
    """Step-size constant ||D D^T||_2, padded by a small safety factor."""
    if not d.any():
        warnings.warn("zero dictionary: using neutral step-size constant 1", stacklevel=2)
        return 1.0
    gram = d @ d.T
    # eigvalsh returns finite values for a NaN matrix, so check first
    if not np.isfinite(gram).all():
        raise ValueError("step-size constant needs a finite D D^T")
    return LIPSCHITZ_SAFETY * float(np.linalg.eigvalsh(gram)[-1])


@functools.lru_cache(maxsize=8)
def _eye(c: int) -> np.ndarray:
    """The c x c identity, read-only, as every Z and D step shares it."""
    eye = np.eye(c)
    eye.flags.writeable = False
    return eye


def _soft(a: np.ndarray, t: float) -> np.ndarray:
    return np.sign(a) * np.maximum(np.abs(a) - t, 0.0)


def _group_soft(a: np.ndarray, t: float) -> np.ndarray:
    # np.add.reduce, here and below, is what np.sum runs, minus its wrapper
    norms = np.sqrt(np.add.reduce(a * a, axis=0, keepdims=True))
    keep = norms > t
    return np.where(keep, (norms - t) / np.where(keep, norms, 1.0), 0.0) * a


def _group_norm_sum(a: np.ndarray) -> float:
    return float(np.add.reduce(np.sqrt(np.add.reduce(a * a, axis=0))))


def objective(state: AdmmState, x_views: list[np.ndarray], config: AdmmConfig) -> float:
    """Exact objective value at the current iterates."""
    fits = state.fit or [xv - zv @ dv for xv, zv, dv in zip(x_views, state.z, state.d)]
    total = 0.0
    for fit, zv, dv, ev in zip(fits, state.z, state.d, state.e):
        resid = fit - ev
        total += 0.5 * float(np.add.reduce(resid * resid, axis=None))
        total += config.alpha * float(np.add.reduce(np.abs(zv), axis=None))
        total += 0.5 * config.beta * float(np.add.reduce(dv * dv, axis=None))
        total += config.gamma * _group_norm_sum(ev)
    return total


def z_step(state: AdmmState, x_views: list[np.ndarray], config: AdmmConfig) -> AdmmState:
    """Proximal-gradient update of every Z_v at the stored step sizes."""
    new_z = []
    for xv, zv, dv, ev, lp in zip(x_views, state.z, state.d, state.e, state.l_p):
        pre = zv @ (_eye(dv.shape[0]) - (dv @ dv.T) / lp) + ((xv - ev) @ dv.T) * (1.0 / lp)
        new_z.append(_soft(pre, config.alpha / lp))
    return AdmmState(new_z, state.d, state.e, state.l_p, state.objective_trace)


def d_step(state: AdmmState, x_views: list[np.ndarray], config: AdmmConfig) -> AdmmState:
    """Exact ridge solve for every D_v; refreshes the step-size constants.

    Every view's system (Z_v^T Z_v + beta I) D_v = Z_v^T (X_v - E_v) is
    c x c, c the code width the views share, so one stacked Cholesky
    factors them all, L_v L_v^T = Z_v^T Z_v + beta I, and
    D_v = L_v^-T (L_v^-1 Z_v^T (X_v - E_v)) through the inverted factors.
    """
    c = state.z[0].shape[1]
    eye = _eye(c)
    lhs, rhs = [], []
    for v, (xv, zv, ev) in enumerate(zip(x_views, state.z, state.e)):
        gram = zv.T @ zv + config.beta * eye
        proj = zv.T @ (xv - ev)
        if not (np.isfinite(gram).all() and np.isfinite(proj).all()):
            raise ValueError(f"dictionary system of view {v} has non-finite entries")
        lhs.append(gram)
        rhs.append(proj)
    try:
        chol = np.linalg.cholesky(np.stack(lhs))
    except np.linalg.LinAlgError:
        raise FactorizationError(
            f"dictionary system not SPD (condition ~{max(map(np.linalg.cond, lhs)):.3e})"
        ) from None
    new_d = [inv.T @ (inv @ proj) for inv, proj in zip(np.linalg.inv(chol), rhs)]
    return AdmmState(state.z, new_d, state.e, [lipschitz(dv) for dv in new_d],
                     state.objective_trace)


def e_step(state: AdmmState, x_views: list[np.ndarray], config: AdmmConfig) -> AdmmState:
    """Group-shrinkage update of every E_v on the fit residual."""
    new_e, fits = [], []
    for xv, zv, dv, lp in zip(x_views, state.z, state.d, state.l_p):
        thresh = config.gamma if config.exact_e_prox else config.gamma / lp
        fit = xv - zv @ dv
        new_e.append(_group_soft(fit, thresh))
        fits.append(fit)
    return AdmmState(state.z, state.d, new_e, state.l_p, state.objective_trace, fits)


def init_state(x_views: list[np.ndarray], config: AdmmConfig, code_dim: int) -> AdmmState:
    """Zero codes and noise, Gaussian row-normalized dictionaries."""
    rng = np.random.default_rng(config.seed)
    z, d, e, lp = [], [], [], []
    for xv in x_views:
        n, dim = xv.shape
        dv = rng.normal(size=(code_dim, dim))
        dv /= np.linalg.norm(dv, axis=1, keepdims=True)
        z.append(np.zeros((n, code_dim)))
        d.append(dv)
        e.append(np.zeros((n, dim)))
        # the cold power iteration, not `lipschitz`: it keeps the starting
        # step sizes of every solve, and the solve's one call per view that
        # perfbench's oracle trace counts
        lp.append(LIPSCHITZ_SAFETY * power_iteration_norm(dv @ dv.T))
    return AdmmState(z=z, d=d, e=e, l_p=lp)


def solve(x_views: list[np.ndarray], config: AdmmConfig, code_dim: int) -> AdmmState:
    """Alternate Z/D/E updates until the relative objective change < tol."""
    state = init_state(x_views, config, code_dim)
    state.objective_trace.append(objective(state, x_views, config))
    for _ in range(config.max_iter):
        state = e_step(d_step(z_step(state, x_views, config), x_views, config), x_views, config)
        obj = objective(state, x_views, config)
        state.objective_trace.append(obj)
        prev = state.objective_trace[-2]
        if abs(prev - obj) < config.tol * max(1.0, abs(prev)):
            break
    return state

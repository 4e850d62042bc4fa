r"""Wealth dynamics and the simulated growth-optimal portfolio.

For a predictable fraction process ``f`` the discrete log wealth splits into
a finite-variation part and a martingale part,

    dB_k = (<f_k, c_k a_k> - 0.5 <f_k, c_k f_k>) dG_k,
    dL_k = <f_k, dM_k>,        log X_k = B_k + L_k,

mirroring the continuous-time decomposition. The growth-optimal wealth uses
the constrained maximizer of the drift-rate objective per step.

Distances between wealth processes are measured on the pair (B, L): total
variation of the drift gap plus quadratic variation of the martingale gap,
which dominates the uniform gap of the log-wealth paths.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .quadform import cov_inner, dot_last, optimal_fraction_batch, step_runs


@dataclass
class WealthPaths:
    """Log-wealth decomposition for a batch of paths.

    dB, dL have shape (n_paths, n_steps).
    """

    dB: np.ndarray
    dL: np.ndarray

    @cached_property
    def increments(self):
        """Log-wealth increments dB + dL, formed once and kept: a ladder
        compares one limit wealth with every rung. Read it only on a
        WealthPaths whose dB and dL stay as they are."""
        return self.dB + self.dL

    @property
    def log_wealth(self):
        return np.cumsum(self.dB + self.dL, axis=1)

    @property
    def terminal_log_wealth(self):
        return np.sum(self.dB, axis=1) + np.sum(self.dL, axis=1)


def growth_rate(c, drift, fraction):
    """Growth rate <f, c a> - 0.5 <f, c f> of a fraction, over the shapes
    cov_inner takes: one step, per step, or path by path."""
    rate = cov_inner(c, fraction, drift)
    rate -= 0.5 * cov_inner(c, fraction, fraction)
    return rate


def _broadcast_fractions(fractions, n_paths, n_steps, dim):
    f = np.asarray(fractions, dtype=float)
    if f.shape == (dim,):
        f = np.broadcast_to(f, (n_steps, dim))
    if f.shape in ((n_steps, dim), (n_paths, n_steps, dim)):
        return f
    raise DimensionMismatch(
        f"fractions shape {f.shape} incompatible with "
        f"{(n_paths, n_steps, dim)} paths"
    )


def wealth_paths(bundle, fractions, drift=None):
    """Log-wealth decomposition of a predictable fraction process.

    drift overrides the bundle's reference drift in the finite-variation
    part, per step (N, d) or per path (P, N, d); the martingale part always
    uses the bundle's noise increments. The caller is responsible for
    predictability: a path-dependent fraction at step k must only use
    information up to step k - 1.
    """
    f = _broadcast_fractions(
        fractions, bundle.n_paths, bundle.n_steps, bundle.dim
    )
    a = bundle.drift if drift is None else drift
    dB = growth_rate(bundle.cov, a, f)
    dB *= bundle.dG
    if dB.shape != bundle.dM.shape[:2]:  # one fraction and drift per step
        dB = np.broadcast_to(dB, bundle.dM.shape[:2]).copy()
    # <f, dM> has no covariance in it: a plain dot
    dL = dot_last(f, bundle.dM)
    return WealthPaths(dB=dB, dL=dL)


def _solve_steps(cov, drifts, constraint):
    """Optimal fractions for drifts (P, N, d) under per-step covariances
    (N, d, d). Each run of consecutive steps sharing one covariance and one
    constraint object is solved as a single (P * steps, d) batch."""
    n_paths, _, dim = drifts.shape
    steps = constraint if isinstance(constraint, (list, tuple)) \
        else [constraint] * len(cov)
    runs = step_runs(cov, steps)
    if len(runs) == 1:
        return optimal_fraction_batch(
            cov[0], drifts.reshape(-1, dim), steps[0]).reshape(drifts.shape)
    out = np.empty_like(drifts)
    for lo, hi in runs:
        rows = drifts[:, lo:hi].reshape(-1, dim)
        out[:, lo:hi] = optimal_fraction_batch(
            cov[lo], rows, steps[lo]).reshape(n_paths, hi - lo, dim)
    return out


def numeraire_fractions(bundle, constraint, *, drifts=None):
    """Optimal fraction per step (and per path when drifts are path based).

    constraint is a single set or a per-step sequence. drifts defaults to
    the market reference drift; pass an array of shape (n_paths, n_steps,
    dim) for estimated, path-dependent drifts.
    """
    if drifts is None:
        return _solve_steps(bundle.cov, bundle.drift[None], constraint)[0]
    drifts = np.asarray(drifts, dtype=float)
    if drifts.shape != (bundle.n_paths, bundle.n_steps, bundle.dim):
        raise DimensionMismatch(
            f"drift array shape {drifts.shape} does not match bundle"
        )
    return _solve_steps(bundle.cov, drifts, constraint)


def numeraire_paths(bundle, constraint, *, drifts=None):
    """Wealth paths of the growth-optimal portfolio under a constraint set.

    drifts feeds the per-step optimization (estimated drift); the realized
    finite-variation part uses the bundle's drift.
    """
    fractions = numeraire_fractions(bundle, constraint, drifts=drifts)
    return wealth_paths(bundle, fractions)


@dataclass
class GrowthPath:
    """Growth integrand of the optimal fraction per step plus its integral."""

    integrand: np.ndarray
    cumulative: np.ndarray
    unconstrained_bound: np.ndarray

    @property
    def total(self):
        return float(self.cumulative[-1])


def growth_path(market, fractions):
    """Growth of a fraction schedule (N, d) along market's steps; it solves
    nothing. For numeraire_fractions(market, K) the integrand sits in
    [0, 0.5 |a|_c^2] per step: zero is feasible, and the unconstrained
    optimum caps the objective."""
    if np.shape(fractions) != market.drift.shape:
        raise DimensionMismatch(f"fractions of shape {np.shape(fractions)} "
                                f"for drifts of shape {market.drift.shape}")
    integrand = growth_rate(market.cov, market.drift, fractions)
    bound = 0.5 * np.maximum(
        cov_inner(market.cov, market.drift, market.drift), 0.0)
    cumulative = np.concatenate(([0.0], np.cumsum(integrand * market.dG)))
    return GrowthPath(integrand=integrand, cumulative=cumulative,
                      unconstrained_bound=bound)


def wealth_process_gap(a, b):
    """Pathwise distance between two wealth decompositions.

    Returns per-path arrays: fv = sum |dB_a - dB_b| (total variation of the
    drift gap), qv = sum (dL_a - dL_b)^2 (quadratic variation of the
    martingale gap), and from one cumulative log gap on the grid
    sup = max_k |log X_a - log X_b| and the relative wealth errors
    sup_rel_inf = max_k |X_a / X_b - 1|, sup_rel_n = max_k |X_b / X_a - 1|.
    """
    if a.dB.shape != b.dB.shape:
        raise DimensionMismatch(
            f"wealth shapes {a.dB.shape} and {b.dB.shape} differ"
        )
    work = np.subtract(a.dB, b.dB)
    fv = np.sum(np.abs(work, out=work), axis=1)
    np.subtract(a.dL, b.dL, out=work)
    qv = np.sum(np.square(work, out=work), axis=1)
    np.add(a.dB, a.dL, out=work)
    work -= b.increments
    gap = np.cumsum(work, axis=1, out=work)
    # The largest |g|, |expm1(g)| and |expm1(-g)| of a row sit at its
    # largest or smallest g: both functions are monotone.
    hi, lo = np.max(gap, axis=1), np.min(gap, axis=1)
    return {"fv": fv, "qv": qv,
            "sup": np.maximum(np.abs(hi), np.abs(lo)),
            "sup_rel_inf": np.maximum(np.abs(np.expm1(hi)),
                                      np.abs(np.expm1(lo))),
            "sup_rel_n": np.maximum(np.abs(np.expm1(-hi)),
                                    np.abs(np.expm1(-lo)))}


def terminal_deflation(candidate, benchmark):
    """Sample mean of X_T / Xhat_T; at or below one when the benchmark is
    the growth-optimal wealth for an admissible strategy family."""
    ratio = np.exp(candidate.terminal_log_wealth - benchmark.terminal_log_wealth)
    return float(np.mean(ratio)), float(np.std(ratio) / np.sqrt(ratio.size))

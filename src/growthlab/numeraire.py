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
    def terminal_log_wealth(self):
        return np.sum(self.dB, axis=1) + np.sum(self.dL, axis=1)


def growth_rate(c, drift, fraction):
    """Growth rate <f, c a> - 0.5 <f, c f> of a fraction, over the shapes
    cov_inner takes: one step, per step, or path by path."""
    rate = cov_inner(c, fraction, drift)
    rate -= 0.5 * cov_inner(c, fraction, fraction)
    return rate


def wealth_paths(bundle, fractions):
    """Log-wealth decomposition of a predictable fraction process, (d,), (N,
    d) or (P, N, d), under the bundle's drift and noise increments. The
    caller is responsible for predictability: a path-dependent fraction at
    step k must only use information up to step k - 1.
    """
    f, shape = np.asarray(fractions, dtype=float), bundle.dM.shape
    if f.shape not in (shape[2:], shape[1:], shape):
        raise DimensionMismatch(
            f"fractions shape {f.shape} incompatible with {shape} paths")
    dB = growth_rate(bundle.cov, bundle.drift, f)
    dB *= bundle.dG
    if dB.shape != shape[:2]:  # one fraction and drift per step
        dB = np.broadcast_to(dB, shape[:2]).copy()
    # <f, dM> has no covariance in it: a plain dot
    dL = dot_last(f, bundle.dM)
    return WealthPaths(dB=dB, dL=dL)


def numeraire_fractions(bundle, constraint, *, drifts=None):
    """Optimal fraction per step (N, d) under one constraint set for the
    market reference drift, or per path (P, N, d) for drifts of that shape:
    estimated, path-dependent drifts. Each run of consecutive steps sharing
    one covariance is solved as one (P * steps, d) batch."""
    rows = bundle.drift[None] if drifts is None else np.asarray(drifts, dtype=float)
    if drifts is not None and rows.shape != bundle.dM.shape:
        raise DimensionMismatch(
            f"drift array shape {rows.shape} does not match bundle")
    runs, dim = step_runs(bundle.cov), bundle.dim
    if len(runs) == 1:
        out = optimal_fraction_batch(bundle.cov[0], rows.reshape(-1, dim),
                                     constraint).reshape(rows.shape)
    else:
        out = np.empty_like(rows)
        for lo, hi in runs:
            out[:, lo:hi] = optimal_fraction_batch(
                bundle.cov[lo], rows[:, lo:hi].reshape(-1, dim),
                constraint).reshape(out[:, lo:hi].shape)
    return out[0] if drifts is None else out


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

r"""Exact discrete constructions: a one-period jump market and finite trees.

The one-period market has S1 = signal * jump, where the signal is a dyadic
sum of independent Gaussians (total law N(0, 1/3)) and the jump is +1 with
probability p, -1 otherwise. An observer at truncation level n knows the
first n dyadic digits; the residual is Gaussian with full-line support, so
no nonzero fraction keeps wealth positive and the optimal fraction is zero
regardless of p. Full revelation flips the answer discontinuously: the
product fraction * signal equals 2p - 1 and terminal wealth is
1 + (2p - 1) * jump. Quadrature truncates the residual support, so the
computed optimum is a small interior point that shrinks as the quadrature
range grows.

The scenario tree provides exact conditional expectations under partition
ladders (observe the first min(level, n) branching coordinates), the
discrete form of projecting onto the strict past of a filtration.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import (
    InvalidSpec, NonNestedPartitions, QuadratureUnderResolved, as_floats,
    as_int,
)
from .market import per_step, physical_memory

WEALTH_MARGIN = 1e-10
# Most Gauss-Hermite nodes a market takes. numpy's rules are non-finite
# from 372 nodes on, and building one costs about n^3: 2.3 s at 3000 nodes.
MAX_QUAD_NODES = 1000


@dataclass(frozen=True)
class OnePeriodMarket:
    """One-period jump market with a dyadic-Gaussian signal.

    level is the signal truncation (None = full revelation). signal_mean is
    the conditional mean of the observed digit prefix; zero is the centered
    slice where symmetry pins the optimum at exactly zero.
    """

    p: float
    level: object = None
    quad_nodes: int = 201
    quad_range: float = 8.0
    signal_mean: float = 0.0

    def __post_init__(self):
        vars(self).update(
            p=float(as_floats(self.p, "p", 0)),
            level=None if self.level is None else as_int(self.level, "level", 1),
            quad_nodes=as_int(self.quad_nodes, "quad_nodes", 3),
            quad_range=float(as_floats(self.quad_range, "quad_range", 0)),
            signal_mean=float(as_floats(self.signal_mean, "signal_mean", 0)))
        if not 0.0 < self.p < 1.0:
            raise InvalidSpec(f"jump probability must be in (0, 1), got {self.p}")
        if not self.quad_range > 0.0:
            raise InvalidSpec(f"quad_range must be positive, got {self.quad_range}")
        if self.quad_nodes > MAX_QUAD_NODES:
            raise QuadratureUnderResolved(
                f"Gauss-Hermite rule with {self.quad_nodes} nodes is not "
                "finite; use fewer nodes"
            )

    def residual_std(self):
        """Std of the unobserved dyadic tail: the digit-j term is 2^-j
        times a standard Gaussian, so the tail variance is 4^-n / 3."""
        if self.level is None:
            return 0.0
        return float(2.0 ** -self.level / np.sqrt(3.0))

    def hermite_rule(self):
        """Gauss-Hermite nodes and weights of quad_nodes points; no level
        changes them."""
        with np.errstate(over="ignore", invalid="ignore"):
            return hermgauss(self.quad_nodes)

    def quadrature(self, rule=None):
        """Signal nodes and weights for the conditional law at this level.

        Gauss-Hermite nodes (rule, built here if not given) outside
        quad_range standard deviations are dropped and the weights
        renormalized to sum to one.
        """
        x, w = self.hermite_rule() if rule is None else rule
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
            raise QuadratureUnderResolved(
                f"Gauss-Hermite rule with {self.quad_nodes} nodes is not "
                "finite; use fewer nodes"
            )
        keep = np.abs(x) * np.sqrt(2.0) <= self.quad_range
        x, w = x[keep], w[keep]
        if not np.sum(w) > 0.0:  # no node in range, or 371 zero weights
            raise QuadratureUnderResolved(
                f"Gauss-Hermite rule with {self.quad_nodes} nodes has no "
                f"weight within {self.quad_range} standard deviations; widen "
                "the range or use fewer nodes"
            )
        w = w / np.sum(w)
        pts = self.signal_mean + self.residual_std() * np.sqrt(2.0) * x
        return pts, w


@dataclass
class OnePeriodResult:
    theta_star: object
    theta_times_signal: object
    wealth_values: np.ndarray
    wealth_probs: np.ndarray
    expected_log: float
    interior: bool = True


def _log_wealth_derivative(theta, pts, w, p):
    up = 1.0 + theta * pts
    down = 1.0 - theta * pts
    return float(np.sum(w * pts * (p / up - (1.0 - p) / down)))


def one_period_optimal(market, rule=None):
    """Optimal fraction and terminal wealth of the one-period market.

    Full revelation: the product theta * signal equals 2p - 1 and the
    wealth law is {1 + (2p - 1), 1 - (2p - 1)} with probabilities {p, 1-p}.
    Finite level: expected log wealth is maximized by quadrature over the
    Gaussian residual. The centered slice has an interior optimum at zero
    by symmetry; off-center slices may clamp at the positivity cap
    1 / max|node|, reported with interior=False. rule is the market's
    hermite_rule, built here if not given.
    """
    p = market.p
    if market.level is None:
        u = 2.0 * p - 1.0
        values = np.array([1.0 + u, 1.0 - u])
        probs = np.array([p, 1.0 - p])
        elog = float(p * np.log(values[0]) + (1.0 - p) * np.log(values[1])) \
            if min(values) > 0.0 else -np.inf
        return OnePeriodResult(theta_star=None, theta_times_signal=u,
                               wealth_values=values, wealth_probs=probs,
                               expected_log=elog)
    pts, w = market.quadrature(rule)
    s_max = float(np.max(np.abs(pts)))
    if s_max == 0.0:
        return OnePeriodResult(theta_star=0.0, theta_times_signal=0.0,
                               wealth_values=np.array([1.0, 1.0]),
                               wealth_probs=np.array([p, 1.0 - p]),
                               expected_log=0.0)
    if np.min(pts) >= 0.0 or np.max(pts) <= 0.0:
        raise QuadratureUnderResolved(
            "node support does not straddle zero; widen the quadrature range"
        )
    cap = (1.0 - WEALTH_MARGIN) / s_max
    d_lo = _log_wealth_derivative(-cap, pts, w, p)
    d_hi = _log_wealth_derivative(cap, pts, w, p)
    interior = d_lo > 0.0 > d_hi
    if interior:
        from scipy.optimize import brentq  # only this branch needs scipy.optimize

        theta = brentq(_log_wealth_derivative, -cap, cap, args=(pts, w, p),
                       xtol=1e-14, rtol=1e-15)
    else:
        # the derivative never flips sign inside the positivity interval:
        # the optimum sits at the cap (far-tail node weights underflow, so
        # the boundary penalty is invisible to the quadrature)
        theta = cap if d_hi >= 0.0 else -cap
    up = 1.0 + theta * pts
    down = 1.0 - theta * pts
    values = np.concatenate((up, down))
    probs = np.concatenate((p * w, (1.0 - p) * w))
    elog = float(np.sum(probs * np.log(values)))
    return OnePeriodResult(theta_star=float(theta),
                           theta_times_signal=float(theta * market.signal_mean),
                           wealth_values=values, wealth_probs=probs,
                           expected_log=elog, interior=interior)


def discontinuity_report(p, levels, **market_kwargs):
    """Terminal-wealth gap between each truncation level and full revelation.

    The revealed-market wealth is 1 + (2p - 1) * jump; every finite level
    optimizes to a near-zero fraction, so its conditional-mean wealth stays
    at one and the gap sits at |2p - 1| for every level.
    """
    levels = [as_int(n, "levels", 1) for n in as_floats(levels, "levels", 1)]
    if not levels:
        raise InvalidSpec("levels must list at least one level")
    revealed = one_period_optimal(OnePeriodMarket(p=p, level=None))
    rule = OnePeriodMarket(p=p, **market_kwargs).hermite_rule()
    rows = {"level": [], "theta_star": [], "gap": []}
    for n in levels:
        market = OnePeriodMarket(p=p, level=n, **market_kwargs)
        res = one_period_optimal(market, rule)
        pts, w = market.quadrature(rule)
        step = res.theta_star * float(np.sum(w * pts))
        mean_up, mean_down = 1.0 + step, 1.0 - step
        gap = max(abs(mean_up - revealed.wealth_values[0]),
                  abs(mean_down - revealed.wealth_values[1]))
        rows["level"].append(n)
        rows["theta_star"].append(res.theta_star)
        rows["gap"].append(gap)
    return rows


# ---------------------------------------------------------------------------
# Finite binary scenario tree with exact conditional expectations.

@dataclass(frozen=True)
class ScenarioTree:
    """Binary tree of a given depth with per-level up probabilities.

    Scenarios are indexed by the integer whose binary digits (most
    significant first) are the branch choices; digit 1 is the "up" branch
    with the level's probability.
    """

    depth: int
    up_probs: np.ndarray = None
    clock_increments: np.ndarray = None

    def __post_init__(self):
        vars(self).update(depth=as_int(self.depth, "tree depth", 1))
        # every run holds a level process, (depth + 1, 2**depth) floats
        nbytes = 8 * (self.depth + 1) * 2 ** self.depth
        if nbytes > min(np.iinfo(np.intp).max, physical_memory() or np.inf):
            raise InvalidSpec(f"tree depth {self.depth} too large: its (depth "
                              "+ 1, 2**depth) arrays need more bytes than "
                              "numpy can index or the process's memory holds")
        up = as_floats(np.full(self.depth, 0.5) if self.up_probs is None
                       else self.up_probs, "up_probs")
        if up.shape != (self.depth,) or not np.all((up > 0.0) & (up < 1.0)):
            raise InvalidSpec("up probabilities must be in (0, 1) per level")
        dg = as_floats(np.full(self.depth, 1.0 / self.depth)
                       if self.clock_increments is None
                       else self.clock_increments, "clock_increments")
        if dg.shape != (self.depth,) or not np.all(dg >= 0.0):
            raise InvalidSpec("clock increments must be nonnegative per level")
        vars(self).update(up_probs=up, clock_increments=dg)

    @property
    def n_scenarios(self):
        return 2 ** self.depth

    def scenario_bits(self):
        idx = np.arange(self.n_scenarios)
        shifts = np.arange(self.depth - 1, -1, -1)
        return (idx[:, None] >> shifts[None, :]) & 1

    def scenario_probs(self):
        bits = self.scenario_bits()
        q = self.up_probs[None, :]
        return np.prod(np.where(bits == 1, q, 1.0 - q), axis=1)

    def condition(self, values, observed_levels):
        """Conditional expectation of leaf values given the first
        ``observed_levels`` branch coordinates, returned per scenario."""
        values = np.asarray(values, dtype=float)
        k = int(np.clip(observed_levels, 0, self.depth))
        probs = self.scenario_probs()
        block = 2 ** (self.depth - k)
        v = values.reshape(2 ** k, block)
        pr = probs.reshape(2 ** k, block)
        cond = np.sum(v * pr, axis=1) / np.sum(pr, axis=1)
        return np.repeat(cond, block)


def tree_predictable_projection(tree, chi, n):
    """Conditional expectation of the level-t value given the strict past
    of the capped filtration: at level t the observer knows the first
    min(t - 1, n) branch coordinates. n = tree.depth reproduces the
    uncapped projection."""
    proc = per_step(chi, tree.depth + 1, (tree.n_scenarios,), "process chi")
    out = np.empty_like(proc)
    for level in range(tree.depth + 1):
        observed = min(max(level - 1, 0), n)
        out[level] = tree.condition(proc[level], observed)
    return out


def tree_projection_convergence(tree, chi, caps):
    """Clock-weighted gap between capped and uncapped projections.

    Returns per-cap, per-scenario sums over levels 1..depth of
    |projection_n - projection_full| * clock increment, plus their
    expectation under the scenario probabilities. Caps must lie in
    0..depth and strictly increase, so the partitions are nested.
    """
    caps = [as_int(n, "caps", 0, tree.depth) for n in as_floats(caps, "caps", 1)]
    if not caps:
        raise InvalidSpec("caps must list at least one cap")
    if any(b <= a for a, b in zip(caps, caps[1:])):
        raise NonNestedPartitions(
            f"cap ladder {caps} is not strictly increasing"
        )
    full = tree_predictable_projection(tree, chi, tree.depth)
    dg = tree.clock_increments
    probs = tree.scenario_probs()
    per_scenario = np.empty((len(caps), tree.n_scenarios))
    for i, n in enumerate(caps):
        capped = tree_predictable_projection(tree, chi, n)
        gap = np.abs(capped[1:] - full[1:])
        per_scenario[i] = np.sum(gap * dg[:, None], axis=0)
    return {
        "caps": caps,
        "per_scenario": per_scenario,
        "expected": np.sum(per_scenario * probs, axis=1),
    }

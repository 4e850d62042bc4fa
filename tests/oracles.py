"""Independent reference implementations used to freeze expected values.

Everything here is deliberately brute force: grid search instead of the
projected solver, particle filters instead of conjugate updates, explicit
scenario enumeration instead of reshape tricks. Slow but unambiguous.
"""

import numpy as np
from scipy.optimize import nnls

from growthlab.constraints import (
    Ball, Box, FullSpace, HalfspacePolytope, Intersection, NonnegativeOrthant,
)


def quadratic_growth(c, a, pts):
    """g(f) = <f, a>_c - 0.5 |f|_c^2 evaluated on rows of pts."""
    ca = c @ a
    return pts @ ca - 0.5 * np.einsum("ki,ij,kj->k", pts, c, pts)


def einsum_wealth(b, f, a):
    """(dB, dL) of fractions f, (N, d) or (P, N, d), measured under drift a,
    (N, d) or (P, N, d), on bundle b: the per-step einsum formulas, with no
    matmul kernel."""
    if a.ndim == 3 or f.ndim == 3:
        f = np.broadcast_to(f, b.dM.shape)
        ca = np.einsum("kij,pkj->pki", b.cov, np.broadcast_to(a, b.dM.shape))
        lin = np.einsum("pki,pki->pk", f, ca)
        quad = np.einsum("pki,kij,pkj->pk", f, b.cov, f)
        return (lin - 0.5 * quad) * b.dG[None, :], \
            np.einsum("pki,pki->pk", f, b.dM)
    ca = np.einsum("kij,kj->ki", b.cov, a)
    lin = np.einsum("ki,ki->k", f, ca)
    quad = np.einsum("ki,kij,kj->k", f, b.cov, f)
    return np.broadcast_to((lin - 0.5 * quad) * b.dG, b.dM.shape[:2]), \
        np.einsum("ki,pki->pk", f, b.dM)


def member_mask(constraint, pts, tol=1e-9):
    """Vectorized membership test straight from the set definitions."""
    if isinstance(constraint, FullSpace):
        return np.ones(len(pts), dtype=bool)
    if isinstance(constraint, Ball):
        return np.linalg.norm(pts, axis=1) <= constraint.radius + tol
    if isinstance(constraint, Box):
        lo = np.all(pts >= np.asarray(constraint.lower) - tol, axis=1)
        hi = np.all(pts <= np.asarray(constraint.upper) + tol, axis=1)
        return lo & hi
    if isinstance(constraint, NonnegativeOrthant):
        return np.all(pts >= -tol, axis=1)
    if isinstance(constraint, HalfspacePolytope):
        vals = pts @ np.asarray(constraint.normals).T
        return np.all(vals <= np.asarray(constraint.offsets) + tol, axis=1)
    if isinstance(constraint, Intersection):
        mask = np.ones(len(pts), dtype=bool)
        for member in constraint.members:
            mask &= member_mask(member, pts, tol)
        return mask
    raise TypeError(f"no membership rule for {type(constraint).__name__}")


def grid_argmax_fraction(c, a, constraint, n_points=41, n_stages=5,
                         radius=None):
    """Hierarchical grid argmax of the growth objective over the set.

    Returns the best feasible grid point after shrinking the window around
    the incumbent; the final cell size is returned alongside the point.
    """
    d = len(a)
    if radius is None:
        radius = 2.0 * float(np.linalg.norm(a)) + 1.0
    center = np.zeros(d)
    half = radius
    best = None
    for _ in range(n_stages):
        axes = [np.linspace(center[i] - half, center[i] + half, n_points)
                for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        feasible = member_mask(constraint, pts)
        if not np.any(feasible):
            raise ValueError("grid missed the constraint set entirely")
        pts = pts[feasible]
        values = quadratic_growth(c, a, pts)
        best = pts[np.argmax(values)]
        cell = 2.0 * half / (n_points - 1)
        center = best
        half = 4.0 * cell
    return best, 2.0 * half / (n_points - 1)


def ball_kkt_fraction(c, a, radius, tol=1e-14):
    """Closed-form-style ball solution via the KKT multiplier.

    Unconstrained maximizer is a itself; otherwise f = (c + mu I)^-1 c a
    with mu > 0 picked by bisection so |f| = radius.
    """
    a = np.asarray(a, dtype=float)
    if np.linalg.norm(a) <= radius:
        return a.copy()
    ca = c @ a

    def norm_at(mu):
        f = np.linalg.solve(c + mu * np.eye(len(a)), ca)
        return np.linalg.norm(f)

    lo, hi = 0.0, 1.0
    while norm_at(hi) > radius:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm_at(mid) > radius:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    mu = 0.5 * (lo + hi)
    return np.linalg.solve(c + mu * np.eye(len(a)), ca)


def ball_ladder_bound(cov, drift, dG, radii, limit_radius):
    """Step-by-step reference of the constraint ladder's deterministic part
    for balls about 0 closing on a limit ball, from ball_kkt_fraction and
    the closed-form distance |min(r_n, m) - min(r, m)| of two balls cut at
    m = |a_k|_c. Per rung: the steps outside the bound's proved regime
    (m > 0, lambda_max(c_k) <= 4, both fractions in B(m)), the worst
    |phi_n - phi|_c^2 - 4 m dist over the other steps (0 when there is
    none), the largest distance over the steps with m > 0, and the gap of
    the two growth integrals."""
    def growth(k, f):
        return (f @ cov[k] @ drift[k] - 0.5 * f @ cov[k] @ f) * dG[k]

    steps = range(len(dG))
    limit = [ball_kkt_fraction(cov[k], drift[k], limit_radius) for k in steps]
    growth_inf = sum(growth(k, limit[k]) for k in steps)
    rungs = []
    for r_n in radii:
        unchecked, worst, dist, growth_n = 0, None, 0.0, 0.0
        for k in steps:
            phi = ball_kkt_fraction(cov[k], drift[k], r_n)
            growth_n += growth(k, phi)
            m = np.sqrt(max(drift[k] @ cov[k] @ drift[k], 0.0))
            if m <= 0.0:
                unchecked += 1
                continue
            d = abs(min(r_n, m) - min(limit_radius, m))
            dist = max(dist, d)
            if (np.linalg.eigvalsh(cov[k])[-1] > 4.0
                    or np.linalg.norm(phi) > m
                    or np.linalg.norm(limit[k]) > m):
                unchecked += 1
                continue
            gap = phi - limit[k]
            excess = gap @ cov[k] @ gap - 4.0 * m * d
            worst = excess if worst is None else max(worst, excess)
        rungs.append({"unchecked": unchecked,
                      "excess": 0.0 if worst is None else worst,
                      "set_distance": dist,
                      "growth_gap": abs(growth_n - growth_inf)})
    return rungs


def kkt_violation(c, a, f, normals, offsets, radius):
    """How far f is from the maximizer of <f, a>_c - |f|_c^2 / 2 over
    {f : N f <= b, |f| <= radius}: the larger of f's primal violation and
    the NNLS residual of c (a - f) = N_A^T nu + mu f with nu, mu >= 0, N_A
    the rows active within 1e-9 and f a column only where |f| = radius
    within 1e-9. Zero exactly at the maximizer (up to rounding), for any
    choice among degenerate multipliers."""
    f = np.asarray(f, dtype=float)
    normals = np.asarray(normals, dtype=float).reshape(-1, len(f))
    excess = normals @ f - offsets
    norm = np.linalg.norm(f)
    primal = max(0.0, norm - radius, *excess)
    cols = list(normals[excess >= -1e-9])
    if norm >= radius - 1e-9:
        cols.append(f)
    target = c @ (np.asarray(a, dtype=float) - f)
    if not cols:
        return max(primal, float(np.linalg.norm(target)))
    return max(primal, nnls(np.array(cols).T, target)[1])


def particle_posterior_mean(theta_prior, v, cov_steps, dG, dS, noise_scale,
                            observed_noisy, n_particles=200_000, seed=0):
    """Particle-filter posterior mean of the latent drift scale.

    Weights particles by the noisy peek and by the per-step law of the
    one-dimensional statistic v' dS ~ N(theta * v'cv dG, v'cv dG). Returns
    the posterior mean of theta given everything up to each step boundary
    (predictable version: step k uses increments strictly before k).
    """
    rng = np.random.default_rng(seed)
    mu0, s0 = theta_prior
    particles = mu0 + s0 * rng.standard_normal(n_particles)
    log_w = np.zeros(n_particles)
    if noise_scale is not None:
        log_w += -0.5 * ((observed_noisy - particles) / noise_scale) ** 2
    n_steps = len(dG)
    stat = np.array([v @ dS[k] for k in range(n_steps)])
    rate = np.array([v @ cov_steps[k] @ v * dG[k] for k in range(n_steps)])
    means = np.empty(n_steps)
    for k in range(n_steps):
        w = np.exp(log_w - log_w.max())
        means[k] = float(np.sum(w * particles) / np.sum(w))
        if rate[k] > 0.0:
            log_w += -0.5 * (stat[k] - particles * rate[k]) ** 2 / rate[k]
    return means


def enumerate_tree_projection(depth, probs, values, observed):
    """Conditional expectation on a binary tree by explicit grouping."""
    n = 2 ** depth
    out = np.empty(n)
    groups = {}
    for leaf in range(n):
        key = leaf >> (depth - observed) if observed < depth else leaf
        groups.setdefault(key, []).append(leaf)
    for leaves in groups.values():
        p = sum(probs[i] for i in leaves)
        m = sum(probs[i] * values[i] for i in leaves) / p
        for i in leaves:
            out[i] = m
    return out


def support_scan(constraint, dirs, radius, n_grid):
    """Support of constraint ∩ ball(radius) on each unit direction, as the
    largest <u, x> over member_mask points of an n_grid^d grid on
    [-radius, radius]^d inside the ball. Every scanned point is feasible, so
    the scan never exceeds the true support; returns it with the grid
    spacing, which bounds how far below the support it can fall."""
    dirs = np.atleast_2d(dirs)
    axis = np.linspace(-radius, radius, n_grid)
    mesh = np.meshgrid(*[axis] * dirs.shape[1], indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pts = pts[np.linalg.norm(pts, axis=1) <= radius]
    pts = pts[member_mask(constraint, pts)]
    return np.array([np.max(pts @ u) for u in dirs]), axis[1] - axis[0]


def mc_one_period_log_wealth(p, level, theta_grid, n_samples=2_000_000,
                             seed=5, signal_mean=0.0):
    """Monte Carlo expected log wealth over a theta grid.

    Residual signal is N(signal_mean, 4^-level / 3); the jump is +1 with
    probability p. Wealth 1 + theta * signal * jump must stay positive on
    the sample, otherwise the theta is marked -inf.
    """
    rng = np.random.default_rng(seed)
    sigma = 2.0 ** -level / np.sqrt(3.0)
    s = signal_mean + sigma * rng.standard_normal(n_samples)
    out = np.empty(len(theta_grid))
    for i, theta in enumerate(theta_grid):
        up = 1.0 + theta * s
        down = 1.0 - theta * s
        if np.min(up) <= 0.0 or np.min(down) <= 0.0:
            out[i] = -np.inf
            continue
        out[i] = float(np.mean(p * np.log(up) + (1.0 - p) * np.log(down)))
    return out


def expansion_limits(bundle, record):
    """First- and second-order limit paths of the tilt expansion, each
    (P, N + 1) and cumulative from zero, straight from the formulas: with
    lam0 = Z1_- lam1, the first order is sum <lam0, dM> and the second
    -(1/2) sum |lam0|_c^2 dG - sum <lam0 (Z1_- - 1), dM>."""
    n_paths, n_steps, dim = bundle.dM.shape
    z_left = record.z[:, :-1]
    lam0 = z_left[:, :, None] * record.lam1[None, :, :]
    cov = np.broadcast_to(bundle.cov, (n_steps, dim, dim))
    mart = np.einsum("pki,pki->pk", lam0, bundle.dM)
    energy = np.einsum("pki,kij,pkj->pk", lam0, cov, lam0) * bundle.dG
    second = -0.5 * energy - (z_left - 1.0) * mart
    zero = np.zeros((n_paths, 1))
    return (np.concatenate((zero, np.cumsum(mart, axis=1)), axis=1),
            np.concatenate((zero, np.cumsum(second, axis=1)), axis=1))


def expansion_order(eps, errors, squared=False):
    """Order in eps of the mean of per-path errors (L, P) on the eps ladder,
    from its definition: the degree-one polyfit slope of log mean error on
    log eps, halved for a squared distance (order 2 in eps is order 1 of the
    distance). None when every mean is zero."""
    means = np.asarray(errors).mean(axis=1)
    if not np.any(means > 0.0):
        return None
    slope = np.polyfit(np.log(eps), np.log(means), 1)[0]
    return float(slope / 2.0 if squared else slope)


def delta_slope_cov(scales, arrs, step=1e-3):
    """Point slopes of (L, P) columns arrs on one set of paths and the
    delta-method covariance of those slopes (Oehlert 1992), from the
    definition: the slope is the degree-one polyfit slope of log rung mean
    on log(1/scale), its gradient in the rung means is a five-point central
    difference with a relative step, and the rung means of all columns have
    covariance np.cov / P."""
    x = -np.log(np.asarray(scales, dtype=float))
    n_l, n_p = arrs[0].shape

    def slope(means):
        return np.polyfit(x, np.log(means), 1)[0]

    jac = np.zeros((len(arrs), len(arrs) * n_l))
    for k, arr in enumerate(arrs):
        means = arr.mean(axis=1)
        for l in range(n_l):
            h = step * means[l]
            at = [slope(means + t * h * (np.arange(n_l) == l))
                  for t in (-2, -1, 1, 2)]
            jac[k, k * n_l + l] = (at[0] - 8 * at[1] + 8 * at[2] - at[3]) \
                / (12 * h)
    cov = jac @ (np.cov(np.vstack(arrs)) / n_p) @ jac.T
    return np.array([slope(arr.mean(axis=1)) for arr in arrs]), cov


def delta_slope_interval(scales, arr, step=1e-3):
    """95% interval s + shift -/+ 1.96 se of one (L, P) column's slope:
    se from delta_slope_cov, and shift the second-order term that takes it
    to the percentile bootstrap's interval (Hall 1992, sec. 3.5), from the
    definition: with a_i and a_ij the gradient and Hessian of the polyfit
    slope in the rung means (five-point differences on the diagonal, four
    corners off it) and m_ij, m_ijk the rungs' central moments on 1/P,
    shift = sum a_ij m_ij / 2P + (sum a_i a_j a_k m_ijk + 3 sum a_i a_j
    a_kl m_ik m_jl) (1.96^2 - 1) / (6 P a' m a)."""
    x = -np.log(np.asarray(scales, dtype=float))
    n_l, n_p = arr.shape
    means = arr.mean(axis=1)
    h = step * means

    def slope(*moves):  # moves: (rung, steps of h) pairs
        at = means.copy()
        for l, t in moves:
            at[l] += t * h[l]
        return np.polyfit(x, np.log(at), 1)[0]

    grad = np.array([(slope((l, -2)) - 8 * slope((l, -1)) + 8 * slope((l, 1))
                      - slope((l, 2))) / (12 * h[l]) for l in range(n_l)])
    hess = np.array([[
        (-slope((k, 2)) + 16 * slope((k, 1)) - 30 * slope()
         + 16 * slope((k, -1)) - slope((k, -2))) / (12 * h[k] ** 2) if k == l
        else (slope((k, 1), (l, 1)) - slope((k, 1), (l, -1))
              - slope((k, -1), (l, 1)) + slope((k, -1), (l, -1)))
        / (4 * h[k] * h[l]) for l in range(n_l)] for k in range(n_l)])
    dev = arr - means[:, None]
    m2 = dev @ dev.T / n_p
    m3 = np.einsum("ip,jp,kp->ijk", dev, dev, dev) / n_p
    var = grad @ m2 @ grad
    skew = np.einsum("i,j,k,ijk->", grad, grad, grad, m3) \
        + 3 * np.einsum("i,j,kl,ik,jl->", grad, grad, hess, m2, m2)
    shift = np.sum(hess * m2) / (2 * n_p) \
        + skew * (1.96 ** 2 - 1) / (6 * n_p * var)
    slopes, cov = delta_slope_cov(scales, [arr], step)
    half = 1.96 * np.sqrt(max(cov[0, 0], 0.0))
    return slopes[0] + shift - half, slopes[0] + shift + half


def percentile_bootstrap_interval(scales, arr, n_boot, seed):
    """2.5% and 97.5% quantiles of the polyfit slope of log rung means over
    n_boot resamples of the paths of one (L, P) column, drawn with
    replacement by rng.integers in blocks of 1000."""
    x = -np.log(np.asarray(scales, dtype=float))
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n_boot // 1000):
        means = arr[:, rng.integers(0, arr.shape[1], (1000, arr.shape[1]))]
        draws.extend(np.polyfit(x, np.log(means.mean(axis=2)), 1)[0])
    return tuple(np.percentile(draws, [2.5, 97.5]))

"""Closed convex constraint sets with exact projections and support functions.

Every set contains the origin (validated), which keeps the zero portfolio
feasible, and every set is a polyhedron cut by a ball about the origin:
halfspaces(dim) describes it as {x : N x <= b, |x| <= r}. Membership, the
support function of the set truncated at a radius and the nearest point in a
weighted metric come from that one description; the last two are exact
through a finite KKT enumeration over the faces that faces walks, one SVD
for each set of independent rows whose plane meets the ball. Balls, boxes,
the orthant and the full space keep their closed-form Euclidean
projections; polytopes and intersections project through nearest_points,
which also serves the growth solve. The Hausdorff distance between
truncated sets is the largest support gap over a deterministic direction
net; with exact supports that is a lower bound of the true distance,
converging to it as the net refines. Closed forms replace the net wherever
they exist.
"""

import functools
import itertools

import numpy as np

from .errors import (
    _SHOWN, DimensionMismatch, InfeasibleConstraint, NonConvergence, as_floats,
)

_NET_SEED = 20260817
NET_DIRECTIONS = 4096  # direction net behind every numeric set distance
CONTAINS_TOL = 1e-9  # slack of every membership test
SOLVER_MAX_ITER = 100_000  # Newton steps of secular_newton


@functools.lru_cache(maxsize=None)
def direction_net(dim):
    """Deterministic net of NET_DIRECTIONS unit vectors: angular grid in 2d,
    antipodal pair in 1d, low-discrepancy Sobol points pushed to the sphere
    in higher d."""
    if dim < 1:
        raise DimensionMismatch(f"direction net needs dim >= 1, got {dim}")
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, NET_DIRECTIONS, endpoint=False)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    from scipy import special, stats  # slow to import: Sobol nets only

    sob = stats.qmc.Sobol(d=dim, scramble=True, seed=_NET_SEED)
    u = sob.random(NET_DIRECTIONS)
    z = special.ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1)
    norms[norms < 1e-12] = 1.0
    return z / norms[:, None]


class ConstraintSet:
    """Closed convex subset of R^d containing the origin."""

    def validate(self, dim):
        """Check the set against R^dim and return it."""
        return self

    def halfspaces(self, dim):
        """(N, b, r) with the set equal to {x in R^dim : N x <= b, |x| <= r}."""
        raise NotImplementedError

    def contains(self, x):
        """Membership of x's rows, up to CONTAINS_TOL."""
        x = np.asarray(x, dtype=float)
        return inside(x, *self.halfspaces(x.shape[-1]), CONTAINS_TOL)

    def project(self, x):
        """Exact Euclidean projection, vectorized over leading axes. It
        must leave x as it is."""
        x = np.asarray(x, dtype=float)
        rows = x.reshape(-1, x.shape[-1])
        dim = rows.shape[1]
        return nearest_points(rows, np.ones(dim), np.eye(dim),
                              *self.halfspaces(dim)).reshape(x.shape)

    def support_truncated(self, dirs, radius):
        """Support function of (set ∩ ball(radius)) on unit directions, never
        below 0. By KKT the maximizer of <u, x> is the sphere point r u or,
        for some face that faces yields, its foot or the sphere point foot +
        left P u / |P u|, with left the radius left for the plane and P the
        projector onto its directions. Every such point that is feasible is
        a candidate: exact, and never above the support."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        dim = dirs.shape[1]
        normals, offsets, r = self.halfspaces(dim)
        r = min(r, float(radius))
        tol = CONTAINS_TOL * max(1.0, r)
        # S empty: the sphere point r u, worth r
        best = np.where(inside(r * dirs, normals, offsets, np.inf, tol), r, 0.0)
        for rows, foot, null, left, _ in faces(normals, offsets, r, dim):
            if inside(foot, normals, offsets, np.inf, tol):
                best = np.maximum(best, np.sum(foot * dirs, axis=1))
            if len(rows) < dim:
                along = (dirs @ null) @ null.T
                norms = np.linalg.norm(along, axis=1, keepdims=True)
                pts = foot + left * along / np.maximum(norms, 1e-300)
                # a rounding-sized P u points anywhere: check the ball too
                ok = inside(pts, normals, offsets, r, tol)
                best = np.where(ok, np.maximum(best, np.sum(pts * dirs, axis=1)), best)
        return best

    def to_config(self):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self.to_config() == other.to_config()

    def __hash__(self):
        return hash(repr(self.to_config()))

    def __repr__(self):
        return f"{type(self).__name__}({self.to_config()})"


class FullSpace(ConstraintSet):
    def halfspaces(self, dim):
        return np.zeros((0, dim)), np.zeros(0), np.inf

    def to_config(self):
        return {"type": "full_space"}


class Ball(ConstraintSet):
    """Euclidean ball of given radius centered at the origin."""

    def __init__(self, radius):
        self.radius = float(as_floats(radius, "radius", 0))
        if not self.radius > 0.0:
            raise InfeasibleConstraint(f"ball radius must be positive, got {self.radius}")

    def halfspaces(self, dim):
        return np.zeros((0, dim)), np.zeros(0), self.radius

    def project(self, x):
        x = np.asarray(x, dtype=float)
        return _clamp(x.reshape(-1, x.shape[-1]), self.radius).reshape(x.shape)

    def to_config(self):
        return {"type": "ball", "radius": self.radius}


class Box(ConstraintSet):
    """Axis-aligned box [lower, upper] per coordinate; must straddle 0."""

    def __init__(self, lower, upper):
        self.lower = as_floats(lower, "lower").ravel()
        self.upper = as_floats(upper, "upper").ravel()

    def validate(self, dim):
        if self.lower.size != dim or self.upper.size != dim:
            raise DimensionMismatch(
                f"box bounds have size {self.lower.size}/{self.upper.size}, expected {dim}"
            )
        if np.any(self.lower > 0.0) or np.any(self.upper < 0.0):
            raise InfeasibleConstraint("box must contain the origin: lower <= 0 <= upper")
        if np.any(self.lower > self.upper):
            raise InfeasibleConstraint("box has lower > upper")
        return self

    def halfspaces(self, dim):
        eye = np.eye(self.lower.size)
        return np.vstack([eye, -eye]), np.concatenate([self.upper, -self.lower]), np.inf

    def project(self, x):
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def corner_radius(self):
        return float(np.linalg.norm(np.maximum(np.abs(self.lower), np.abs(self.upper))))

    def vertices(self):
        cols = [(lo, hi) for lo, hi in zip(self.lower, self.upper)]
        return np.array(list(itertools.product(*cols)))

    def to_config(self):
        return {"type": "box", "lower": self.lower.tolist(), "upper": self.upper.tolist()}


class NonnegativeOrthant(ConstraintSet):
    def halfspaces(self, dim):
        return -np.eye(dim), np.zeros(dim), np.inf

    def to_config(self):
        return {"type": "nonnegative_orthant"}


class HalfspacePolytope(ConstraintSet):
    """Intersection of halfspaces {x : <n_i, x> <= b_i} with b_i >= 0."""

    def __init__(self, normals, offsets):
        self.normals = np.atleast_2d(as_floats(normals, "normals"))
        self.offsets = as_floats(offsets, "offsets").ravel()

    def validate(self, dim):
        if self.normals.ndim != 2 or self.normals.shape[1] != dim:
            raise DimensionMismatch(f"polytope normals must have shape "
                                    f"(m, {dim}), got {self.normals.shape}")
        if self.normals.shape[0] != self.offsets.size:
            raise DimensionMismatch("one offset per halfspace required")
        if np.any(np.linalg.norm(self.normals, axis=1) < 1e-12):
            raise InfeasibleConstraint("zero normal vector in polytope")
        if np.any(self.offsets < 0.0):
            raise InfeasibleConstraint("polytope must contain the origin: offsets >= 0")
        return self

    def halfspaces(self, dim):
        return self.normals, self.offsets, np.inf

    def to_config(self):
        return {
            "type": "polytope",
            "normals": self.normals.tolist(),
            "offsets": self.offsets.tolist(),
        }


class Intersection(ConstraintSet):
    def __init__(self, members):
        self.members = list(members)
        if not self.members:
            raise InfeasibleConstraint("intersection needs at least one member")

    def validate(self, dim):
        for m in self.members:
            m.validate(dim)
        return self

    def halfspaces(self, dim):
        parts = [m.halfspaces(dim) for m in self.members]
        return (np.vstack([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]), min(p[2] for p in parts))

    def to_config(self):
        return {"type": "intersection", "members": [m.to_config() for m in self.members]}


def dot_last(x, y, out=None):
    """Sum over the last axis of x * y, broadcast like einsum's
    "...i,...i->...", into out if given (a view will do): +0.0 plus each
    x_i y_i in index order: einsum's bits for d <= 2, without its slow loop
    over a short axis. scale_last and apply_last loop the same way."""
    out = np.multiply(x[..., 0], y[..., 0], out=out)
    for i in range(1, x.shape[-1]):
        out += x[..., i] * y[..., i]
    out += 0.0  # einsum starts from +0.0: -0.0 + -0.0 would stay -0.0
    return out


def scale_last(s, v, out=None):
    """s[..., None] * v, one product per coordinate of v into out[..., i]
    (out if given, a view will do): the broadcast's bits for every d."""
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(s) + (1,), v.shape))
    for i in range(out.shape[-1]):
        np.multiply(s, v[..., i], out=out[..., i])
    return out


def apply_last(m, x, out=None):
    """einsum's "...ij,...j->...i", zeros for an empty j: dot_last(x, row i
    of m) into out[..., i] (out if given), so einsum's bits for j <= 2."""
    if out is None:
        out = np.zeros(np.broadcast_shapes(m.shape[:-1], x.shape[:-1] + (1,)))
    for i in range(m.shape[-2] if m.shape[-1] else 0):
        dot_last(x, m[..., i, :], out=out[..., i])
    return out


def _norms(x):
    """np.linalg.norm(x, axis=-1), whose order below eight terms it keeps."""
    return np.sqrt(dot_last(x, x))


def _clamp(rows, r):
    """rows (n, d) with each row longer than r scaled back to length r."""
    norms = _norms(rows)
    hit = np.flatnonzero(norms > r)  # only these rows move
    out = rows.copy()
    out[hit] = scale_last(r / norms[hit], rows[hit])
    return out


def inside(x, normals, offsets, r, tol):
    """Membership of x's rows in {x : N x <= b, |x| <= r} with slack tol."""
    ok = _norms(x) <= r + tol
    if len(normals):  # a ball or the full space has no halfspace rows
        ok &= np.all(apply_last(normals, x) <= offsets + tol, axis=-1)
    return ok


def faces(normals, offsets, r, dim):
    """The faces of {y : N y <= b, |y| <= r} a KKT enumeration walks: for
    each set S of at most dim linearly independent rows of N, smallest
    first, whose plane {y : N_S y = b_S} meets the ball of radius r, yields
    S, the plane's foot (min-norm point), an orthonormal basis (dim, dim -
    |S|) of its directions, the radius left for the plane inside the ball
    and the map from a residual in the span of N_S's rows to the multipliers
    of those rows. One SVD per set gives both matrix_rank's rank test and
    the basis."""
    for k in range(1, min(len(normals), dim) + 1):
        for rows in itertools.combinations(range(len(normals)), k):
            rows = list(rows)
            a = normals[rows]
            _, s, vt = np.linalg.svd(a)
            if not s[-1] > s[0] * max(a.shape) * np.finfo(float).eps:
                continue
            gram_inv = np.linalg.inv(a @ a.T)
            foot = a.T @ (gram_inv @ offsets[rows])
            slack = r * r - foot @ foot
            if slack >= 0.0:
                yield rows, foot, vt[k:].T, np.sqrt(slack), gram_inv @ a


def secular_newton(lam, b, radius):
    """Multiplier mu >= 0 of each row of b (n, k) with |b / (lam + mu)| =
    radius, or 0 where |b / lam| is already at most radius (Moré & Sorensen,
    1983). Newton on the concave, increasing phi(mu) = 1 / |b / (lam + mu)|
    - 1 / radius rises from mu = 0 to its root without overshoot, so a row
    stops once its mu stops rising. Elementwise arithmetic and dot_last,
    unlike a BLAS matmul, keep each row's bits independent of the batch. The
    live rows' b and mu stay packed and are repacked only when a row stops."""
    mu = np.zeros(len(b))
    live, b_live, mu_live = np.arange(len(b)), b, np.zeros(len(b))
    for _ in range(SOLVER_MAX_ITER):
        shifted = lam + mu_live[:, None]
        q = b_live / shifted
        s = dot_last(q, q)
        step = s * (np.sqrt(s) / radius - 1.0) / dot_last(q, q / shifted)
        nxt = mu_live + step
        rising = nxt > mu_live
        if not rising.all():
            mu[live] = mu_live
            live, b_live, nxt = live[rising], b_live[rising], nxt[rising]
        mu_live = nxt
        if live.size == 0:
            return mu
    raise NonConvergence(f"ball multiplier did not settle in {SOLVER_MAX_ITER} "
                         f"Newton steps on {live.size} of {len(b)} rows")


def nearest_points(x, lam, basis, normals, offsets, r):
    """For each row of x (n, d), the nearest point of {basis y : N basis y
    <= b, |y| <= r} in the metric sum_i lam_i (y_i - t_i)^2, t = basis^T x.
    basis (d, k) has orthonormal columns and lam (k,) is positive.

    By KKT the nearest point is, for some set S of at most k independent
    rows of N basis, the nearest point of the plane N_S basis y = b_S within
    the ball: in a frame diagonalizing the weights on that plane it is
    secular_newton's multiplier problem. S empty comes first, then the faces
    that faces walks; a row takes the first candidate that is a member
    within CONTAINS_TOL and whose multipliers on S are at least
    -CONTAINS_TOL, so the answer is exact up to rounding, and a row left
    over raises NonConvergence. Elementwise arithmetic and apply_last, unlike
    a BLAS matmul, keep each row's bits independent of the batch."""
    t = apply_last(basis.T, x)
    walk = faces(normals @ basis, offsets, r, basis.shape[1])
    empty = ([], None, None, r, None)  # S empty: the ball in the weights lam
    live = np.arange(len(x))
    for rows, foot, null, radius, mult in itertools.chain([empty], walk):
        if rows:  # a frame of the plane's directions diagonalizing the weights
            h, turn = np.linalg.eigh((null.T * lam) @ null)
            frame = null @ turn
            b = apply_last(frame.T * lam, t - foot)
        else:
            h, b = lam, lam * t
        with np.errstate(invalid="ignore"):  # b = 0 at the foot: mu = 0
            mu = secular_newton(h, b, radius) if np.isfinite(r) and h.size \
                else np.zeros(len(t))
        y = b / (h + mu[:, None])
        if rows:
            y = foot + apply_last(frame, y)
        f = apply_last(basis, y)
        if np.isfinite(r):
            f = _clamp(f, r)
        ok = inside(f, normals, offsets, r, CONTAINS_TOL)
        if rows:
            nu = apply_last(mult, lam * (t - y) - mu[:, None] * y)
            ok &= np.all(nu >= -CONTAINS_TOL, axis=1)
            out[live[ok]] = f[ok]
        else:
            out = f  # every row; later faces overwrite the ones refused here
        live, t = live[~ok], t[~ok]
        if live.size == 0:
            return out
    raise NonConvergence(f"no face set gave a KKT point for {live.size} of "
                         f"{len(x)} rows")


def hausdorff_distance(set_a, set_b, radius, dim):
    """Hausdorff distance between set_a ∩ ball(radius) and set_b ∩ ball(radius)
    in R^dim, via the sup over the NET_DIRECTIONS-point direction net of the
    absolute support difference (the two coincide for compact convex sets).
    Lower bound, converging as the net refines."""
    if radius <= 0.0:
        return 0.0
    ha = set_a.support_truncated(direction_net(dim), radius)
    return float(np.max(np.abs(ha - _net_support(set_b, radius, dim))))


@functools.lru_cache(maxsize=1)
def _net_support(constraint, radius, dim):
    """constraint's support on direction_net(dim) at one radius, kept for
    the last (set, radius, dim) asked: the ladders compare every rung with
    one limit set at one radius in turn."""
    support = constraint.support_truncated(direction_net(dim), radius)
    support.flags.writeable = False
    return support


def truncated_pair_distance(set_a, set_b, radius, dim):
    """Distance between the radius-truncated sets, exact where a closed form
    exists (identical sets; sets with no halfspace rows, which are balls
    about 0 with r = inf for the full space; boxes strictly inside the
    truncation ball), net-based otherwise."""
    radius = float(radius)
    if radius <= 0.0 or set_a == set_b:
        return 0.0
    (rows_a, _, r_a), (rows_b, _, r_b) = (set_a.halfspaces(dim),
                                          set_b.halfspaces(dim))
    if len(rows_a) == 0 and len(rows_b) == 0:
        return abs(min(r_a, radius) - min(r_b, radius))
    if isinstance(set_a, Box) and isinstance(set_b, Box):
        if max(set_a.corner_radius(), set_b.corner_radius()) <= radius + 1e-12:
            return polytope_hausdorff_oracle(set_a, set_b)
    return hausdorff_distance(set_a, set_b, radius, dim)


def polytope_hausdorff_oracle(set_a, set_b):
    """Exact Hausdorff distance between two boxes: the sup-inf on each side
    is attained at a vertex, and point-to-set distances use the exact
    projections."""
    return float(max(np.max(np.linalg.norm(v - other.project(v), axis=1))
                     for v, other in ((set_a.vertices(), set_b),
                                      (set_b.vertices(), set_a))))


def closed_limit_distances(sequence, limit, radii, dim):
    """Table of truncated Hausdorff distances dist(K_n ∩ B(m), K ∩ B(m)) for
    each truncation radius m and each set in the sequence. Pointwise closed
    (Kuratowski) convergence shows up as every row decaying to zero."""
    radii = np.asarray(radii, dtype=float).ravel()
    table = np.zeros((radii.size, len(sequence)))
    # radius by radius, so _net_support makes the limit's supports once each
    for i, m in enumerate(radii):
        for j, k_n in enumerate(sequence):
            table[i, j] = truncated_pair_distance(k_n, limit, m, dim)
    return table


_CONFIG_KEYS = {"full_space": (), "ball": ("radius",), "box": ("lower", "upper"),
                "nonnegative_orthant": (), "polytope": ("normals", "offsets"),
                "intersection": ("members",)}


def constraint_from_config(cfg):
    """Build a ConstraintSet from a plain-dict description with exactly the
    keys _CONFIG_KEYS names for its type."""
    kind = cfg.get("type") if isinstance(cfg, dict) else None
    if not isinstance(kind, str) or kind not in _CONFIG_KEYS:
        raise InfeasibleConstraint("constraint config needs a known 'type': "
                                   f"{_SHOWN.repr(cfg)}")
    keys = _CONFIG_KEYS[kind]
    if set(cfg) != {"type", *keys}:
        got = sorted(map(str, set(cfg) - {"type"}))  # YAML keys may be numbers
        raise InfeasibleConstraint(f"{kind} config needs exactly the keys "
                                   f"{sorted(keys)}, got {_SHOWN.repr(got)}")
    if kind == "intersection":
        if not isinstance(cfg["members"], list):
            raise InfeasibleConstraint("intersection members must be a list: "
                                       f"{_SHOWN.repr(cfg)}")
        return Intersection([constraint_from_config(m) for m in cfg["members"]])
    return {"full_space": FullSpace, "ball": Ball, "box": Box,
            "nonnegative_orthant": NonnegativeOrthant,
            "polytope": HalfspacePolytope}[kind](*(cfg[key] for key in keys))

"""Closed convex constraint sets with exact projections and support functions.

Every set contains the origin (validated), which keeps the zero portfolio
feasible, and every set is a polyhedron cut by a ball about the origin:
halfspaces(dim) describes it as {x : N x <= b, |x| <= r}. Membership and the
support function of the set truncated at a radius come from that one
description. The support is exact: the best feasible point of a finite KKT
enumeration over face sets. Projections are Euclidean and exact per variant;
polytopes and intersections use Dykstra's alternating scheme. The Hausdorff
distance between truncated sets is the largest support gap over a
deterministic direction net; with exact supports that is a lower bound of the
true distance, converging to it as the net refines. Closed forms replace the
net wherever they exist.
"""

import itertools

import numpy as np
from scipy.special import ndtri

from .errors import DimensionMismatch, InfeasibleConstraint, NonConvergence

_NET_SEED = 20260817
_net_cache = {}
NET_DIRECTIONS = 4096  # direction net behind every numeric set distance
CONTAINS_TOL = 1e-9  # slack of every membership test


def direction_net(dim):
    """Deterministic net of NET_DIRECTIONS unit vectors: angular grid in 2d,
    antipodal pair in 1d, low-discrepancy Sobol points pushed to the sphere
    in higher d."""
    if dim < 1:
        raise DimensionMismatch(f"direction net needs dim >= 1, got {dim}")
    if dim in _net_cache:
        return _net_cache[dim]
    if dim == 1:
        net = np.array([[1.0], [-1.0]])
    elif dim == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, NET_DIRECTIONS, endpoint=False)
        net = np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        from scipy.stats import qmc  # slow to import; only Sobol nets need it

        sob = qmc.Sobol(d=dim, scramble=True, seed=_NET_SEED)
        u = sob.random(NET_DIRECTIONS)
        z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
        norms = np.linalg.norm(z, axis=1)
        norms[norms < 1e-12] = 1.0
        net = z / norms[:, None]
    _net_cache[dim] = net
    return net


def dykstra_project(x, projectors, tol=1e-12, max_iter=2000, raise_on_cap=False):
    """Project rows of x onto the intersection of convex sets.

    projectors is a list of callables, each an exact Euclidean projection onto
    one closed convex set. Standard Dykstra corrections; stops when a full
    cycle moves every row by less than tol.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = x.copy()
    corrections = [np.zeros_like(y) for _ in projectors]
    for _ in range(max_iter):
        y_prev = y.copy()
        for i, proj in enumerate(projectors):
            target = y + corrections[i]
            y_new = proj(target)
            corrections[i] = target - y_new
            y = y_new
        if np.max(np.abs(y - y_prev)) < tol:
            return y
    if raise_on_cap:
        raise NonConvergence(
            f"Dykstra projection did not stabilize in {max_iter} cycles"
        )
    return y


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
        normals, offsets, r = self.halfspaces(x.shape[-1])
        return (np.linalg.norm(x, axis=-1) <= r + CONTAINS_TOL) \
            & _meets_rows(x, normals, offsets, CONTAINS_TOL)

    def project(self, x):
        """Exact Euclidean projection, vectorized over leading axes. It
        must leave x as it is."""
        raise NotImplementedError

    def support_truncated(self, dirs, radius):
        """Support function of (set ∩ ball(radius)) on unit directions, never
        below 0. By KKT the maximizer of <u, x> is, for some set S of at most
        dim independent rows whose foot c_S (min-norm point of N_S x = b_S)
        lies in the ball, c_S or the sphere point c_S + sqrt(r^2 - |c_S|^2)
        P_S u / |P_S u| (P_S projects onto null(N_S)). Every such point that
        is feasible is a candidate: exact, and never above the support."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        dim = dirs.shape[1]
        normals, offsets, r = self.halfspaces(dim)
        r = min(r, float(radius))
        tol = CONTAINS_TOL * max(1.0, r)
        # S empty: the sphere point r u, worth r
        best = np.where(_meets_rows(r * dirs, normals, offsets, tol), r, 0.0)
        for k in range(1, min(len(offsets), dim) + 1):
            for rows in itertools.combinations(range(len(offsets)), k):
                a = normals[list(rows)]
                if np.linalg.matrix_rank(a) < k:
                    continue
                gram = a @ a.T
                foot = a.T @ np.linalg.solve(gram, offsets[list(rows)])
                slack = r * r - foot @ foot
                if slack < 0.0:
                    continue
                if _meets_rows(foot, normals, offsets, tol):
                    best = np.maximum(best, np.sum(foot * dirs, axis=1))
                if k < dim:
                    along = dirs - (dirs @ a.T) @ np.linalg.solve(gram, a)
                    norms = np.linalg.norm(along, axis=1, keepdims=True)
                    pts = foot + np.sqrt(slack) * along / np.maximum(norms, 1e-300)
                    # a rounding-sized P_S u points anywhere: check the ball too
                    ok = _meets_rows(pts, normals, offsets, tol) \
                        & (np.linalg.norm(pts, axis=1) <= r + tol)
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

    def project(self, x):
        return np.asarray(x, dtype=float).copy()

    def to_config(self):
        return {"type": "full_space"}


class Ball(ConstraintSet):
    """Euclidean ball of given radius centered at the origin."""

    def __init__(self, radius):
        self.radius = float(radius)
        if not np.isfinite(self.radius) or self.radius <= 0.0:
            raise InfeasibleConstraint(f"ball radius must be positive, got {self.radius}")

    def halfspaces(self, dim):
        return np.zeros((0, dim)), np.zeros(0), self.radius

    def project(self, x):
        x = np.asarray(x, dtype=float)
        rows = x.reshape(-1, x.shape[-1])
        # np.linalg.norm's summation order below eight terms, at less cost
        norms = rows[:, 0] ** 2
        for j in range(1, rows.shape[1]):
            norms += rows[:, j] ** 2
        np.sqrt(norms, out=norms)
        hit = np.flatnonzero(norms > self.radius)  # only these rows move
        out = rows.copy()
        out[hit] = rows[hit] * (self.radius / norms[hit])[:, None]
        return out.reshape(x.shape)

    def to_config(self):
        return {"type": "ball", "radius": self.radius}


class Box(ConstraintSet):
    """Axis-aligned box [lower, upper] per coordinate; must straddle 0."""

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float).ravel()
        self.upper = np.asarray(upper, dtype=float).ravel()

    def validate(self, dim):
        if self.lower.size != dim or self.upper.size != dim:
            raise DimensionMismatch(
                f"box bounds have size {self.lower.size}/{self.upper.size}, expected {dim}"
            )
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise InfeasibleConstraint("box bounds must be finite")
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

    def project(self, x):
        return np.maximum(np.asarray(x, dtype=float), 0.0)

    def to_config(self):
        return {"type": "nonnegative_orthant"}


class HalfspacePolytope(ConstraintSet):
    """Intersection of halfspaces {x : <n_i, x> <= b_i} with b_i >= 0."""

    def __init__(self, normals, offsets):
        self.normals = np.atleast_2d(np.asarray(normals, dtype=float))
        self.offsets = np.asarray(offsets, dtype=float).ravel()

    def validate(self, dim):
        if self.normals.shape[1] != dim:
            raise DimensionMismatch(
                f"polytope normals have dim {self.normals.shape[1]}, expected {dim}"
            )
        if self.normals.shape[0] != self.offsets.size:
            raise DimensionMismatch("one offset per halfspace required")
        if not (np.all(np.isfinite(self.normals))
                and np.all(np.isfinite(self.offsets))):
            raise InfeasibleConstraint("polytope normals and offsets must be finite")
        if np.any(np.linalg.norm(self.normals, axis=1) < 1e-12):
            raise InfeasibleConstraint("zero normal vector in polytope")
        if np.any(self.offsets < 0.0):
            raise InfeasibleConstraint("polytope must contain the origin: offsets >= 0")
        return self

    def halfspaces(self, dim):
        return self.normals, self.offsets, np.inf

    def project(self, x):
        x = np.asarray(x, dtype=float)
        shape = x.shape
        flat = x.reshape(-1, shape[-1])
        if self.normals.shape[0] == 1:
            out = _halfspace_project(flat, self.normals[0], self.offsets[0])
        else:
            projectors = [
                (lambda n, b: (lambda y: _halfspace_project(y, n, b)))(n, b)
                for n, b in zip(self.normals, self.offsets)
            ]
            out = dykstra_project(flat, projectors)
        return out.reshape(shape)

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

    def project(self, x):
        x = np.asarray(x, dtype=float)
        shape = x.shape
        flat = x.reshape(-1, shape[-1])
        projectors = [m.project for m in self.members]
        out = dykstra_project(flat, projectors)
        return out.reshape(shape)

    def to_config(self):
        return {"type": "intersection", "members": [m.to_config() for m in self.members]}


def _meets_rows(x, normals, offsets, tol):
    """N x <= b + tol for each row of x."""
    return np.all(x @ normals.T <= offsets + tol, axis=-1)


def _halfspace_project(x, normal, offset):
    nn = float(normal @ normal)
    excess = x @ normal - offset
    return x - np.outer(np.maximum(excess, 0.0) / nn, normal)


def hausdorff_distance(set_a, set_b, radius, dim):
    """Hausdorff distance between set_a ∩ ball(radius) and set_b ∩ ball(radius)
    in R^dim, via the sup over the NET_DIRECTIONS-point direction net of the
    absolute support difference (the two coincide for compact convex sets).
    Lower bound, converging as the net refines."""
    if radius <= 0.0:
        return 0.0
    dirs = direction_net(dim)
    ha = set_a.support_truncated(dirs, radius)
    hb = set_b.support_truncated(dirs, radius)
    return float(np.max(np.abs(ha - hb)))


def truncated_pair_distance(set_a, set_b, radius, dim):
    """Distance between the radius-truncated sets, exact where a closed form
    exists (balls; boxes strictly inside the truncation ball; identical sets),
    net-based otherwise."""
    radius = float(radius)
    if radius <= 0.0:
        return 0.0
    if set_a == set_b:
        return 0.0
    if isinstance(set_a, Ball) and isinstance(set_b, Ball):
        return abs(min(set_a.radius, radius) - min(set_b.radius, radius))
    if isinstance(set_a, FullSpace) and isinstance(set_b, Ball):
        return max(0.0, radius - min(set_b.radius, radius))
    if isinstance(set_a, Ball) and isinstance(set_b, FullSpace):
        return max(0.0, radius - min(set_a.radius, radius))
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
        raise InfeasibleConstraint(f"constraint config needs a known 'type': {cfg!r}")
    keys = _CONFIG_KEYS[kind]
    if set(cfg) != {"type", *keys}:
        raise InfeasibleConstraint(f"{kind} config needs exactly the keys "
                                   f"{sorted(keys)}, got {sorted(set(cfg) - {'type'})}")
    if kind == "intersection":
        if not isinstance(cfg["members"], list):
            raise InfeasibleConstraint(f"intersection members must be a list: {cfg!r}")
        return Intersection([constraint_from_config(m) for m in cfg["members"]])
    return {"full_space": FullSpace, "ball": Ball, "box": Box,
            "nonnegative_orthant": NonnegativeOrthant,
            "polytope": HalfspacePolytope}[kind](*(cfg[key] for key in keys))

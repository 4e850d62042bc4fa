r"""Degenerate quadratic forms and the constrained growth maximizer.

The growth-optimal fraction for covariance rate ``c`` (symmetric PSD), drift
``a``, and constraint set ``K`` is

    argmax_{f in K ∩ N⊥} ( <f, c a> - 0.5 <f, c f> ),

where ``N`` is the nullspace of ``c`` and ``N⊥`` its orthogonal complement.
Restricting to ``N⊥`` makes the objective strictly concave, so the maximizer
is unique: the point of ``K ∩ N⊥`` nearest the drift in the c-metric. With
``K`` the full space the solution is the range-projected drift, and so it is
for every drift whose range projection already lies in ``K``. Every other
row is solved exactly by ``constraints.nearest_points`` in the eigenbasis of
``c``: a KKT enumeration over the face sets of ``K``'s halfspaces, with the
trust region Newton step of Moré & Sorensen (1983) on the multiplier of
``K``'s ball.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .constraints import (
    ConstraintSet, FullSpace, apply_last, dot_last, inside, nearest_points,
)
from .errors import _SHOWN, DimensionMismatch, InfeasibleConstraint, InvalidSpec

NULLSPACE_RTOL = 1e-12


def check_psd_matrix(c):
    """Validate a finite symmetric PSD matrix."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionMismatch(f"covariance must be square, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise InvalidSpec("covariance must be finite")
    scale = max(1.0, float(np.max(np.abs(c))))
    if np.max(np.abs(c - c.T)) > 1e-12 * scale:
        raise InvalidSpec("covariance is not symmetric")
    w = np.linalg.eigvalsh(0.5 * (c + c.T))
    if w[0] < -1e-10 * max(scale, 1.0):
        raise InvalidSpec(f"covariance has negative eigenvalue {w[0]:.3e}")
    return c


def step_runs(cov):
    """(start, stop) of each run of steps sharing one covariance of cov."""
    new = np.any(cov[1:] != cov[:-1], axis=(1, 2))
    edges = [0, *(np.flatnonzero(new) + 1).tolist(), len(cov)]
    return list(zip(edges[:-1], edges[1:]))


def cov_inner(c, x, y):
    """Pseudo inner product <x, c y>. c is one (d, d) matrix or one per step
    (N, d, d); x and y broadcast against each other and c's steps over (d,),
    (N, d) and (P, N, d), with no BLAS kernel. Where x fits c y's shape,
    each (c y)_i is dot_last's index-ordered sum into one buffer, times x_i
    in place, added in index order; else x meets apply_last(c, y) through
    dot_last. Both give einsum's bits for d <= 2."""
    c, x, y = (np.asarray(v, dtype=float) for v in (c, x, y))
    try:
        if c.ndim not in (2, 3) or not \
                c.shape[-2:-1] == x.shape[-1:] == y.shape[-1:] == c.shape[-1:]:
            raise ValueError
        np.broadcast_shapes(x.shape, y.shape, c.shape[:-1])
    except ValueError:
        raise DimensionMismatch(f"vectors of shape {x.shape}/{y.shape} "
                                f"against matrices {c.shape}") from None
    shape = np.broadcast_shapes(y.shape, c.shape[:-1])
    if shape != np.broadcast_shapes(x.shape, shape):
        return dot_last(x, apply_last(c, y))
    out, cy = 0.0, np.empty(shape[:-1])  # out: the +0.0 start of dot_last
    for i in range(c.shape[-1]):
        dot_last(y, c[..., i, :], out=cy)
        cy *= x[..., i]
        out += cy
    return out


def cov_norm(c, x):
    """Seminorm |x|_c = sqrt(<x, c x>); clamps tiny negative roundoff."""
    return np.sqrt(np.maximum(cov_inner(c, x, x), 0.0))


@dataclass(frozen=True)
class NullspaceSplit:
    """Orthonormal split of R^d into null(c) and its complement."""

    null_basis: np.ndarray   # (d, k)
    range_basis: np.ndarray  # (d, d - k)
    threshold: float
    eigenvalues: np.ndarray

    @property
    def null_dim(self):
        return self.null_basis.shape[1]

    def project_range(self, x):
        x = np.asarray(x, dtype=float)
        if self.null_dim == 0:
            return x.copy()
        return apply_last(self.range_basis, apply_last(self.range_basis.T, x))


def nullspace_split(c):
    """Eigendecomposition split with cutoff 1e-12 * trace(c) (1 if trace is
    0), made once per distinct covariance; its arrays are read-only."""
    c = np.asarray(c, dtype=float)
    return _split(c.shape, c.tobytes())


@functools.lru_cache(maxsize=64)
def _split(shape, data):
    c = check_psd_matrix(np.frombuffer(data).reshape(shape))
    trace = float(np.trace(c))
    threshold = NULLSPACE_RTOL * trace if trace > 0.0 else 1.0
    w, v = np.linalg.eigh(0.5 * (c + c.T))
    null_mask = w <= threshold
    split = NullspaceSplit(null_basis=v[:, null_mask].copy(),
                           range_basis=v[:, ~null_mask].copy(),
                           threshold=threshold, eigenvalues=w)
    for arr in (split.null_basis, split.range_basis, w):
        arr.flags.writeable = False
    return split


def _check_null_in_constraint(constraint, split):
    # Weak feasibility check: the unit nullspace directions, both signs, must
    # be members of the constraint set, else the nullspace is not contained
    # in it and the problem is rejected.
    for v in split.null_basis.T:
        if not np.all(constraint.contains(np.stack([v, -v]))):
            raise InfeasibleConstraint(
                "constraint set does not contain the covariance nullspace "
                f"direction {np.round(v, 6).tolist()}"
            )


def optimal_fraction_batch(c, drifts, constraint):
    """Solve the constrained growth maximization for one drift (d,) or a
    batch of drift rows (n, d) sharing one covariance and one constraint
    set. Returns an array matching ``drifts`` in shape.

    Rows are solved independently: a row whose range-projected drift is a
    member of the set with zero slack is answered by that drift, and only
    the remaining rows go to the exact nearest_points."""
    c = np.asarray(c, dtype=float)
    drifts = np.asarray(drifts, dtype=float)
    if c.ndim != 2 or drifts.ndim not in (1, 2) or drifts.shape[-1] != c.shape[0]:
        raise DimensionMismatch(
            f"drift shape {drifts.shape} does not fit covariance {c.shape}"
        )
    if not np.all(np.isfinite(drifts)):
        raise InvalidSpec("drift rows must be finite")
    single = drifts.ndim == 1
    rows = np.atleast_2d(drifts)
    split = nullspace_split(c)
    if not isinstance(constraint, ConstraintSet):
        raise InfeasibleConstraint("constraint must be a ConstraintSet, got "
                                   f"{_SHOWN.repr(constraint)}")
    constraint.validate(c.shape[0])
    _check_null_in_constraint(constraint, split)

    if split.range_basis.size == 0:
        out = np.zeros_like(rows)
        return out[0] if single else out

    # The unconstrained maximizer over N⊥ is the range-projected drift.
    out = split.project_range(rows)
    if not isinstance(constraint, FullSpace):
        halfspaces = constraint.halfspaces(c.shape[0])
        hard = np.flatnonzero(~inside(out, *halfspaces, 0.0))
        if hard.size:
            lam = split.eigenvalues[split.eigenvalues > split.threshold]
            out[hard] = nearest_points(rows[hard], lam, split.range_basis,
                                       *halfspaces)
    return out[0] if single else out

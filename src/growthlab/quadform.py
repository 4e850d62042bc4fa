r"""Degenerate quadratic forms and the constrained growth maximizer.

The growth-optimal fraction for covariance rate ``c`` (symmetric PSD), drift
``a``, and constraint set ``K`` is

    argmax_{f in K ∩ N⊥} ( <f, c a> - 0.5 <f, c f> ),

where ``N`` is the nullspace of ``c`` and ``N⊥`` its orthogonal complement.
Restricting to ``N⊥`` makes the objective strictly concave, so the maximizer
is unique. With ``K`` the full space the solution is the range-projected
drift, and so it is for every drift whose range projection already lies in
``K``. For a ``Ball`` the remaining rows are exact: in the eigenbasis of
``c`` the maximizer is ``(c + mu I)^-1 c a`` with ``|f| = r``, and a
monotone Newton iteration on the secular equation finds ``mu`` (the trust
region step of Moré & Sorensen, 1983). Every other set solves its remaining
rows by accelerated projected gradient (FISTA) with step
``1 / lambda_max(c)``, each row on its own, the feasible projection being
exact per constraint variant and a Dykstra alternation with the range
projector when ``c`` is rank-deficient.
"""

from dataclasses import dataclass

import numpy as np

from .constraints import Ball, ConstraintSet, FullSpace, dykstra_project
from .errors import (
    DimensionMismatch, InfeasibleConstraint, InvalidSpec, NonConvergence,
)

SOLVER_MAX_ITER = 100_000
SOLVER_RESIDUAL_TOL = 1e-8
FIXED_POINT_TOL = 1e-10
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


def step_runs(cov, steps=None):
    """(start, stop) of each run of consecutive steps sharing one covariance
    of cov (N, d, d) and, when given, one object of the per-step sequence
    steps."""
    new = np.any(cov[1:] != cov[:-1], axis=(1, 2))
    if steps is not None:
        new |= np.array([b is not a for a, b in zip(steps[:-1], steps[1:])],
                        dtype=bool)  # empty for one step
    edges = [0, *(np.flatnonzero(new) + 1).tolist(), len(cov)]
    return list(zip(edges[:-1], edges[1:]))


def cov_inner(c, x, y):
    """Pseudo inner product <x, c y>. c is one (d, d) matrix or one per step
    (N, d, d); x and y broadcast against each other and c's steps over (d,),
    (N, d) and (P, N, d). c is applied to y with one matmul per run of steps
    sharing one covariance, and that product is freed on return."""
    c, x, y = (np.asarray(v, dtype=float) for v in (c, x, y))
    try:
        if c.ndim not in (2, 3) or not \
                c.shape[-2:-1] == x.shape[-1:] == y.shape[-1:] == c.shape[-1:]:
            raise ValueError
        np.broadcast_shapes(x.shape, y.shape, c.shape[:-1])
    except ValueError:
        raise DimensionMismatch(f"vectors of shape {x.shape}/{y.shape} "
                                f"against matrices {c.shape}") from None
    if c.ndim == 2:
        cy = y @ c.T
    else:
        cy = np.empty(np.broadcast_shapes(y.shape, c.shape[:-1]))
        y = np.broadcast_to(y, cy.shape)
        for lo, hi in step_runs(c):
            np.matmul(y[..., lo:hi, :], c[lo].T, out=cy[..., lo:hi, :])
    return np.einsum("...i,...i->...", x, cy)


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

    @property
    def range_dim(self):
        return self.range_basis.shape[1]

    def project_range(self, x):
        x = np.asarray(x, dtype=float)
        if self.null_dim == 0:
            return x.copy()
        r = self.range_basis
        return np.einsum("...j,ij->...i", np.einsum("...i,ij->...j", x, r), r)


def nullspace_split(c):
    """Eigendecomposition split with cutoff 1e-12 * trace(c) (1 if trace is 0)."""
    c = check_psd_matrix(c)
    trace = float(np.trace(c))
    threshold = NULLSPACE_RTOL * trace if trace > 0.0 else 1.0
    w, v = np.linalg.eigh(0.5 * (c + c.T))
    null_mask = w <= threshold
    return NullspaceSplit(
        null_basis=v[:, null_mask].copy(),
        range_basis=v[:, ~null_mask].copy(),
        threshold=threshold,
        eigenvalues=w.copy(),
    )


def _check_null_in_constraint(constraint, split):
    # Weak feasibility check: unit nullspace directions (both signs) must be
    # fixed points of the constraint projection, else the nullspace is not
    # contained in the constraint set and the problem is rejected.
    if split.null_dim == 0:
        return
    for j in range(split.null_dim):
        v = split.null_basis[:, j]
        for s in (1.0, -1.0):
            p = constraint.project((s * v)[None, :])[0]
            if np.linalg.norm(p - s * v) > 1e-9:
                raise InfeasibleConstraint(
                    "constraint set does not contain the covariance nullspace "
                    f"direction {np.round(v, 6).tolist()}"
                )


def _is_isotropic(c, eigenvalues):
    top = eigenvalues[-1]
    if top <= 0.0:
        return False
    if eigenvalues[0] < top * (1.0 - 1e-12):
        return False
    off = c - np.eye(c.shape[0]) * top
    return np.max(np.abs(off)) <= 1e-12 * max(top, 1.0)


def feasible_projector(constraint, split):
    """Euclidean projection onto (constraint ∩ N⊥), vectorized over rows."""
    if isinstance(constraint, FullSpace):
        return split.project_range
    if split.null_dim == 0 or isinstance(constraint, Ball):
        return constraint.project  # radial scaling stays in range(c)

    def proj(x):
        return dykstra_project(
            x, [constraint.project, split.project_range],
            tol=1e-13, max_iter=4000,
        )

    return proj


def optimal_fraction_batch(c, drifts, constraint):
    """Solve the constrained growth maximization for one drift (d,) or a
    batch of drift rows (n, d) sharing one covariance and one constraint
    set. Returns an array matching ``drifts`` in shape.

    Rows are solved independently: a row whose range-projected drift is a
    fixed point of the feasible projection is answered by that drift, and
    only the remaining rows are iterated, each with its own stopping test:
    Newton on the multiplier for a Ball, FISTA for every other set, both
    capped at SOLVER_MAX_ITER steps."""
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
        raise InfeasibleConstraint(f"constraint must be a ConstraintSet, got {constraint!r}")
    constraint.validate(c.shape[0])
    _check_null_in_constraint(constraint, split)

    top = float(split.eigenvalues[-1]) if split.eigenvalues.size else 0.0
    if split.range_dim == 0 or top <= split.threshold:
        out = np.zeros_like(rows)
        return out[0] if single else out

    # The unconstrained maximizer over N⊥ is the range-projected drift; with
    # null(c) trivial the rows themselves stand for it.
    if isinstance(constraint, FullSpace):
        pa = split.project_range(rows)
        return pa[0] if single else pa
    pa = rows if split.null_dim == 0 else split.project_range(rows)
    proj = feasible_projector(constraint, split)
    out = proj(pa)
    if out is pa:  # a projection that hands back its input: keep the rows
        out = out.copy()
    if not _is_isotropic(c, split.eigenvalues):
        # Rows the projection leaves in place are feasible maximizers. With c
        # proportional to the identity the objective is a scaled Euclidean
        # distance to the drift, so the projection answers every row.
        hard = np.flatnonzero(out != pa) // rows.shape[1]
        hard = hard[np.diff(hard, prepend=-1) != 0]  # sorted: drop repeats
        if hard.size:
            out[hard] = _ball_rows(split, rows[hard], constraint) \
                if isinstance(constraint, Ball) else \
                _fista(c, rows[hard], proj, top)
    return out[0] if single else out


def _ball_rows(split, rows, ball):
    # On range(c) with eigenpairs (lam, V) the maximizer is f = V (b / (lam
    # + mu)), b = lam * V^T a, with mu >= 0 fixing |f| = r. Newton on the
    # concave, increasing phi(mu) = 1 / |f(mu)| - 1 / r rises from mu = 0 to
    # its root without overshoot, so a row stops once its mu stops rising.
    # Elementwise arithmetic and einsum, unlike a BLAS matmul, keep each
    # row's bits independent of the batch. The live rows' b and mu stay
    # packed and are repacked only when a row stops.
    lam = split.eigenvalues[split.eigenvalues > split.threshold]
    b = lam * np.einsum("ni,ij->nj", rows, split.range_basis)
    mu = np.zeros(len(rows))
    live, b_live, mu_live = np.arange(len(rows)), b, np.zeros(len(rows))
    for _ in range(SOLVER_MAX_ITER):
        shifted = lam + mu_live[:, None]
        q = b_live / shifted
        s = np.einsum("nj,nj->n", q, q)
        step = s * (np.sqrt(s) / ball.radius - 1.0) \
            / np.einsum("nj,nj->n", q, q / shifted)
        nxt = mu_live + step
        rising = nxt > mu_live
        if not rising.all():
            mu[live] = mu_live
            live, b_live, nxt = live[rising], b_live[rising], nxt[rising]
        mu_live = nxt
        if live.size == 0:
            f = np.einsum("nj,ij->ni", b / (lam + mu[:, None]), split.range_basis)
            return ball.project(f)
    raise NonConvergence(f"ball multiplier did not settle in {SOLVER_MAX_ITER} "
                         f"Newton steps on {live.size} of {len(rows)} rows")


def _fista(c, rows, proj, lipschitz):
    # Every row carries its own momentum, restart test and stopping test,
    # and leaves the live set once it stops, so its answer does not depend
    # on the other rows of the batch. einsum, unlike a BLAS matmul, also
    # rounds each row the same way whatever the batch size.
    def apply_c(x):
        return np.einsum("ij,nj->ni", c, x)

    step = 1.0 / lipschitz
    ca = apply_c(rows)
    x = proj(ca * step)  # cheap feasible start aligned with the gradient
    z = x.copy()
    t = np.ones(len(rows))
    out = np.empty_like(rows)
    live = np.arange(len(rows))
    check_every = 8
    for it in range(1, SOLVER_MAX_ITER + 1):
        grad = ca - apply_c(z)
        x_new = proj(z + step * grad)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = (t - 1.0) / t_new
        # Function-free adaptive restart: kill momentum when it points against
        # the last move.
        dx = x_new - x
        restart = np.einsum("ij,ij->i", dx, x_new - z) < 0.0
        z = np.where(restart[:, None], x_new, x_new + momentum[:, None] * dx)
        t_new[restart] = 1.0
        x_prev, x, t = x, x_new, t_new
        if it % check_every == 0 or it == SOLVER_MAX_ITER:
            grad_x = ca - apply_c(x)
            mapped = proj(x + step * grad_x)
            residual = np.linalg.norm(mapped - x, axis=1) / step
            still = np.max(np.abs(x - x_prev), axis=1) < FIXED_POINT_TOL
            done = (residual <= SOLVER_RESIDUAL_TOL) \
                | (still & (residual <= 10 * SOLVER_RESIDUAL_TOL))
            if np.any(done):
                out[live[done]] = mapped[done]
                keep = ~done
                live, ca, x, z, t = live[keep], ca[keep], x[keep], z[keep], t[keep]
                if live.size == 0:
                    return out
    raise NonConvergence(
        f"projected gradient did not reach residual {SOLVER_RESIDUAL_TOL:g} "
        f"in {SOLVER_MAX_ITER} iterations on {live.size} of {len(rows)} rows"
    )

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import growthlab.constraints as constraints

from growthlab.constraints import (
    Ball, Box, FullSpace, HalfspacePolytope, Intersection, NonnegativeOrthant,
    apply_last, nearest_points, scale_last,
)
from growthlab.errors import (
    DimensionMismatch, InfeasibleConstraint, InvalidSpec, NonConvergence,
)
from growthlab.market import MarketSpec, market_steps, stream_paths
from growthlab.quadform import (
    cov_inner, cov_norm, dot_last, nullspace_split, optimal_fraction_batch,
    step_runs,
)

from oracles import (
    ball_kkt_fraction, grid_argmax_fraction, kkt_violation, quadratic_growth,
)


def random_psd(rng, d, min_eig=0.0, rank=None):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = min_eig + rng.uniform(0.0, 1.0, d)
    if rank is not None:
        eigs[rank:] = 0.0
    return (q * eigs) @ q.T


def test_cov_inner_matches_einsum():
    # Against the 3-operand einsum formulas cov_inner replaced, for one
    # covariance and for a per-step covariance in three runs.
    rng = np.random.default_rng(12)
    n_paths, n_steps, d = 7, 9, 3
    c = random_psd(rng, d, min_eig=0.1)
    runs = [random_psd(rng, d, rank=r) for r in (3, 2, 3)]
    cov = np.stack([runs[0]] * 4 + [runs[1]] * 2 + [runs[2]] * 3)
    assert step_runs(cov) == [(0, 4), (4, 6), (6, 9)]
    full = (n_paths, n_steps, d)
    shapes = [(d,), (n_steps, d), full]
    for sx in shapes:
        for sy in shapes:
            x = rng.standard_normal(sx)
            y = rng.standard_normal(sy)
            ref = np.einsum("...i,ij,...j->...", x, c, y)
            got = cov_inner(c, x, y)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
            ref = np.einsum("pki,kij,pkj->pk", np.broadcast_to(x, full), cov,
                            np.broadcast_to(y, full))
            got = cov_inner(cov, x, y)
            assert got.shape == np.broadcast_shapes(sx, sy, (n_steps, d))[:-1]
            assert np.max(np.abs(np.broadcast_to(got, ref.shape) - ref)) \
                <= 1e-14 * np.max(np.abs(ref))
    for bad in ((cov, np.ones((n_steps + 1, d)), np.ones(d)),
                (cov, np.ones(d + 1), np.ones(d)),
                (c[:, :2], np.ones(d), np.ones(d)),
                (cov[0, 0], np.ones(d), np.ones(d))):
        with pytest.raises(DimensionMismatch):
            cov_inner(*bad)


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_dot_last_matches_einsum(d):
    # Bitwise for d <= 2, signed zeros included: einsum sums two products
    # from +0.0 with the same roundings. Above that einsum adds in its own
    # order, so within 1e-13 of the products' absolute sum. cov_inner is
    # checked against einsum's x . (c y), for one c and one c per step.
    rng = np.random.default_rng(40 + d)
    n_paths, n_steps = 5, 7

    def draw(shape):  # zero steps, so some sums are of -0.0 products
        x = rng.standard_normal(shape)
        if len(shape) > 1:
            x[..., ::3, :] = 0.0
        return x

    y = rng.standard_normal((n_paths, n_steps, d))
    y[0] = -np.abs(y[0])
    xs = [draw(shape) for shape in [(d,), (n_steps, d), (n_paths, n_steps, d)]]
    assert np.any(np.all((xs[2] == 0.0) & (y < 0.0), axis=-1))
    cases = [(dot_last(x, y), "...i,...i->...", x, y) for x in xs]
    xi, root = xs[2], rng.standard_normal((n_steps, d, d))
    out = np.empty((n_paths, n_steps, d))
    for i in range(d):  # into strided column views, as stream_paths does
        dot_last(xi, root[:, i, :], out=out[..., i])
    cases.append((out, "pkj,kij->pki", xi, root))
    c = random_psd(rng, d, min_eig=0.1)
    per_step = np.stack([random_psd(rng, d) for _ in range(n_steps)])
    for c, x in itertools.product((c, per_step), xs):
        # x multiplies c y in place, or c x is the smaller side
        cases += [(cov_inner(c, a, b), "...i,...i->...", a,
                   np.einsum("...ij,...j->...i", c, b))
                  for a, b in ((x, y), (y, x))]
    for got, spec, x, z in cases:
        ref = np.einsum(spec, x, z)
        assert np.shape(got) == np.shape(ref)
        if d <= 2:
            assert same_bits(got, ref), spec
        else:
            scale = np.einsum(spec, np.abs(x), np.abs(z))
            assert np.all(np.abs(got - ref) <= 1e-13 * scale), spec


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_scale_last_is_the_broadcast_product(d):
    # An elementwise product: the broadcast's bits for every d, on each
    # pairing of scale and vector shapes the library uses, and through a
    # strided out= view.
    rng = np.random.default_rng(60 + d)
    n_paths, n_steps = 5, 7
    pairs = [((n_paths, n_steps), (n_steps, d)),  # tilt_field, lam0
             ((n_paths, n_steps), (d,)),  # filtered_drift
             ((n_steps,), (n_paths, n_steps, d)),  # the noise's sqrt(dG)
             ((n_paths,), (n_paths, d)),  # _clamp
             ((n_paths, 1), (d,))]  # true_drift
    for s_shape, v_shape in pairs:
        s, v = rng.standard_normal(s_shape), rng.standard_normal(v_shape)
        s.flat[::4] = -0.0
        ref = s[..., None] * v
        assert same_bits(scale_last(s, v), ref)
        buf = np.full(ref.shape[:-1] + (2 * d,), np.nan)
        out = scale_last(s, v, out=buf[..., ::2])
        assert out.base is buf and same_bits(buf[..., ::2], ref)
    v = rng.standard_normal((n_paths, n_steps, d))
    ref = v * np.sqrt(np.arange(1.0, n_steps + 1))[None, :, None]
    scale_last(np.sqrt(np.arange(1.0, n_steps + 1)), v, out=v)  # in place
    assert same_bits(v, ref)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_apply_last_and_norms_match_einsum(d):
    # apply_last against the einsum forms it replaced, for a contracted
    # length k of 0 to d: bitwise with signed zeros for k <= 2, within
    # 1e-13 of the products' absolute sum above. _norms keeps
    # np.linalg.norm's bits for every d: both add the squares in order.
    rng = np.random.default_rng(80 + d)
    n_rows, n_paths, n_steps = 40, 5, 7
    x = rng.standard_normal((n_rows, d))
    x[::5] = 0.0
    x[1::5] = -0.0
    cases = []  # (result, einsum spec, operands, contracted length)
    for k in range(d + 1):
        m = rng.standard_normal((k, d))
        basis = rng.standard_normal((d, k))
        t = apply_last(basis.T, x)  # nearest_points' t
        cases += [(t, "ni,ij->nj", x, basis, d),
                  (apply_last(m, x), "ij,nj->ni", m, x, d),
                  (apply_last(basis, t), "nj,ij->ni", t, basis, k)]  # f
        if k:  # secular_newton's sums
            cases.append((dot_last(t, t / 3.0), "nj,nj->n", t, t / 3.0, k))
    xi = rng.standard_normal((n_paths, n_steps, d))
    root = rng.standard_normal((n_steps, d, d))
    out = np.empty_like(xi)
    assert apply_last(root, xi, out=out) is out
    cases.append((out, "pkj,kij->pki", xi, root, d))
    for got, spec, a, b, length in cases:
        ref = np.einsum(spec, a, b)
        assert got.shape == ref.shape
        if length <= 2:
            assert same_bits(got, ref), spec
        else:
            scale = np.einsum(spec, np.abs(a), np.abs(b))
            assert np.all(np.abs(got - ref) <= 1e-13 * scale), spec
    for shape in [(d,), (n_rows, d), (n_paths, n_steps, d)]:
        z = rng.standard_normal(shape)
        assert np.array_equal(constraints._norms(z),
                              np.linalg.norm(z, axis=-1))


@pytest.mark.parametrize("constraint", [
    Ball(1.3), FullSpace(), Box([-0.4, -0.2], [0.5, 0.6]),
    Intersection([Ball(0.9), NonnegativeOrthant()])])
def test_inside_is_the_einsum_membership(constraint):
    # The expression inside replaced, which ran its halfspace einsum also
    # against the (0, d) rows of a ball or the full space.
    def reference(x, normals, offsets, r, tol):
        return (np.linalg.norm(x, axis=-1) <= r + tol) & np.all(
            np.einsum("...j,ij->...i", x, normals) <= offsets + tol, axis=-1)

    rng = np.random.default_rng(5)
    halfspaces = constraint.halfspaces(2)
    for shape in [(2,), (500, 2), (5, 100, 2)]:
        x = rng.standard_normal(shape)
        for tol in (0.0, constraints.CONTAINS_TOL):
            got = constraints.inside(x, *halfspaces, tol)
            assert np.array_equal(got, reference(x, *halfspaces, tol))
            assert np.shape(got) == shape[:-1]


def test_stream_noise_is_the_einsum_noise():
    # A d = 2 market with a covariance per step: each block's dM, its tiles
    # joined, is einsum("pkj,kij->pki", xi, sqrt_cov) of the block's own
    # single draw, bit for bit.
    spec = MarketSpec(dim=2, n_steps=30,
                      covariance=lambda t: [[0.5 + t, 0.1 * t], [0.1 * t, 0.4]])
    market = market_steps(spec)
    tiles = stream_paths(market, 1500, 11,
                         lambda tile, lo, hi: tile.dM.copy(), threads=2)
    children = np.random.SeedSequence(11).spawn(2)
    assert [dM.shape[0] for dM in tiles] == [512, 512, 476]
    blocks = [np.concatenate(tiles[:2]), tiles[2]]
    for child, dM in zip(children, blocks):
        xi = np.random.default_rng(child).standard_normal(dM.shape)
        ref = np.einsum("pkj,kij->pki", xi, market.sqrt_cov)
        ref *= np.sqrt(market.dG)[None, :, None]
        assert np.array_equal(dM, ref)


def test_fullspace_returns_drift_exactly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = rng.integers(1, 6)
        c = random_psd(rng, d, min_eig=0.1)
        a = rng.standard_normal(d)
        f = optimal_fraction_batch(c, a, FullSpace())
        assert np.max(np.abs(f - a)) < 1e-9


def test_zero_covariance_gives_zero_fraction():
    a = np.array([3.0, -2.0])
    f = optimal_fraction_batch(np.zeros((2, 2)), a, FullSpace())
    assert np.array_equal(f, np.zeros(2))


def test_ball_solution_matches_kkt_oracle():
    rng = np.random.default_rng(1)
    for _ in range(40):
        d = int(rng.integers(1, 5))
        c = random_psd(rng, d, min_eig=0.05)
        a = rng.standard_normal(d) * 3.0
        r = float(rng.uniform(0.3, 2.0))
        f = optimal_fraction_batch(c, a, Ball(r))
        ref = ball_kkt_fraction(c, a, r)
        assert np.max(np.abs(f - ref)) < 1e-6


def test_grid_oracle_agreement_on_flat_boundaries():
    # Point agreement with a lattice argmax is only meaningful where the
    # active boundary is flat (or the optimum interior); curved boundaries
    # allow a tangential lattice slack of order sqrt(cell).
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        c = random_psd(rng, d, min_eig=0.15)
        a = rng.standard_normal(d) * 2.0
        lo = -rng.uniform(0.1, 1.0, d)
        hi = rng.uniform(0.1, 1.0, d)
        constraint = Box(lo, hi)
        f = optimal_fraction_batch(c, a, constraint)
        ref, _ = grid_argmax_fraction(c, a, constraint, n_stages=6)
        assert np.max(np.abs(f - ref)) <= 2e-3


def test_grid_oracle_never_beats_solver_on_balls():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        c = random_psd(rng, d, min_eig=0.15)
        a = rng.standard_normal(d) * 2.0
        constraint = Ball(float(rng.uniform(0.5, 1.5)))
        f = optimal_fraction_batch(c, a, constraint)
        ref, _ = grid_argmax_fraction(c, a, constraint, n_stages=6)
        assert quadratic_growth(c, a, f[None, :])[0] >= \
            quadratic_growth(c, a, ref[None, :])[0] - 1e-9


def test_box_solution_beats_any_grid_point():
    rng = np.random.default_rng(3)
    c = random_psd(rng, 2, min_eig=0.2)
    a = np.array([2.0, -1.5])
    box = Box([-0.5, -1.0], [1.0, 0.25])
    f = optimal_fraction_batch(c, a, box)
    assert box.contains(f)
    ref, _ = grid_argmax_fraction(c, a, box)
    assert quadratic_growth(c, a, f[None, :])[0] >= \
        quadratic_growth(c, a, ref[None, :])[0] - 1e-9


def test_nullspace_split_is_made_once_per_distinct_covariance():
    c = np.array([[0.5, 0.1], [0.1, 0.4]])
    split = nullspace_split(c)
    assert nullspace_split(c.copy()) is split
    assert nullspace_split(c.tolist()) is split
    for arr in (split.null_basis, split.range_basis, split.eigenvalues):
        assert not arr.flags.writeable
    changed = c.copy()
    changed[1, 1] = 0.41
    other = nullspace_split(changed)
    assert other is not split
    assert not np.array_equal(other.eigenvalues, split.eigenvalues)
    assert nullspace_split(c) is split


def test_nullspace_component_of_drift_is_ignored():
    # c has a one-dimensional nullspace; shifting the drift along it must
    # leave the optimum unchanged, and the optimum stays in the range.
    rng = np.random.default_rng(4)
    for _ in range(20):
        c = random_psd(rng, 3, rank=2)
        split = nullspace_split(c)
        if split.null_dim != 1:
            continue
        a = rng.standard_normal(3)
        null_vec = split.null_basis[:, 0]
        f1 = optimal_fraction_batch(c, a, Ball(1.0))
        f2 = optimal_fraction_batch(c, a + 2.5 * null_vec, Ball(1.0))
        assert np.max(np.abs(f1 - f2)) < 1e-6
        assert abs(null_vec @ f1) < 1e-8


def test_nullspace_outside_constraint_raises():
    c = np.diag([1.0, 0.0])
    a = np.array([1.0, 0.0])
    with pytest.raises(InfeasibleConstraint):
        optimal_fraction_batch(c, a, Box([-0.5, -0.5], [0.5, 0.5]))


def test_batch_matches_single():
    # Each row stops on its own test, so its answer, to the bit, must not
    # depend on the rest of the batch: one batch, two halves and one row at
    # a time agree.
    rng = np.random.default_rng(5)
    c = random_psd(rng, 3, min_eig=0.1)
    assert np.ptp(np.linalg.eigvalsh(c)) > 0.1
    drifts = rng.standard_normal((200, 3)) * 2.0
    normals = rng.standard_normal((7, 3))
    polytope = HalfspacePolytope(
        normals / np.linalg.norm(normals, axis=1, keepdims=True),
        rng.uniform(0.2, 1.5, 7))
    box = Box([-0.5, -0.3, -1.0], [0.4, 1.0, 0.2])
    for constraint in (Ball(0.8), box, polytope, Intersection([Ball(0.8), box]),
                       Intersection([Ball(0.8), polytope])):
        batch = optimal_fraction_batch(c, drifts, constraint)
        assert not np.array_equal(batch, drifts)  # some rows are iterated
        halves = np.concatenate([optimal_fraction_batch(c, half, constraint)
                                 for half in (drifts[:77], drifts[77:])])
        assert np.array_equal(batch, halves)
        for k in range(len(drifts)):
            single = optimal_fraction_batch(c, drifts[k], constraint)
            assert np.array_equal(batch[k], single)


def test_projection_returning_its_input_leaves_drifts_alone():
    # With null(c) trivial and every row feasible the solver answers with
    # the caller's rows; its answer must still be an array of its own.
    rng = np.random.default_rng(6)
    c = random_psd(rng, 2, min_eig=0.1)
    drifts = rng.uniform(-0.1, 0.1, (5, 2))
    kept = drifts.copy()
    out = optimal_fraction_batch(c, drifts, Ball(5.0))
    assert np.array_equal(out, kept)
    out[:] = 0.0
    assert np.array_equal(drifts, kept)


def test_interior_rows_are_exact_and_boundary_rows_match_oracle():
    # Ball rows are solved exactly (Newton on the KKT multiplier): interior
    # rows come back as they are, and every boundary row lies within 1e-8
    # of the bisection oracle.
    rng = np.random.default_rng(8)
    radius = 1.0
    for _ in range(10):
        d = int(rng.integers(2, 5))
        c = random_psd(rng, d, min_eig=0.2)
        drifts = rng.standard_normal((300, d)) * 0.8
        f = optimal_fraction_batch(c, drifts, Ball(radius))
        interior = np.linalg.norm(drifts, axis=1) <= radius
        assert 0 < np.sum(interior) < len(drifts)
        assert np.array_equal(f[interior], drifts[interior])
        for k in np.flatnonzero(~interior):
            ref = ball_kkt_fraction(c, drifts[k], radius)
            assert np.max(np.abs(f[k] - ref)) <= 1e-8


@pytest.mark.parametrize("constraint", [FullSpace(), Ball(1.0)])
def test_non_finite_drift_rejected(constraint):
    c = np.array([[0.5, 0.1], [0.1, 0.4]])
    drifts = np.array([[0.3, 0.2], [np.nan, 0.1], [2.0, -1.0]])
    with pytest.raises(InvalidSpec):
        optimal_fraction_batch(c, drifts, constraint)
    with pytest.raises(InvalidSpec):
        optimal_fraction_batch(c, np.array([np.inf, 0.0]), constraint)


def test_nonconvergence_raises(monkeypatch):
    rng = np.random.default_rng(6)
    c = random_psd(rng, 3, min_eig=0.1)
    monkeypatch.setattr(constraints, "SOLVER_MAX_ITER", 2)
    with pytest.raises(NonConvergence):
        optimal_fraction_batch(c, np.array([5.0, -3.0, 2.0]), Ball(1.0))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_drift_perturbation_is_nonexpansive(seed, d):
    # |phi(a') - phi(a)|_c <= |a' - a|_c for any closed convex set.
    rng = np.random.default_rng(seed)
    c = random_psd(rng, d, min_eig=0.05)
    a = rng.standard_normal(d) * 2.0
    a2 = a + rng.standard_normal(d) * rng.uniform(0.0, 1.0)
    constraint = [Ball(1.0), Box(-np.ones(d) * 0.5, np.ones(d)),
                  NonnegativeOrthant(), FullSpace()][seed % 4]
    f = optimal_fraction_batch(c, a, constraint)
    f2 = optimal_fraction_batch(c, a2, constraint)
    lhs = cov_norm(c, f2 - f)
    rhs = cov_norm(c, a2 - a)
    assert lhs <= rhs + 1e-6


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_fraction_norm_bounded_by_drift_norm(seed, d):
    # |phi|_c <= |a|_c whenever the set contains the origin.
    rng = np.random.default_rng(seed + 77)
    a = rng.standard_normal(d) * 2.0
    constraint = [Ball(0.7), Box(-np.ones(d), np.ones(d) * 0.3),
                  NonnegativeOrthant(), FullSpace()][seed % 4]
    # only the full space can contain a nontrivial nullspace
    rank = max(1, d - seed % 2) if seed % 4 == 3 else None
    c = random_psd(rng, d, min_eig=0.05 if rank is None else 0.0, rank=rank)
    f = optimal_fraction_batch(c, a, constraint)
    assert cov_norm(c, f) <= cov_norm(c, a) + 1e-6


def test_set_perturbation_bound_with_metric_truncation():
    # The set-stability bound holds with truncation in the |.|_c pseudo
    # ball: |phi' - phi|_c^2 <= 4 |a|_c dist_c(K' cap C, K cap C) where C
    # is the |.|_c ball of radius |a|_c. Verified on ball pairs where the
    # c-truncated Hausdorff distance has a closed form via scaling.
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        c = random_psd(rng, d, min_eig=0.2)
        a = rng.standard_normal(d) * 3.0
        m = cov_norm(c, a)
        r1 = float(rng.uniform(0.2, 1.2))
        r2 = r1 + float(rng.uniform(0.0, 0.5))
        f1 = optimal_fraction_batch(c, a, Ball(r1))
        f2 = optimal_fraction_batch(c, a, Ball(r2))
        lhs = cov_inner(c, f2 - f1, f2 - f1)
        # Hausdorff distance between Euclidean balls truncated in the
        # c-ball: the truncation only rescales directions, so the gap is
        # still bounded by (r2 - r1) in the c-norm times the largest
        # direction stretch sqrt(lam_max(c)).
        eigs = np.linalg.eigvalsh(c)
        dist_c = (r2 - r1) * np.sqrt(np.max(eigs))
        assert lhs <= 4.0 * m * dist_c + 1e-6


def _c_project_ball(c, y, radius):
    # metric projection onto the Euclidean ball under <.,.>_c: same KKT
    # system as the constrained optimizer, so reuse the bisection oracle
    return ball_kkt_fraction(c, y, radius)


def _c_project_cball(c, y, m):
    n = cov_norm(c, y)
    return y if n <= m else y * (m / n)


def _c_project_ball_cap_cball(c, y, radius, m, iters=200):
    # Dykstra in the c inner product; both member projections are exact
    x, p, q = y, np.zeros_like(y), np.zeros_like(y)
    for _ in range(iters):
        u = _c_project_ball(c, x + p, radius)
        p = x + p - u
        x = _c_project_cball(c, u + q, m)
        q = u + q - x
    return x


def test_set_perturbation_probe_bound_covers_unbounded_pairs():
    # The projection-based intermediate inequality behind the metric form:
    # |phi' - phi|_c^2 <= 2 |a|_c (|phi - proj(phi)|_c + |phi' - proj(phi')|_c)
    # with each projection taken onto the OTHER set intersected with the
    # |.|_c ball C of radius |a|_c, in the c metric. Every term is exactly
    # computable for full-space/ball pairs, the family where the
    # Euclidean-truncation form of the bound fails.
    def check(c, a, f1, f2, p1, p2):
        m = cov_norm(c, a)
        lhs = cov_inner(c, f2 - f1, f2 - f1)
        rhs = 2.0 * m * (cov_norm(c, f1 - p1) + cov_norm(c, f2 - p2))
        assert lhs <= rhs + 1e-6

    # the instance where the Euclidean-truncation form has zero right side
    c = np.eye(2) / 2.0
    a = np.array([2.0, 0.0])
    m = cov_norm(c, a)
    f1 = optimal_fraction_batch(c, a, FullSpace())
    f2 = optimal_fraction_batch(c, a, Ball(1.7))
    check(c, a, f1, f2, _c_project_ball_cap_cball(c, f1, 1.7, m),
          _c_project_cball(c, f2, m))

    rng = np.random.default_rng(15)
    for i in range(60):
        d = int(rng.integers(1, 4))
        c = random_psd(rng, d, min_eig=0.1)
        a = rng.standard_normal(d) * rng.uniform(0.5, 3.0)
        m = cov_norm(c, a)
        r = float(rng.uniform(0.2, 2.0))
        f2 = optimal_fraction_batch(c, a, Ball(r))
        if i % 2:
            f1 = optimal_fraction_batch(c, a, FullSpace())
            p2 = _c_project_cball(c, f2, m)
        else:
            r1 = r + float(rng.uniform(0.0, 1.0))
            f1 = optimal_fraction_batch(c, a, Ball(r1))
            p2 = _c_project_ball_cap_cball(c, f2, r1, m)
        p1 = _c_project_ball_cap_cball(c, f1, r, m)
        check(c, a, f1, f2, p1, p2)


def test_ball_rows_satisfy_kkt():
    # A hard row (range-projected drift outside the ball) solves
    # c (a - f) = mu f with mu >= 0 and |f| = r. The oracle bisects to
    # float resolution (tol=0): its default stop at 1e-14 in mu moves f by
    # up to 1e-10 when lambda_min(c) is near 0.01.
    rng = np.random.default_rng(11)
    for d in range(1, 6):
        for rank in (None, d - 1):
            if rank == 0:
                continue
            c = random_psd(rng, d, rank=rank)
            r = float(rng.uniform(1.0, 2.0))
            drifts = rng.standard_normal((200, d)) * 3.0
            f = optimal_fraction_batch(c, drifts, Ball(r))
            pa = nullspace_split(c).project_range(drifts)
            hard = np.flatnonzero(np.linalg.norm(pa, axis=1) > r)
            assert hard.size > 50
            for k in hard:
                fk, ak = f[k], drifts[k]
                assert abs(np.linalg.norm(fk) - r) <= 1e-12
                resid = c @ (ak - fk)
                mu = resid @ fk / (fk @ fk)
                assert mu >= 0.0
                assert np.max(np.abs(resid - mu * fk)) <= 1e-10
                ref = ball_kkt_fraction(c, ak, r, tol=0.0)
                assert np.max(np.abs(fk - ref)) <= 1e-10


def _kkt_sets(rng, d):
    """Each set kind of the KKT test with its (N, b, r), written out from
    the drawn numbers rather than taken from the library."""
    lo, hi = -rng.uniform(0.2, 1.5, d), rng.uniform(0.2, 1.5, d)
    normals = rng.standard_normal((2 * d + 1, d))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = rng.uniform(0.2, 1.5, 2 * d + 1)
    radius = float(rng.uniform(0.8, 2.5))
    eye = np.eye(d)
    box, box_rows = Box(lo, hi), (np.vstack([eye, -eye]), np.r_[hi, -lo])
    polytope = HalfspacePolytope(normals, offsets)
    return {
        "box": (box, *box_rows, np.inf),
        "orthant": (NonnegativeOrthant(), -eye, np.zeros(d), np.inf),
        "polytope": (polytope, normals, offsets, np.inf),
        "ball_box": (Intersection([Ball(radius), box]), *box_rows, radius),
        "ball_polytope": (Intersection([Ball(radius), polytope]), normals,
                          offsets, radius),
    }


@pytest.mark.parametrize("kind", ["box", "orthant", "polytope", "ball_box",
                                  "ball_polytope"])
def test_solutions_satisfy_kkt(kind):
    # Every growth solve row, and every row of the Euclidean projection
    # (c = I), is primally feasible and meets stationarity with nonnegative
    # multipliers on its active rows, both to 1e-9 (an NNLS certificate).
    rng = np.random.default_rng(2024)
    for _ in range(30):
        d = int(rng.choice((1, 2, 3, 5)))
        c = random_psd(rng, d, min_eig=0.05)
        c /= np.trace(c)
        constraint, normals, offsets, radius = _kkt_sets(rng, d)[kind]
        drifts = rng.standard_normal((40, d)) * 2.0
        for metric, got in ((c, optimal_fraction_batch(c, drifts, constraint)),
                            (np.eye(d), constraint.project(drifts))):
            for a, f in zip(drifts, got):
                assert kkt_violation(metric, a, f, normals, offsets,
                                     radius) <= 1e-9, (kind, d, a, f)


def test_unresolved_rows_raise(monkeypatch):
    # With a membership slack of -1 no candidate of any face set is
    # accepted: the rows left over raise instead of coming back inexact.
    monkeypatch.setattr(constraints, "CONTAINS_TOL", -1.0)
    eye = np.eye(2)
    with pytest.raises(NonConvergence, match="2 of 2 rows"):
        nearest_points(np.array([[2.0, 0.5], [0.1, 0.1]]), np.ones(2), eye,
                       np.vstack([eye, -eye]), np.ones(4), np.inf)

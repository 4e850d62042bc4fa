import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import growthlab.constraints as constraints

from growthlab.constraints import (
    Ball, Box, FullSpace, HalfspacePolytope, Intersection,
    NonnegativeOrthant, constraint_from_config, direction_net, faces,
    hausdorff_distance, truncated_pair_distance,
)
from growthlab.errors import (
    DimensionMismatch, InfeasibleConstraint, InvalidSpec,
)

from oracles import member_mask, support_scan


def _cut_polytope(dim):
    """[-1, 1]^dim with x1 - x2 <= 0.5 added, which cuts off the foot
    (1, 0, ...) of the face x1 = 1."""
    eye = np.eye(dim)
    cut = np.zeros(dim)
    cut[:2] = [1.0, -1.0]
    return HalfspacePolytope(np.vstack([eye, -eye, cut]),
                             np.r_[np.ones(2 * dim), 0.5])


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), 0.0, -1.0])
def test_ball_rejects_bad_radius_when_built(radius):
    # A NaN radius would project nothing and a negative one reflect points.
    # NaN and infinity are no finite number, the rest no positive one.
    error, text = (InfeasibleConstraint, "radius must be positive") \
        if np.isfinite(radius) else (InvalidSpec, "radius must be a finite")
    with pytest.raises(error, match=text):
        Ball(radius)


def test_ball_pair_distance_is_radius_gap(monkeypatch):
    # balls, and intersections of balls, take the closed form, not the net
    monkeypatch.setattr(constraints, "hausdorff_distance",
                        lambda *args: pytest.fail("net distance used"))
    assert truncated_pair_distance(Ball(1.0), Ball(1.5), radius=5.0, dim=2) \
        == pytest.approx(0.5, abs=1e-12)
    balls = Intersection([Ball(3.0), FullSpace(), Ball(1.0)])
    assert truncated_pair_distance(balls, Ball(1.5), radius=5.0, dim=3) \
        == pytest.approx(0.5, abs=1e-12)
    # truncation tighter than both balls: sets coincide
    assert truncated_pair_distance(Ball(2.0), Ball(3.0), radius=1.0, dim=2) \
        == pytest.approx(0.0, abs=1e-12)
    # truncation between the radii
    assert truncated_pair_distance(Ball(0.5), Ball(3.0), radius=1.0, dim=2) \
        == pytest.approx(0.5, abs=1e-12)


def test_fullspace_vs_ball_distance():
    # truncated full space is the truncation ball itself
    assert truncated_pair_distance(FullSpace(), Ball(0.8), radius=2.0, dim=3) \
        == pytest.approx(1.2, abs=1e-12)


def test_box_pair_distance_matches_vertex_formula():
    a = Box([-0.5, -0.25], [0.75, 1.0])
    b = Box([-0.25, -0.25], [0.5, 0.5])
    # both boxes live inside the truncation ball: distance is the largest
    # per-axis bound gap measured at the farthest vertex
    d = truncated_pair_distance(a, b, radius=10.0, dim=2)
    ref = np.linalg.norm([0.25, 0.5])
    assert d == pytest.approx(ref, abs=1e-9)


def test_truncated_distance_against_support_scan():
    a = Box([-0.6, -0.4], [0.8, 0.3])
    b = Ball(0.5)
    d = truncated_pair_distance(a, b, radius=2.0, dim=2)
    dirs = direction_net(2)
    scan_a, step = support_scan(a, dirs, 2.0, n_grid=401)
    scan_b, _ = support_scan(b, dirs, 2.0, n_grid=401)
    # each scanned support is within one grid diagonal below the exact one
    assert abs(d - np.max(np.abs(scan_a - scan_b))) <= step * np.sqrt(2.0)


@pytest.mark.parametrize("dim, digest", [
    (3, "ade988b6948195626ed5251434323eac1ab43b10e871bc83ed899e38219f505f"),
    (5, "12db60aca96699dc53a6b4384cedb03f1b64634bd148f37d8885463e317c6c11"),
])
def test_sobol_nets_keep_their_bits(dim, digest):
    # The d >= 3 net imports scipy's ndtri and qmc on first use; its bits
    # are those of scipy 1.17's scrambled Sobol points.
    direction_net.cache_clear()
    net = direction_net(dim)
    assert net.shape == (constraints.NET_DIRECTIONS, dim)
    assert hashlib.sha256(net.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("build, radius", [
    (lambda d: Box([-0.4, -1.2, -0.5][:d], [1.1, 0.3, 0.9][:d]), 1.0),
    (lambda d: NonnegativeOrthant(), 1.3),
    (_cut_polytope, 1.2),
    (lambda d: Intersection([Ball(0.8), Box([-0.6] * d, [1.0] * d)]), 1.0),
], ids=["box-out-of-ball", "orthant", "polytope-foot-outside", "ball-and-box"])
def test_support_truncated_matches_support_scan(build, radius, dim):
    rng = np.random.default_rng(dim)
    dirs = rng.standard_normal((40, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.vstack([dirs, np.eye(dim), -np.eye(dim)])  # exact axis directions
    constraint = build(dim)
    exact = constraint.support_truncated(dirs, radius)
    scan, step = support_scan(constraint, dirs, radius,
                              n_grid=401 if dim == 2 else 81)
    assert np.all(exact >= scan - 1e-9)  # scanned points are feasible
    assert np.all(exact <= scan + step * np.sqrt(dim))


def _plain_face_sets(normals, offsets, r, dim):
    """The face sets faces walks, the plain way: each combination of at
    most dim rows, smallest first, of full rank by matrix_rank, and those of
    them whose plane's min-norm point lies in the ball of radius r."""
    independent, meeting = [], []
    for k in range(1, min(len(normals), dim) + 1):
        for rows in map(list, itertools.combinations(range(len(normals)), k)):
            if np.linalg.matrix_rank(normals[rows]) == k:
                independent.append(rows)
                foot = np.linalg.lstsq(normals[rows], offsets[rows], rcond=None)[0]
                if foot @ foot <= r * r:
                    meeting.append(rows)
    return independent, meeting


@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("kind", ["polytope", "box", "intersection"])
def test_faces_walks_each_independent_plane_that_meets_the_ball(kind, dim):
    rng = np.random.default_rng(dim)
    r, skipped = 0.8, 0
    for _ in range(3):
        box = Box(-rng.uniform(0.2, 1.5, dim), rng.uniform(0.2, 1.5, dim))
        rows = 2 * dim + 1 if kind == "polytope" else dim + 1
        poly = HalfspacePolytope(rng.standard_normal((rows, dim)),
                                 rng.uniform(0.2, 1.5, rows))
        constraint = {"polytope": poly, "box": box,
                      "intersection": Intersection([Ball(2.0), poly, box])}[kind]
        normals, offsets, _ = constraint.halfspaces(dim)
        walk = list(faces(normals, offsets, r, dim))
        independent, meeting = _plain_face_sets(normals, offsets, r, dim)
        assert [face[0] for face in walk] == meeting
        skipped += len(independent) - len(meeting)
        for face_rows, foot, null, left, mult in walk:
            a, k = normals[face_rows], len(face_rows)
            assert null.shape == (dim, dim - k)
            assert np.allclose(a @ foot, offsets[face_rows], atol=1e-12)
            assert np.allclose(a @ null, 0.0, atol=1e-12)
            assert np.allclose(null.T @ null, np.eye(dim - k), atol=1e-12)
            assert left ** 2 + foot @ foot == pytest.approx(r * r, abs=1e-12)
            assert np.allclose(mult @ a.T, np.eye(k), atol=1e-12)
    assert skipped > 0  # some planes miss the ball


def test_box_holding_the_truncation_ball_is_at_distance_zero():
    # both truncations equal B(1), so the distance is exactly zero
    box = Box([-1.0, -1.0], [1.0, 1.0])
    assert truncated_pair_distance(box, Ball(1.0), 1.0, dim=2) == 0.0


def test_identical_sets_have_zero_distance():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    assert truncated_pair_distance(box, box, radius=3.0, dim=2) == 0.0
    assert hausdorff_distance(Ball(1.0), Ball(1.0), radius=4.0, dim=2) \
        == pytest.approx(0.0, abs=1e-12)


def test_projection_is_idempotent_and_feasible(monkeypatch):
    monkeypatch.setattr(constraints, "CONTAINS_TOL", 1e-8)
    rng = np.random.default_rng(0)
    sets = [
        Ball(0.8),
        Box([-0.5, -1.0, -0.25], [1.0, 0.5, 0.75]),
        NonnegativeOrthant(),
        HalfspacePolytope(normals=[[1.0, 1.0, 0.0]], offsets=[1.0]),
        Intersection([Ball(1.5), NonnegativeOrthant()]),
    ]
    for constraint in sets:
        for _ in range(25):
            x = rng.standard_normal(3) * 2.0
            p = constraint.project(x)
            assert constraint.contains(p)
            p2 = constraint.project(p)
            assert np.max(np.abs(p2 - p)) < 1e-8


@pytest.mark.parametrize("dim", range(1, 8))
def test_ball_projection_keeps_the_norm_formula_bits(dim):
    # The formula Ball.project replaced, kept here as the reference.
    def reference(x, r):
        norms = np.linalg.norm(x, axis=-1, keepdims=True)
        return x * np.where(norms > r, r / np.maximum(norms, 1e-300), 1.0)

    rng = np.random.default_rng(dim)
    r = 1.3
    x = rng.standard_normal((4000, dim)) * rng.uniform(0.0, 3.0, (4000, 1))
    x[:50] = 0.0
    # rows on the sphere: their float norm is exactly r, so they stay put
    on = np.zeros((20, dim))
    on[np.arange(20), rng.integers(0, dim, 20)] = r * rng.choice([-1, 1], 20)
    rows = np.concatenate([x, on])
    ball = Ball(r)
    assert np.array_equal(ball.project(rows), reference(rows, r))
    assert np.array_equal(ball.project(on), on)
    assert np.array_equal(ball.project(rows[7]), reference(rows[7], r))
    stacked = rows[:4000].reshape(40, 100, dim)
    assert np.array_equal(ball.project(stacked), reference(stacked, r))


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_inherited_projection_keeps_the_closed_form_values(dim):
    # The orthant and the full space take the exact generic projection;
    # it equals the closed forms they once had (up to the sign of a zero).
    rng = np.random.default_rng(dim)
    x = rng.standard_normal((2000, dim)) * rng.uniform(0.1, 3.0, (2000, 1))
    assert "project" not in vars(NonnegativeOrthant)
    assert "project" not in vars(FullSpace)
    assert np.array_equal(NonnegativeOrthant().project(x), np.maximum(x, 0.0))
    assert np.array_equal(FullSpace().project(x), x)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_projection_is_nonexpansive(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    constraint = [
        Ball(float(rng.uniform(0.2, 2.0))),
        Box(-rng.uniform(0.1, 1.0, d), rng.uniform(0.1, 1.0, d)),
        NonnegativeOrthant(),
    ][seed % 3]
    x = rng.standard_normal(d) * 3.0
    y = rng.standard_normal(d) * 3.0
    px, py = constraint.project(x), constraint.project(y)
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-9


def test_box_must_straddle_origin():
    with pytest.raises(InfeasibleConstraint):
        Box([0.5, 0.5], [1.0, 1.0]).validate(2)


def test_halfspace_offsets_must_admit_origin():
    with pytest.raises(InfeasibleConstraint):
        HalfspacePolytope(normals=[[1.0, 0.0]], offsets=[-0.5]).validate(2)


def test_halfspace_normals_must_be_rows():
    # (1, 2, 2) normals once passed validate and failed in the solve
    with pytest.raises(DimensionMismatch):
        HalfspacePolytope(normals=[[[1.0, 0.0], [0.0, 1.0]]],
                          offsets=[1.0]).validate(2)


def test_config_round_trip():
    sets = [
        FullSpace(),
        Ball(0.75),
        Box([-1.0, -0.5], [0.25, 1.0]),
        NonnegativeOrthant(),
        HalfspacePolytope(normals=[[1.0, 1.0]], offsets=[1.0]),
        Intersection([Ball(1.0), NonnegativeOrthant()]),
    ]
    for constraint in sets:
        rebuilt = constraint_from_config(constraint.to_config())
        assert rebuilt == constraint


def test_config_rejects_unknown_keys():
    with pytest.raises(InfeasibleConstraint):
        constraint_from_config({"type": "ball", "radius": 1.0, "color": "red"})
    with pytest.raises(InfeasibleConstraint):
        constraint_from_config({"radius": 1.0})


@pytest.mark.parametrize("cfg", [
    {"type": "ball"},
    {"type": "intersection"},
    {"type": "box", "lower": [-1.0, -1.0]},
    {"type": "polytope", "normals": [[1.0, 0.0]]},
    {"type": "intersection", "members": {"type": "ball", "radius": 1.0}},
    {"type": "intersection", "members": [{"type": "ball"}]},
    {"type": ["ball"], "radius": 1.0},
    {"type": "ball", "radius": 1.0, "lower": [-1.0]},
    {"type": "ball", "radius": 1.0, 1: 2},
], ids=["ball", "intersection", "box-no-upper", "polytope-no-offsets",
        "members-not-a-list", "member-no-radius", "type-not-a-name",
        "key-of-another-type", "key-not-a-name"])
def test_config_missing_or_foreign_keys_raise(cfg):
    with pytest.raises(InfeasibleConstraint):
        constraint_from_config(cfg)


def test_member_mask_agrees_with_contains():
    rng = np.random.default_rng(3)
    sets = [
        Ball(0.9),
        Box([-0.5, -0.25], [0.5, 1.0]),
        NonnegativeOrthant(),
        Intersection([Ball(1.2), Box([-1.0, -1.0], [1.0, 1.0])]),
        _cut_polytope(2),
        Intersection([Ball(1.1), _cut_polytope(2)]),
    ]
    pts = rng.standard_normal((500, 2))
    for constraint in sets:
        ours = np.array([bool(constraint.contains(p)) for p in pts])
        ref = member_mask(constraint, pts, tol=0.0)
        disagree = np.mean(ours != ref)
        assert disagree < 0.01  # boundary-tolerance differences only

import dataclasses

import numpy as np
import pytest

import growthlab.sensitivity as sensitivity
from growthlab.cli import IDENTITY_TOL
from growthlab.constraints import FullSpace
from growthlab.errors import DimensionMismatch, InvalidSpec
from growthlab.market import (
    PATH_BLOCK, MarketSpec, TiltSpec, cumsum_from_zero, density_paths,
    girsanov_drift, orthogonal_draws, simulate_paths, tilt_decomposition,
    tilt_field,
)
from growthlab.numeraire import numeraire_fractions, wealth_paths
from growthlab.quadform import cov_inner, dot_last
from growthlab.sensitivity import (
    expansion_ladder, expansion_orders, first_order_check,
    reference_increments, response_quotient, second_order_check,
    streamed_expansion_ladder,
)

from oracles import expansion_limits

COV = np.array([[0.5, 0.1], [0.1, 0.4]])
DRIFT = np.array([0.8, 0.5])
EPS = np.array([0.2, 0.1, 0.05, 0.025])


def make_bundle(n_paths=400, seed=5, n_steps=40, cov=COV):
    spec = MarketSpec(dim=2, n_steps=n_steps, covariance=cov, drift=DRIFT)
    return simulate_paths(spec, n_paths, seed)


def routes(q):
    """The quotient's two cumulative paths (P, N + 1): the direct route and
    the formula, sum of its finite-variation and martingale increments."""
    return (cumsum_from_zero(q["direct_increments"]),
            cumsum_from_zero(q["fv_increments"] + q["mart_increments"]))


def test_response_identity_is_exact_pathwise():
    b = make_bundle()
    rec = density_paths(b, TiltSpec(lam1=np.array([0.5, -0.3])))
    for eps in (1.0, 0.4, 0.1, 0.01):
        q = response_quotient(b, rec, eps)
        assert q["identity_error"] < 1e-8


def test_identity_survives_rank_deficient_covariance():
    cov = np.array([[0.5, 0.5], [0.5, 0.5]])
    b = make_bundle(cov=cov)
    rec = density_paths(b, TiltSpec(lam1=np.array([0.3, 0.1])))
    q = response_quotient(b, rec, 0.25)
    assert q["identity_error"] < 1e-8


def test_zero_tilt_gives_zero_everywhere():
    b = make_bundle(n_paths=50)
    rec = density_paths(b, TiltSpec(lam1=np.zeros(2)))
    assert np.max(np.abs(rec.z - 1.0)) == 0.0
    q = response_quotient(b, rec, 0.5)
    for path in routes(q):
        assert np.max(np.abs(path)) < 1e-12
    per_path = expansion_ladder(b, rec, EPS).per_path
    assert np.max(per_path["first_fv"].mean(axis=1)) == 0.0
    assert np.max(per_path["first_qv"].mean(axis=1)) == 0.0
    first = first_order_check(b, rec, EPS)
    assert first["order_fv"] is None and first["order_qv"] is None
    assert first["fv_ratios"] == [None] * 3


def test_first_order_error_halves_with_eps():
    b = make_bundle()
    rec = density_paths(b, TiltSpec(lam1=np.array([0.5, -0.3])))
    first = first_order_check(b, rec, EPS)
    for ratio in first["fv_ratios"]:
        assert 1.6 < ratio < 2.4
    assert 0.8 <= first["order_fv"] <= 1.2
    assert 0.8 <= first["order_qv"] <= 1.2


def test_second_order_error_is_first_order_in_eps():
    b = make_bundle()
    rec = density_paths(b, TiltSpec(lam1=np.array([0.5, -0.3])))
    second = second_order_check(b, rec, EPS)
    assert 0.8 <= second["order_fv"] <= 1.2
    assert 0.8 <= second["order_qv"] <= 1.2


def test_expansion_limits_match_small_eps_quotient():
    b = make_bundle(n_paths=100)
    rec = density_paths(b, TiltSpec(lam1=np.array([0.4, -0.2])))
    first_order, _ = expansion_limits(b, rec)
    eps = 1e-6
    q = response_quotient(b, rec, eps)
    # the quotient converges to the first-order limit as eps -> 0
    assert np.max(np.abs(routes(q)[1] - first_order)) < 1e-5


def test_orthogonal_noise_does_not_change_the_quotient():
    # the response identity only sees the market component of the tilt;
    # an orthogonal density factor scales Z but cancels from lam_eps
    b = make_bundle(n_paths=100)
    lam = np.array([0.4, -0.2])
    rec_flat = density_paths(b, TiltSpec(lam1=lam))
    rec_orth = density_paths(b, TiltSpec(lam1=lam, orthogonal_vol=0.5),
                             orthogonal_draws(5, b.n_paths, b.n_steps))
    assert not np.allclose(rec_flat.z, rec_orth.z)
    q_flat = response_quotient(b, rec_flat, 0.2)
    q_orth = response_quotient(b, rec_orth, 0.2)
    assert q_orth["identity_error"] < 1e-8
    assert not np.allclose(expansion_limits(b, rec_flat)[0],
                           expansion_limits(b, rec_orth)[0])


def test_eps_one_reproduces_full_tilt():
    b = make_bundle(n_paths=60)
    rec = density_paths(b, TiltSpec(lam1=np.array([0.3, 0.2])))
    q = response_quotient(b, rec, 1.0)
    # at eps = 1 the perturbed market is the fully tilted one
    assert q["identity_error"] < 1e-8


def test_identity_error_is_the_gap_of_the_two_routes():
    b = make_bundle(n_paths=200)
    rec = density_paths(b, TiltSpec(lam1=np.array([0.5, -0.3])))
    for eps in (1.0, 0.2, 0.025):
        q = response_quotient(b, rec, eps)
        direct, formula = routes(q)
        assert abs(q["identity_error"]
                   - np.max(np.abs(direct - formula))) <= 1e-13, eps


def test_identity_fails_on_a_mistaken_energy():
    # A tilt energy off by one part in 1e4 breaks the identity on every
    # path: the check has the power to see it.
    b = make_bundle(n_paths=200)
    rec = density_paths(b, TiltSpec(lam1=np.array([0.5, -0.3])))
    wrong = dataclasses.replace(rec, lam_energy=rec.lam_energy * (1 + 1e-4))
    for eps in (1.0, 0.2, 0.025):
        assert response_quotient(b, rec, eps)["identity_error"] < 1e-12
        assert response_quotient(b, wrong, eps)["identity_error"] \
            > IDENTITY_TOL, eps


def snapshot(*objects):
    """Copies of every array field of the given dataclass instances and
    arrays, to compare bit for bit after a call."""
    out = []
    for obj in objects:
        fields = [obj] if isinstance(obj, np.ndarray) else [
            v for v in vars(obj).values() if isinstance(v, np.ndarray)]
        out += [f.copy() for f in fields]
    return out


def same_bits(a, b):
    return len(a) == len(b) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_quotient_and_ladder_leave_their_inputs_unchanged():
    # The quotient and the ladder columns are written in place over their
    # own arrays; no input array may be touched, and a repeat is identical.
    b = make_bundle(n_paths=100)
    rec = density_paths(b, TiltSpec(lam1=np.array([0.5, -0.3]),
                                    orthogonal_vol=0.5),
                        orthogonal_draws(5, b.n_paths, b.n_steps))
    reference = reference_increments(b)
    before = snapshot(b, rec, reference)
    for eps in (1.0, 0.1):
        first = response_quotient(b, rec, eps, reference=reference)
        again = response_quotient(b, rec, eps, reference=reference)
        assert same_bits(snapshot(b, rec, reference), before)
        assert first.keys() == again.keys()
        for key in first:
            assert np.array_equal(first[key], again[key]), key
    report, again = (expansion_ladder(b, rec, EPS) for _ in range(2))
    assert same_bits(snapshot(b, rec, reference), before)
    assert report.meta == again.meta
    for key, arr in report.per_path.items():
        assert np.array_equal(again.per_path[key], arr), key


def test_streamed_ladder_leaves_each_tile_input_unchanged(monkeypatch):
    # Every tile shares the reference fractions; each tile's bundle and
    # density record must come out of its rows as they went in.
    rows, seen = sensitivity._ladder_rows, []

    def checked_rows(bundle, record, eps_ladder, frac_ref=None):
        before = snapshot(bundle, record, frac_ref)
        out = rows(bundle, record, eps_ladder, frac_ref)
        seen.append(same_bits(snapshot(bundle, record, frac_ref), before))
        return out

    monkeypatch.setattr(sensitivity, "_ladder_rows", checked_rows)
    spec = MarketSpec(dim=2, n_steps=30, covariance=COV, drift=DRIFT)
    tilt = TiltSpec(lam1=np.array([0.5, -0.3]), orthogonal_vol=0.5)
    first, again = (streamed_expansion_ladder(spec, tilt, EPS, 1500, 11)
                    for _ in range(2))
    assert seen == [True] * 6
    assert first.meta == again.meta
    for key, arr in first.per_path.items():
        assert np.array_equal(again.per_path[key], arr), key


def test_rejects_eps_outside_unit_interval():
    b = make_bundle(n_paths=10)
    rec = density_paths(b, TiltSpec(lam1=np.array([0.3, 0.2])))
    with pytest.raises(ValueError):
        response_quotient(b, rec, 0.0)
    with pytest.raises(ValueError):
        response_quotient(b, rec, 1.5)


def three_pass_rows(bundle, record, eps_ladder):
    """The expansion checks computed the long way: a separate pass for the
    identity and for each order, every quotient built from the full tilt
    decomposition and solving its own reference wealth."""
    def quad(lam):
        return cov_inner(bundle.cov, lam, lam) * bundle.dG

    def cumulative(inc):
        return np.concatenate(
            (np.zeros((bundle.n_paths, 1)), np.cumsum(inc, axis=1)), axis=1)

    def quotient(eps):
        decomp = tilt_decomposition(bundle, record, eps)
        w_eps = wealth_paths(bundle, numeraire_fractions(
            bundle, FullSpace(), drifts=girsanov_drift(bundle, decomp)))
        w_ref = wealth_paths(bundle, numeraire_fractions(bundle, FullSpace()))
        diff = (w_eps.dB + w_eps.dL) - (w_ref.dB + w_ref.dL)
        lam = decomp.lam_path
        fv_inc = -(eps / 2.0) * quad(lam)
        mart_inc = np.einsum("pki,pki->pk", lam, bundle.dM)
        return (cumulative(diff / eps), cumulative(fv_inc + mart_inc),
                fv_inc, mart_inc, lam)

    identity = 0.0
    for eps in eps_ladder:
        direct, formula = quotient(float(eps))[:2]
        identity = max(identity, float(np.max(np.abs(direct - formula))))
    # The limits' increments, taken from their definitions.
    z_left = record.z[:, :-1]
    lam0 = z_left[:, :, None] * record.lam1[None, :, :]
    first_inc = np.einsum("pki,pki->pk", lam0, bundle.dM)
    lim_fv = -0.5 * quad(lam0)
    lim_mart = -(z_left - 1.0) * first_inc
    rows = {"first_fv": [], "first_qv": [], "second_fv": [], "second_qv": []}
    for eps in eps_ladder:
        fv_inc, mart_inc = quotient(eps)[2:4]
        rows["first_fv"].append(np.sum(np.abs(fv_inc), axis=1))
        rows["first_qv"].append(np.sum((mart_inc - first_inc) ** 2, axis=1))
    for eps in eps_ladder:
        mart_inc, lam = quotient(eps)[3:]
        rows["second_fv"].append(
            np.sum(np.abs(-0.5 * quad(lam) - lim_fv), axis=1))
        rows["second_qv"].append(np.sum(
            ((mart_inc - first_inc) / eps - lim_mart) ** 2, axis=1))
    return identity, {k: np.stack(v) for k, v in rows.items()}


@pytest.mark.parametrize("cov", [COV, np.array([[0.5, 0.5], [0.5, 0.5]])],
                         ids=["full-rank", "rank-deficient"])
def test_one_pass_matches_three_passes(cov):
    # The one pass forms the formula side from the scalar tilt ratio, the
    # oracle from the vector field lam^eps: the two round differently, by
    # at most 1.0e-13 (rank-deficient) and 2.5e-15 (full rank) of a column.
    b = make_bundle(n_paths=200, cov=cov)
    rec = density_paths(b, TiltSpec(lam1=np.array([0.5, -0.3])))
    identity, rows = three_pass_rows(b, rec, EPS)
    report = expansion_ladder(b, rec, EPS)
    assert identity < 1e-12
    assert report.meta["identity_max_error"] < 1e-12
    assert list(report.per_path) == list(rows)
    for name, arr in rows.items():
        gap = np.max(np.abs(report.per_path[name] - arr))
        assert gap <= 1e-12 * np.max(np.abs(arr)), name
    orders = expansion_orders(report)
    assert first_order_check(b, rec, EPS) == orders["first_order"]
    assert second_order_check(b, rec, EPS) == orders["second_order"]


@pytest.mark.parametrize("orthogonal_vol", [0.0, 0.5])
@pytest.mark.parametrize("cov", [COV, np.array([[0.5, 0.5], [0.5, 0.5]])],
                         ids=["full-rank", "rank-deficient"])
def test_quotient_increments_match_the_tilt_field(cov, orthogonal_vol):
    # The formula side takes the scalar ratio times the record's <lam1, dM>
    # and |lam1|_c^2 dG; its definition is the vector field lam^eps.
    # Measured: at most 5.1e-16 of the largest value, and equal at eps = 1.
    b = make_bundle(n_paths=200, cov=cov)
    rec = density_paths(b, TiltSpec(lam1=np.array([0.5, -0.3]),
                                    orthogonal_vol=orthogonal_vol),
                        orthogonal_draws(5, b.n_paths, b.n_steps))
    for eps in (1.0, 0.2, 0.025):
        q = response_quotient(b, rec, eps)
        lam = tilt_field(rec, eps)
        for key, want in (("mart_increments", dot_last(lam, b.dM)),
                          ("energy_increments",
                           cov_inner(b.cov, lam, lam) * b.dG)):
            gap = np.max(np.abs(q[key] - want))
            assert gap <= 1e-14 * np.max(np.abs(want)), (eps, key)


def test_density_record_of_another_bundle_raises_dimension_mismatch():
    tilt = TiltSpec(lam1=np.array([0.5, -0.3]))
    b20, b30 = make_bundle(n_paths=20, n_steps=10), make_bundle(n_paths=30,
                                                                n_steps=10)
    with pytest.raises(DimensionMismatch, match=r"z \(30, 11\).*\(20, 11\)"):
        expansion_ladder(b20, density_paths(b30, tilt), [0.2, 0.1])
    b12 = make_bundle(n_paths=10, n_steps=12)
    with pytest.raises(DimensionMismatch, match=r"lam1 \(12, 2\).*\(20, 2\)"):
        response_quotient(make_bundle(n_paths=10, n_steps=20),
                          density_paths(b12, tilt), 0.1)


def test_precomputed_reference_gives_the_same_quotient():
    b = make_bundle(n_paths=100)
    rec = density_paths(b, TiltSpec(lam1=np.array([0.5, -0.3])))
    reference = reference_increments(b)
    for eps in (1.0, 0.1):
        default = response_quotient(b, rec, eps)
        given = response_quotient(b, rec, eps, reference=reference)
        assert default.keys() == given.keys()
        for key in default:
            assert np.array_equal(default[key], given[key]), key
    with pytest.raises(DimensionMismatch):
        response_quotient(b, rec, 0.1, reference=reference[:, :-1])


@pytest.mark.parametrize("orthogonal_vol", [0.0, 0.5])
@pytest.mark.parametrize("n_paths", [1, 1500, 2048])
def test_streamed_sensitivity_matches_whole_bundle(n_paths, orthogonal_vol):
    # 1500 paths end in a partial block; with the orthogonal factor on, each
    # block must take its own rows of the one whole-run draw
    spec = MarketSpec(dim=2, n_steps=30, covariance=COV, drift=DRIFT)
    tilt = TiltSpec(lam1=np.array([0.5, -0.3]), orthogonal_vol=orthogonal_vol)
    bundle = simulate_paths(spec, n_paths, 11)
    xi = orthogonal_draws(11, n_paths, spec.n_steps)
    want = expansion_ladder(bundle, density_paths(bundle, tilt, xi), EPS)
    for threads in (1, 2, 8):
        got = streamed_expansion_ladder(spec, tilt, EPS, n_paths, 11,
                                        threads=threads)
        assert got.meta == want.meta, threads
        assert np.array_equal(got.scales, want.scales)
        for key, arr in want.per_path.items():
            assert got.per_path[key].shape == (EPS.size, n_paths)
            assert np.array_equal(got.per_path[key], arr), (threads, key)


def test_streamed_sensitivity_blocks_do_not_depend_on_later_blocks():
    spec = MarketSpec(dim=2, n_steps=30, covariance=COV, drift=DRIFT)
    tilt = TiltSpec(lam1=np.array([0.5, -0.3]), orthogonal_vol=0.5)
    short = streamed_expansion_ladder(spec, tilt, EPS, PATH_BLOCK, 11)
    long = streamed_expansion_ladder(spec, tilt, EPS, 1500, 11, threads=2)
    for key, arr in short.per_path.items():
        assert np.array_equal(long.per_path[key][:, :PATH_BLOCK], arr), key


@pytest.mark.parametrize("eps_ladder", [[0.1, 0.1], [0.2, 0.1, 0.2], [0.1]],
                         ids=["equal", "repeated", "one-rung"])
def test_sensitivity_rejects_eps_ladders_without_a_slope(eps_ladder):
    # A repeated size, or a single one, gives the order fit no slope: it
    # once gave numpy's RankWarning and an order from a degenerate fit.
    spec = MarketSpec(dim=2, n_steps=5, covariance=COV, drift=DRIFT)
    tilt = TiltSpec(lam1=np.array([0.5, -0.3]))
    with pytest.raises(InvalidSpec, match="eps_ladder must list two or more distinct sizes"):
        streamed_expansion_ladder(spec, tilt, eps_ladder, 10, 1)
    bundle = simulate_paths(spec, 10, 1)
    with pytest.raises(InvalidSpec, match="eps_ladder must list two or more distinct sizes"):
        expansion_ladder(bundle, density_paths(bundle, tilt), eps_ladder)


def test_an_out_of_range_eps_ladder_is_summarised_in_its_message():
    # The message once held the whole list: 3,179,687 characters here.
    spec = MarketSpec(dim=2, n_steps=5, covariance=COV, drift=DRIFT)
    with pytest.raises(InvalidSpec) as info:
        streamed_expansion_ladder(spec, TiltSpec(lam1=np.array([0.5, -0.3])),
                                  list(np.linspace(0.5, 2.0, 100000)), 10, 1)
    text = str(info.value)
    assert len(text) < 500
    assert text.startswith("eps_ladder entries must lie in (0, 1], got [0.5")


@pytest.mark.parametrize("eps_ladder", [[], 0.1], ids=["empty", "scalar"])
def test_streamed_sensitivity_rejects_malformed_eps_ladder(eps_ladder):
    spec = MarketSpec(dim=2, n_steps=5, covariance=COV, drift=DRIFT)
    with pytest.raises(InvalidSpec):
        streamed_expansion_ladder(spec, TiltSpec(lam1=np.array([0.5, -0.3])),
                                  eps_ladder, 10, 1)

import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.stats import norm

import growthlab.constraints as constraints

from growthlab.constraints import Ball, Box, FullSpace, Intersection
from growthlab.errors import DensityFloorHit, InvalidSpec
from growthlab.market import (
    PATH_BLOCK, PATH_TILE, GaussianSignalModel, MarketSpec, TiltSpec, density_paths,
    event_probabilities, filtered_drift, market_steps, orthogonal_draws,
    simulate_paths, simulate_signal_paths, stream_paths, tilt_field,
)
from growthlab.numeraire import (
    WealthPaths, numeraire_fractions, wealth_paths, wealth_process_gap,
)
from growthlab.quadform import cov_inner
from growthlab.sensitivity import streamed_expansion_ladder
from growthlab.stability import (
    LadderReport, constraint_ladder, density_sequence_check,
    excursion_density_ladder, filtration_ladder, lognormal_density_ladder,
    probability_ladder,
)

from oracles import (ball_ladder_bound, delta_slope_interval, einsum_wealth,
                     percentile_bootstrap_interval)

COV = np.array([[0.5, 0.1], [0.1, 0.4]])
DRIFT = np.array([0.8, 0.5])


def make_spec(n_steps=40, **kwargs):
    kwargs.setdefault("covariance", COV)
    kwargs.setdefault("drift", DRIFT)
    return MarketSpec(dim=2, n_steps=n_steps, **kwargs)


def test_constant_constraint_ladder_is_identically_zero():
    spec = make_spec()
    sets = [Ball(1.0)] * 4
    report = constraint_ladder(spec, sets, Ball(1.0), 64, 5)
    for name, arr in report.per_path.items():
        assert np.max(np.abs(arr)) == 0.0, name
    slopes = report.slopes()
    assert all(res["passed"] for res in slopes.values())
    assert all(res["zero"] for res in slopes.values())


def test_filtration_ladder_metrics_decay():
    spec = make_spec()
    model = GaussianSignalModel(direction=np.array([1.0, 0.3]),
                                noise_scales=np.array([0.5, 0.25, 0.125,
                                                       0.0625]))
    report = filtration_ladder(spec, model, Ball(2.0), 512, 11)
    slopes = report.slopes()
    for name in ("fv", "qv", "sup_rel_inf", "sup_rel_n", "drift_gap",
                 "event_gap"):
        assert slopes[name]["passed"], (name, slopes[name])


def test_two_sided_relative_errors_agree_at_finest_index():
    spec = make_spec()
    model = GaussianSignalModel(direction=np.array([1.0, 0.3]),
                                noise_scales=np.array([0.5, 0.25, 0.125,
                                                       0.0625]))
    report = filtration_ladder(spec, model, Ball(2.0), 512, 11)
    summ = report.summary()
    lo = summ["sup_rel_inf"]["mean"][-1]
    hi = summ["sup_rel_n"]["mean"][-1]
    assert lo / hi < 2.0 and hi / lo < 2.0


def test_probability_ladder_proof_plan_split():
    spec = make_spec()
    tilt = TiltSpec(lam1=np.array([0.5, -0.3]))
    report = probability_ladder(spec, tilt, Ball(2.0), 256, 13)
    # with a fixed filtration the information component is identically zero
    assert np.max(np.abs(report.per_path["main1_fv"])) == 0.0
    assert np.max(np.abs(report.per_path["main1_qv"])) == 0.0
    assert np.max(report.per_path["main2_fv"]) > 0.0
    slopes = report.slopes()
    for name, res in slopes.items():
        assert res["passed"], (name, res)


def test_probability_ladder_drift_diagnostic_scales_like_eps_squared():
    spec = make_spec()
    tilt = TiltSpec(lam1=np.array([0.5, -0.3]))
    eps = np.array([0.5, 0.25, 0.125])
    report = probability_ladder(spec, tilt, Ball(2.0), 128, 13,
                                eps_ladder=eps)
    drift_gap = report.per_path["drift_gap"].mean(axis=1)
    ratios = drift_gap[:-1] / drift_gap[1:]
    # quadratic in eps up to the lambda_eps dependence on eps
    assert np.all(ratios > 2.5) and np.all(ratios < 6.0)


@pytest.mark.parametrize("orthogonal_vol", [0.0, 0.5])
def test_probability_ladder_density_columns_match_sequence_check(
        orthogonal_vol):
    spec = make_spec()
    tilt = TiltSpec(lam1=np.array([0.5, -0.3]), orthogonal_vol=orthogonal_vol)
    eps = np.array([0.5, 0.25, 0.125])
    report = probability_ladder(spec, tilt, Ball(2.0), 128, 13,
                                eps_ladder=eps)
    record = density_paths(simulate_paths(spec, 128, 13), tilt,
                           orthogonal_draws(13, 128, spec.n_steps))
    table = density_sequence_check([(1.0 - e) + e * record.z for e in eps])
    for name in ("z_l1", "z_sup", "zz_qv", "rr_qv"):
        assert np.array_equal(report.per_path[name],
                              table["per_path"][name]), name
    assert list(report.per_path) == [
        "z_l1", "z_sup", "zz_qv", "rr_qv", "drift_gap", "main1_fv",
        "main1_qv", "main2_fv", "main2_qv", "sup_rel_inf", "sup_rel_n"]


def test_density_floor_guard(monkeypatch):
    monkeypatch.setattr("growthlab.market.DENSITY_FLOOR", 1e-3)
    monkeypatch.setattr("growthlab.market.ENERGY_CAP", 1e9)
    spec = make_spec(n_steps=200)
    tilt = TiltSpec(lam1=np.array([4.0, -3.0]))
    with pytest.raises(DensityFloorHit):
        probability_ladder(spec, tilt, FullSpace(), 512, 3)


def test_constraint_ladder_reports_exact_set_distances():
    spec = MarketSpec(dim=2, n_steps=20, covariance=np.diag([0.6, 0.4]),
                      drift=np.array([5.0, 4.0]), normalize_clock=False)
    sets = [Ball(1.5 + 2.0 ** -n) for n in range(1, 5)]
    report = constraint_ladder(spec, sets, Ball(1.5), 64, 17)
    assert np.allclose(report.deterministic["set_distance"],
                       [2.0 ** -n for n in range(1, 5)], atol=1e-12)
    assert report.meta["bound_ok"]
    assert np.all(np.asarray(report.meta["bound_excess"]) <= 0.0)
    # |a|_c ~ 4.6 exceeds every radius, so every step is checked
    assert report.meta["bound_unchecked_steps"] == [0] * 4


def test_constraint_ladder_zero_drift_steps_get_set_distance_zero(monkeypatch):
    # |a|_c = 0 truncates both sets to {0}: that norm's distance is 0, and
    # the rung's distance is the largest over the other norms.
    seen = []
    distance = constraints.truncated_pair_distance

    def recording(set_a, set_b, radius, dim):
        seen.append((radius, distance(set_a, set_b, radius, dim)))
        return seen[-1][1]

    monkeypatch.setattr(constraints, "truncated_pair_distance", recording)
    drift = np.zeros((20, 2))
    drift[10:] = [5.0, 4.0]
    spec = MarketSpec(dim=2, n_steps=20, covariance=np.diag([0.6, 0.4]),
                      drift=drift, normalize_clock=False)
    sets = [Ball(1.5 + 2.0 ** -n) for n in range(1, 5)]
    report = constraint_ladder(spec, sets, Ball(1.5), 16, 17)
    assert [d for r, d in seen if r == 0.0] == [0.0] * 4
    assert np.allclose(report.deterministic["set_distance"],
                       [2.0 ** -n for n in range(1, 5)], atol=1e-12)
    assert report.meta["bound_unchecked_steps"] == [10] * 4
    still = MarketSpec(dim=2, n_steps=20, covariance=np.diag([0.6, 0.4]),
                       drift=np.zeros(2), normalize_clock=False)
    report = constraint_ladder(still, sets, Ball(1.5), 16, 17)
    assert np.all(report.deterministic["set_distance"] == 0.0)
    assert report.meta["ladder_scale"] == "rung_index"


def test_constraint_ladder_checks_euclidean_bound_only_in_its_regime():
    # c = I/2 and a = (2, 0): |a|_c = sqrt(2) lies below every radius, so
    # all truncated set distances are 0 while the fractions (r, 0) differ.
    # The Euclidean form fails there; no step is in its proved regime.
    spec = MarketSpec(dim=2, n_steps=20, covariance=np.eye(2) / 2.0,
                      drift=np.array([2.0, 0.0]), normalize_clock=False)
    sets = [Ball(1.5 + 2.0 ** -n) for n in range(1, 5)]
    report = constraint_ladder(spec, sets, Ball(1.5), 64, 17)
    assert np.all(report.deterministic["set_distance"] == 0.0)
    assert report.meta["bound_unchecked_steps"] == [20] * 4
    assert report.meta["bound_ok"]


def _tv_drift(t):
    return np.array([2.0 + 3.0 * np.sin(6.0 * t), 1.0 + 2.0 * np.cos(4.0 * t)])


def _tv_covariance(t):
    return np.array([[0.6 + 0.3 * t, 0.1], [0.1, 0.4]])


@pytest.mark.parametrize("covariance, drift, norms", [
    (np.array([[0.6, 0.1], [0.1, 0.4]]), np.array([5.0, 4.0]), 1),
    (_tv_covariance, _tv_drift, 40),
], ids=["constant", "time-varying"])
def test_constraint_ladder_matches_per_step_reference(monkeypatch, covariance,
                                                      drift, norms):
    # On the time-varying market |a|_c moves every step, and on every rung
    # some steps lie inside the bound's regime and some outside.
    calls = []
    distance = constraints.truncated_pair_distance

    def counting(set_a, set_b, radius, dim):
        calls.append(radius)
        return distance(set_a, set_b, radius, dim)

    monkeypatch.setattr(constraints, "truncated_pair_distance", counting)
    spec = MarketSpec(dim=2, n_steps=40, covariance=covariance, drift=drift)
    radii = [1.0 + 2.0 ** -n for n in range(1, 5)]
    report = constraint_ladder(spec, [Ball(r) for r in radii], Ball(1.0),
                               8, 3)
    # one distance per rung and distinct drift norm
    assert len(calls) == len(radii) * norms and len(set(calls)) == norms
    market = market_steps(spec)
    ref = ball_ladder_bound(market.cov, market.drift, market.dG, radii, 1.0)
    unchecked = [rung["unchecked"] for rung in ref]
    assert report.meta["bound_unchecked_steps"] == unchecked
    assert sum(unchecked) < len(radii) * 40
    assert report.meta["bound_excess"] == pytest.approx(
        [rung["excess"] for rung in ref], abs=1e-9)
    for name in ("set_distance", "growth_gap"):
        assert report.deterministic[name] == pytest.approx(
            [rung[name] for rung in ref], rel=1e-9, abs=1e-12), name


def test_constraint_ladder_makes_limit_supports_once_per_radius(monkeypatch):
    # Box rungs take the net distance at every drift norm; the limit set's
    # supports are made once per norm, and every rung's distances and bound
    # excess are bitwise those of supports made afresh for each pair.
    spec = MarketSpec(dim=2, n_steps=16, covariance=_tv_covariance,
                      drift=_tv_drift)
    sets = [Box([-0.5 - 2.0 ** -n] * 2, [1.0 + 2.0 ** -n, 0.8 + 2.0 ** -n])
            for n in range(1, 4)]
    limit = Box([-0.5, -0.5], [1.0, 0.8])
    radii = []
    support = Box.support_truncated

    def counting(self, dirs, radius):
        if self is limit:
            radii.append(radius)
        return support(self, dirs, radius)

    monkeypatch.setattr(Box, "support_truncated", counting)
    report = constraint_ladder(spec, sets, limit, 8, 3)
    once = len(radii)
    assert once == len(set(radii)) > 5
    monkeypatch.setattr(constraints, "_net_support",
                        lambda k, radius, dim: k.support_truncated(
                            constraints.direction_net(dim), radius))
    fresh = constraint_ladder(spec, sets, limit, 8, 3)
    assert len(radii) - once > 2 * once  # once per rung and radius
    assert np.array_equal(report.deterministic["set_distance"],
                          fresh.deterministic["set_distance"])
    assert report.meta["bound_excess"] == fresh.meta["bound_excess"]


def test_density_check_rejects_bad_paths():
    with pytest.raises(InvalidSpec):
        density_sequence_check([])
    with pytest.raises(InvalidSpec):
        density_sequence_check([np.array([[1.0, -0.5]])])
    with pytest.raises(InvalidSpec):
        density_sequence_check([np.array([[0.9, 1.0]])])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_density_check_rejects_non_finite_paths(bad):
    # A NaN passed both the positivity and the start-at-one test and gave a
    # NaN z_sup with RuntimeWarnings; an inf gave an infinite z_sup.
    ones = [1.0, 1.0, 1.0, 1.0, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpec, match="density paths"):
            density_sequence_check([[[1.0, 1.0, 1.0, bad, 1.0], ones]])


def test_a_malformed_value_is_summarised_in_its_message():
    # The message once held the repr of the whole nested list: 301,446
    # characters for this call.
    with pytest.raises(InvalidSpec) as info:
        density_sequence_check([[[1.0] * 300 + [np.nan]] * 200])
    text = str(info.value)
    assert len(text) < 500
    assert text.startswith("density paths must be a finite 2-d array, got [[")


def test_density_check_rejects_a_rung_with_no_paths():
    with pytest.raises(InvalidSpec, match="density paths"):
        density_sequence_check([np.ones((0, 5))])


def test_density_check_constant_one_is_all_zero():
    z = np.ones((16, 11))
    table = density_sequence_check([z, z])
    for name in ("z_l1", "z_sup", "zz_qv", "rr_qv"):
        assert np.max(np.abs(table[name])) == 0.0


def test_lognormal_terminal_gap_matches_closed_form():
    # E|Z_T - 1| = 2 (2 Phi(s sqrt(T) / 2) - 1) for the stochastic
    # exponential of s W at time T
    vols = np.array([0.8, 0.4, 0.2])
    z_list = lognormal_density_ladder(vols, 200_000, 64, 1.0, seed=29)
    table = density_sequence_check(z_list)
    for i, s in enumerate(vols):
        ref = 2.0 * (2.0 * norm.cdf(s / 2.0) - 1.0)
        se = table["stderr"]["z_l1"][i]
        assert abs(table["z_l1"][i] - ref) < 4.0 * se + 5e-4


def test_lognormal_quadratic_variation_scale():
    # mean [R, R]_T = s^2 T exactly in the discretization
    vols = np.array([0.4, 0.2, 0.1])
    z_list = lognormal_density_ladder(vols, 50_000, 64, 1.0, seed=31)
    table = density_sequence_check(z_list)
    for i, s in enumerate(vols):
        assert table["rr_qv"][i] == pytest.approx(s * s, rel=0.05)


def test_excursion_family_shrinks_in_the_mean_but_not_pathwise():
    sizes = np.array([4.0, 16.0, 64.0])
    z_list = excursion_density_ladder(sizes, 2.0, 50_000, 64, 1.0, seed=37)
    table = density_sequence_check(z_list)
    for name in ("z_l1", "zz_qv", "rr_qv"):
        col = table[name]
        assert col[0] > col[1] > col[2], name
    # the worst path keeps its full excursion at every ladder index
    worst = [np.max(pp) for pp in table["per_path"]["z_sup"]]
    assert min(worst) > 0.5 * max(worst)


def test_slope_fit_flags_increasing_columns():
    report = LadderReport(
        family="synthetic", scales=np.array([0.5, 0.25, 0.125, 0.0625]),
        per_path={"up": np.linspace(1.0, 2.0, 4)[:, None]
                  * np.ones((4, 100)),
                  "down": np.linspace(2.0, 1.0, 4)[:, None]
                  * np.ones((4, 100))})
    slopes = report.slopes()
    assert not slopes["up"]["passed"]
    assert slopes["down"]["passed"]


def test_delta_interval_matches_the_finite_difference_oracle():
    # Each per-path column's interval is the delta method's s -/+ 1.96 se
    # moved by the percentile bootstrap's second-order shift, against a
    # finite-difference gradient and Hessian of the polyfit slope in the
    # rung means, np.cov / P and the rungs' third moments; a zero column
    # keeps no interval.
    rng = np.random.default_rng(3)
    scales = 2.0 ** -np.arange(1, 6)
    per_path = {
        "a": rng.exponential(1.0, (5, 101)) * scales[:, None],
        "zero": np.zeros((5, 101)),
        "b": rng.exponential(1.0, (5, 101)) * scales[:, None] ** 2,
        "flat": rng.exponential(1.0, (5, 101)),
    }
    slopes = LadderReport(family="synthetic", scales=scales,
                          per_path=per_path).slopes()
    x = -np.log(scales)
    for name in ("a", "b", "flat"):
        arr = per_path[name]
        lo, hi = delta_slope_interval(scales, arr)
        assert slopes[name]["slope"] == pytest.approx(
            np.polyfit(x, np.log(arr.mean(axis=1)), 1)[0], abs=1e-12)
        assert slopes[name]["ci"] == (pytest.approx(lo, rel=1e-10),
                                      pytest.approx(hi, rel=1e-10))
        assert slopes[name]["passed"] == (hi < 0.0)
    assert slopes["a"]["passed"] and not slopes["flat"]["passed"]
    assert slopes["zero"]["zero"] and slopes["zero"]["ci"] == (None, None)


def test_interval_tracks_the_percentile_bootstrap_on_a_skewed_column():
    # At a few dozen paths a right-skewed column's percentile bootstrap
    # interval sits below the symmetric delta interval; the second-order
    # shift closes most of the gap at both ends.
    rng = np.random.default_rng(0)
    scales = 2.0 ** -np.arange(1, 5)
    arr = rng.exponential(1.0, 48) ** 2 * scales[:, None] ** 0.5 \
        + 0.3 * rng.exponential(1.0, (4, 48))
    res = LadderReport(family="synthetic", scales=scales,
                       per_path={"a": arr}).slopes()["a"]
    boot = percentile_bootstrap_interval(scales, arr, 20000, 99)
    half = (res["ci"][1] - res["ci"][0]) / 2.0
    for end, sign in ((0, -1.0), (1, 1.0)):
        delta_gap = abs(res["slope"] + sign * half - boot[end])
        assert delta_gap > 0.15 * half
        assert abs(res["ci"][end] - boot[end]) < 0.5 * delta_gap


def test_a_column_proportional_to_the_scale_has_a_zero_width_interval():
    # x_lp = scale_l Y_p has slope -1 whatever the paths, so its delta
    # variance is zero; the density columns of a mixture (1 - eps) + eps Z
    # are such columns up to rounding: z - 1 = eps (Z - 1).
    rng = np.random.default_rng(8)
    scales = 2.0 ** -np.arange(1, 9)
    z = rng.lognormal(0.0, 0.5, 2048)
    per_path = {"exact": scales[:, None] * rng.exponential(1.0, 2048),
                "mixture": np.abs((1.0 - scales[:, None])
                                  + scales[:, None] * z - 1.0)}
    slopes = LadderReport(family="synthetic", scales=scales,
                          per_path=per_path).slopes()
    for name, res in slopes.items():
        lo, hi = res["ci"]
        assert res["slope"] == pytest.approx(-1.0, abs=1e-12), name
        assert 0.0 <= hi - lo <= 1e-12, name
        assert res["passed"], name


def test_a_column_interval_depends_only_on_its_own_data():
    # A column's interval comes from its own per-path projections, so
    # adding, removing or reordering the other columns moves no bit of its
    # slope, interval or verdict (its joint-normal draws do move).
    rng = np.random.default_rng(5)
    scales = 2.0 ** -np.arange(1, 6)
    a = rng.exponential(1.0, (5, 301)) * scales[:, None]
    b = rng.exponential(1.0, (5, 301)) * scales[:, None] ** 2

    def slopes_of_b(**per_path):
        res = LadderReport(family="synthetic", scales=scales,
                           per_path=per_path).slopes()["b"]
        return res["slope"], res["ci"], res["passed"]

    alone = slopes_of_b(b=b)
    assert slopes_of_b(a=a, b=b) == alone
    assert slopes_of_b(b=b, a=a, zero=np.zeros((5, 301))) == alone


@pytest.mark.parametrize("ladder", ["probability", "sensitivity"])
@pytest.mark.parametrize("n_paths", [0, -1])
def test_orthogonal_factor_ladders_reject_bad_path_counts(ladder, n_paths):
    # the orthogonal draw comes before the blocks, so it checks the count too
    tilt = TiltSpec(lam1=np.array([0.4, -0.2]), orthogonal_vol=0.4)
    eps = np.array([0.2, 0.1])
    with pytest.raises(InvalidSpec, match="n_paths must be positive"):
        if ladder == "probability":
            probability_ladder(make_spec(n_steps=10), tilt, FullSpace(),
                               n_paths, 3, eps_ladder=eps)
        else:
            streamed_expansion_ladder(make_spec(n_steps=10), tilt, eps,
                                      n_paths, 3)


def test_ladder_rows_are_long_format():
    report = LadderReport(
        family="synthetic", scales=np.array([0.5, 0.25]),
        per_path={"m": np.array([[1.0, 3.0], [0.5, 1.5]])})
    rows = report.rows()
    assert len(rows) == 2
    assert rows[0] == {"ladder_index": 1, "metric": "m", "value": 2.0,
                       "stderr": pytest.approx(1.0 / np.sqrt(2.0))}


@pytest.mark.parametrize("scales", [[0.5], [0.5, 0.0], [0.5, -0.25]],
                         ids=["one-rung", "zero-scale", "negative-scale"])
def test_slopes_need_two_rungs_with_positive_scales(scales):
    report = LadderReport(family="synthetic", scales=np.array(scales),
                          per_path={"m": np.ones((len(scales), 4))})
    with pytest.raises(InvalidSpec, match="two or more rungs"):
        report.slopes()


@pytest.mark.parametrize("scales", [[0.2, 0.2], [0.5, 0.25, 0.5]],
                         ids=["equal", "repeated"])
def test_slopes_reject_repeated_scales(scales):
    # All-equal scales once gave a NaN slope, with numpy warnings, and a
    # NaN in summary.json.
    report = LadderReport(family="synthetic", scales=np.array(scales),
                          per_path={"m": np.arange(1.0, len(scales) + 1)[:, None]
                                    * np.ones(4)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpec, match="distinct positive scales"):
            report.slopes()


def test_constraint_ladder_with_repeated_distances_fits_the_index():
    # Two rungs at one set distance give that axis no slope of its own, so
    # the ladder falls back to the rung index, as for a zero distance.
    spec = MarketSpec(dim=2, n_steps=6, covariance=np.diag([0.6, 0.4]),
                      drift=np.array([5.0, 4.0]), normalize_clock=False)
    report = constraint_ladder(spec, [Ball(1.75), Ball(1.75), Ball(1.625)],
                               Ball(1.5), 32, 17)
    assert np.allclose(report.deterministic["set_distance"],
                       [0.25, 0.25, 0.125], atol=1e-12)
    assert report.meta["ladder_scale"] == "rung_index"
    assert np.array_equal(report.scales, 1.0 / np.arange(1, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report.slopes()


COV3 = np.array([[0.5, 0.1, 0.0], [0.1, 0.4, 0.05], [0.0, 0.05, 0.3]])
DRIFT3 = np.array([0.8, 0.5, -0.3])
TILT3 = np.array([0.5, -0.3, 0.2])


def _small_spec(dim=2):
    return MarketSpec(dim=dim, n_steps=8, covariance=COV3[:dim, :dim],
                      drift=DRIFT3[:dim])


def _small_ladders(n_paths, threads, dim=2):
    """The three ladders on a short d = dim market, few rungs each."""
    spec = _small_spec(dim)
    model = GaussianSignalModel(direction=np.array([1.0, 0.3, -0.5])[:dim],
                                noise_scales=np.array([0.5, 0.25, 0.125]))
    tilt = TiltSpec(lam1=TILT3[:dim], orthogonal_vol=0.3)
    return {
        "filtration": filtration_ladder(spec, model, Ball(1.0), n_paths, 3,
                                        threads=threads),
        "probability": probability_ladder(
            spec, tilt, Box(-np.ones(dim), np.ones(dim)), n_paths, 3,
            eps_ladder=[0.5, 0.25], threads=threads),
        "constraint": constraint_ladder(
            spec, [Ball(1.0 + 2.0 ** -n) for n in (1, 2, 3)], Ball(1.0),
            n_paths, 3, threads=threads),
    }


@pytest.mark.parametrize("n_paths", [1, 1500, 2048])
def test_ladders_are_bitwise_equal_across_threads(n_paths):
    # 1500 paths end in a partial block
    one = _small_ladders(n_paths, 1)
    for threads in (2, 8):
        other = _small_ladders(n_paths, threads)
        for family, report in one.items():
            assert list(other[family].per_path) == list(report.per_path)
            for name, arr in report.per_path.items():
                assert arr.shape[1] == n_paths
                assert np.array_equal(other[family].per_path[name], arr), \
                    (family, name, threads)


def test_block_paths_do_not_depend_on_later_blocks():
    short, long = _small_ladders(PATH_BLOCK, 1), _small_ladders(1500, 2)
    for family in ("probability", "constraint"):
        for name, arr in short[family].per_path.items():
            assert np.array_equal(long[family].per_path[name][:, :PATH_BLOCK],
                                  arr), (family, name)


def test_stream_paths_stripes_blocks_over_workers():
    spec = make_spec(n_steps=2)
    market = market_steps(spec)
    caller = threading.get_ident()

    def job(tile, lo, hi):
        return lo, hi, threading.get_ident(), tile.dM

    n_paths = 8 * PATH_BLOCK + 5
    # more workers than cores, switching threads as often as possible
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = stream_paths(market, n_paths, 9, job, threads=4)
    finally:
        sys.setswitchinterval(interval)
    # the job runs on the PATH_TILE-path tiles of each block, in path order
    assert PATH_BLOCK % PATH_TILE == 0 and PATH_TILE < PATH_BLOCK
    tiles = [(lo, min(lo + PATH_TILE, n_paths))
             for lo in range(0, n_paths, PATH_TILE)]
    assert len(tiles) == 8 * (PATH_BLOCK // PATH_TILE) + 1
    assert [(lo, hi) for lo, hi, _, _ in runs] == tiles
    block_of = [lo // PATH_BLOCK for lo, *_ in runs]
    worker_of_block = {}
    for b, (_, _, ident, _) in zip(block_of, runs):
        assert worker_of_block.setdefault(b, ident) == ident, b
    # every tile of block b on worker b % 4, the calling thread being 0
    for w in range(4):
        assert len({worker_of_block[b] for b in range(w, 9, 4)}) == 1
    assert worker_of_block[0] == caller
    assert caller not in [worker_of_block[b] for b in (1, 2, 3)]
    whole = simulate_paths(spec, n_paths, 9, threads=3)
    assert np.array_equal(np.concatenate([dM for *_, dM in runs]), whole.dM)
    # more threads than blocks: one worker per block at most
    solo = stream_paths(market, 3, 9, job, threads=8)
    assert len(solo) == 1 and solo[0][2] == caller


def _tiled_runs(dim, threads):
    """Per-path arrays of every streamed computation at 1500 paths on a
    d = dim market: the three ladders, sensitivity and simulate_paths."""
    spec = _small_spec(dim)
    tilt = TiltSpec(lam1=TILT3[:dim], orthogonal_vol=0.3)
    runs = {"dM": simulate_paths(spec, 1500, 3, threads=threads).dM}
    for family, report in _small_ladders(1500, threads, dim).items():
        for name, arr in report.per_path.items():
            runs[family, name] = arr
    report = streamed_expansion_ladder(spec, tilt, [0.2, 0.1], 1500, 3,
                                       threads=threads)
    for name, arr in report.per_path.items():
        runs["sensitivity", name] = arr
    return runs


@pytest.mark.parametrize("dim", [2, 3])
def test_path_tiles_leave_every_path_unchanged(monkeypatch, dim):
    # The job runs on PATH_TILE-path tiles; whole-block jobs, one tile a
    # block, give the same bits at any thread count.
    import growthlab.market as market

    assert PATH_TILE < PATH_BLOCK
    tiled = {threads: _tiled_runs(dim, threads) for threads in (1, 2)}
    monkeypatch.setattr(market, "PATH_TILE", PATH_BLOCK)
    for threads in (1, 2):
        whole = _tiled_runs(dim, threads)
        assert list(whole) == list(tiled[threads])
        for key, arr in whole.items():
            assert 1500 in arr.shape[:2], key  # (P, N, d) or (rungs, P)
            assert np.array_equal(tiled[threads][key], arr), (key, threads)


RANK_ONE = np.array([[0.5, 0.5], [0.5, 0.5]])
FILTRATION_BRANCHES = {
    # name: (spec, direction, constraint, paths, least share of hard rows)
    # every step its own covariance, so its own run of solves
    "per-step-covariance": (
        make_spec(n_steps=20, covariance=lambda t: np.array(
            [[0.5 + 0.4 * t, 0.1 - 0.2 * t], [0.1 - 0.2 * t, 0.4]])),
        [1.0, 0.3], Ball(1.0), 1500, 0.2),
    # rank one: the fractions are m u with u, v projected on the range of
    # c, not v; the ball holds the unit null vectors the solver asks for,
    # and |m u| < |m v| decides which rows are hard
    "rank-deficient": (make_spec(n_steps=20, covariance=RANK_ONE),
                       [1.0, 0.3], FullSpace(), 1500, 0.0),
    "rank-deficient-ball": (make_spec(n_steps=20, covariance=RANK_ONE),
                            [1.0, 0.3], Ball(1.2), 1500, 0.1),
    "ball-and-box-d3": (
        MarketSpec(dim=3, n_steps=20, covariance=COV3, drift=DRIFT3),
        [1.0, 0.3, -0.5],
        Intersection([Ball(1.2), Box([-0.3, -0.3, -0.3], [0.9, 0.6, 0.5])]),
        600, 0.5),
    "small-ball": (make_spec(n_steps=20), [1.0, 0.3], Ball(0.05), 1500, 0.9),
}


def test_streamed_filtration_ladder_matches_whole_bundle():
    _check_filtration_against_whole_bundle(
        make_spec(n_steps=20), [1.0, 0.3], Ball(1.0), 1500, 0.2)


@pytest.mark.parametrize("case", list(FILTRATION_BRANCHES))
def test_filtration_ladder_branches_match_whole_bundle(case):
    _check_filtration_against_whole_bundle(*FILTRATION_BRANCHES[case])


def _check_filtration_against_whole_bundle(spec, direction, constraint,
                                           n_paths, hard_share):
    model = GaussianSignalModel(direction=np.array(direction),
                                noise_scales=np.array([0.5, 0.25, 0.125]))
    seed = 17
    report = filtration_ladder(spec, model, constraint, n_paths, seed,
                               threads=2)
    # The whole-bundle pipeline: every rung over all paths at once, on the
    # (P, N, d) drift arrays and the per-step solver.
    signal = simulate_signal_paths(spec, model, n_paths, seed)
    base = signal.base
    true_drift = np.broadcast_to(
        signal.theta[:, None, None] * model.direction, base.dM.shape)
    w_inf = WealthPaths(*einsum_wealth(base, numeraire_fractions(
        base, constraint, drifts=true_drift), true_drift))
    vcv_dg = cov_inner(base.cov, model.direction, model.direction) * base.dG
    hit = (signal.theta > 0.0).astype(float)
    for n in range(model.n_levels):
        drift_n, mean_n, prec_n = filtered_drift(signal, n)
        fractions = numeraire_fractions(base, constraint, drifts=drift_n)
        free = numeraire_fractions(base, FullSpace(), drifts=drift_n)
        hard = np.linalg.norm(fractions - free, axis=-1) > 1e-9
        assert hard.mean() >= hard_share, (n, hard.mean())
        gaps = wealth_process_gap(
            WealthPaths(*einsum_wealth(base, fractions, true_drift)), w_inf)
        gaps["drift_gap"] = np.sum(
            (mean_n - signal.theta[:, None]) ** 2 * vcv_dg, axis=1)
        probs = event_probabilities(mean_n, prec_n, 0.0)
        gaps["event_gap"] = np.sum(np.abs(probs - hit[:, None]) * base.dG,
                                   axis=1)
        for name, arr in report.per_path.items():
            # fv sums |dB_n - dB_inf|, whose terms cancel: the (P, N)
            # scalar wealth moves it in the last digits of the largest value
            scale = np.max(np.abs(gaps[name]))
            assert np.max(np.abs(arr[n] - gaps[name])) <= 1e-10 * scale, \
                (n, name)


STEPS20 = np.arange(20) / 20.0
PROBABILITY_BRANCHES = {
    # name: (spec, lam1, constraint, paths, least share of hard rows); a run
    # whose every row is hard is solved whole, any other row by row
    "per-step-covariance": (
        make_spec(n_steps=20, covariance=lambda t: np.array(
            [[0.5 + 0.4 * t, 0.1 - 0.2 * t], [0.1 - 0.2 * t, 0.4]])),
        [0.5, -0.3], Ball(1.0), 1500, 0.02),
    # rank one: p and q are a and lam1 projected on the range of c
    "rank-deficient-ball": (make_spec(n_steps=20, covariance=RANK_ONE),
                            [1.2, 0.4], Ball(1.1), 1500, 0.1),
    "ball-and-box-d3": (
        MarketSpec(dim=3, n_steps=20, covariance=COV3, drift=DRIFT3), TILT3,
        Intersection([Ball(1.2), Box([-0.3, -0.3, -0.3], [0.9, 0.6, 0.5])]),
        600, 0.01),
    "small-ball": (make_spec(n_steps=20), [0.5, -0.3], Ball(0.05), 1500, 1.0),
    # a on the unit sphere, lam1 tangent to it: every row a + s lam1 leaves
    # the ball, by less than 1e-6, so a membership slack would keep it
    "tangent-ball": (make_spec(n_steps=20, drift=[0.6, 0.8]),
                     [0.0016, -0.0012], Ball(1.0), 1500, 1.0),
    "per-step-drift-and-tilt": (
        make_spec(n_steps=20, drift=lambda t: np.array([0.8 - 0.6 * t,
                                                        0.5 + 0.3 * t])),
        np.outer(1.0 + STEPS20, [0.5, -0.3]), Ball(1.0), 1500, 0.0),
}


@pytest.mark.parametrize("case", list(PROBABILITY_BRANCHES))
def test_probability_ladder_branches_match_vector_route(case):
    spec, lam1, constraint, n_paths, hard_share = PROBABILITY_BRANCHES[case]
    tilt = TiltSpec(lam1=np.array(lam1))
    eps_ladder = [0.5, 0.25, 0.125]
    report = probability_ladder(spec, tilt, constraint, n_paths, 19,
                                eps_ladder=eps_ladder, threads=2)
    shares = []
    for i, expected in enumerate(_vector_route(
            spec, tilt, constraint, n_paths, 19, eps_ladder, None, shares)):
        for name, arr in expected.items():
            scale = np.max(np.abs(arr))
            assert np.max(np.abs(report.per_path[name][i] - arr)) \
                <= 1e-10 * scale, (i, name)
    assert min(shares) >= hard_share, shares


def _vector_route(spec, tilt, constraint, n_paths, seed, eps_ladder, xi,
                  shares):
    """Per rung, every per-path column of probability_ladder from the
    whole-bundle (P, N, d) drift arrays, the per-step solver and
    wealth_paths; each rung's share of hard rows goes to shares."""
    bundle = simulate_paths(spec, n_paths, seed)
    record = density_paths(bundle, tilt, xi)
    w_ref = wealth_paths(bundle, numeraire_fractions(bundle, constraint))
    table = density_sequence_check(
        [(1.0 - e) + e * record.z for e in eps_ladder])
    for i, eps in enumerate(eps_ladder):
        shift = eps * tilt_field(record, eps)
        fractions = numeraire_fractions(bundle, constraint,
                                        drifts=bundle.drift + shift)
        free = numeraire_fractions(bundle, FullSpace(),
                                   drifts=bundle.drift + shift)
        shares.append(np.mean(np.linalg.norm(fractions - free, axis=-1)
                              > 1e-9))
        gaps = wealth_process_gap(wealth_paths(bundle, fractions), w_ref)
        expected = {name: table["per_path"][name][i]
                    for name in ("z_l1", "z_sup", "zz_qv", "rr_qv")}
        expected.update(
            drift_gap=np.sum(cov_inner(bundle.cov, shift, shift) * bundle.dG,
                             axis=1),
            main1_fv=np.zeros(n_paths), main1_qv=np.zeros(n_paths),
            main2_fv=gaps["fv"], main2_qv=gaps["qv"],
            sup_rel_inf=gaps["sup_rel_inf"], sup_rel_n=gaps["sup_rel_n"])
        yield expected


def test_probability_ladder_with_orthogonal_factor_matches_whole_bundle():
    # the market, constraint, paths and seed of test_c07
    spec = make_spec(n_steps=100)
    tilt = TiltSpec(lam1=np.array([0.5, -0.3]), orthogonal_vol=0.4)
    eps_ladder = 2.0 ** -np.arange(1, 9)
    report = probability_ladder(spec, tilt, Ball(2.0), 4096, 23, threads=2)
    xi = orthogonal_draws(23, 4096, 100)
    assert report.meta["floor_hits"] == density_paths(
        simulate_paths(spec, 4096, 23), tilt, xi).floor_hits
    for i, expected in enumerate(_vector_route(
            spec, tilt, Ball(2.0), 4096, 23, eps_ladder, xi, [])):
        # drift_gap is eps^2 sum ratio^2 lam_energy, the same sum in scalars
        assert np.allclose(report.per_path["drift_gap"][i],
                           expected.pop("drift_gap"), rtol=1e-12, atol=0.0)
        # the wealth columns come from the scalar line formula on rows the
        # ball holds, so they match in the last digits of the largest value
        for name, arr in expected.items():
            if name in ("main2_fv", "main2_qv", "sup_rel_inf", "sup_rel_n"):
                assert np.max(np.abs(report.per_path[name][i] - arr)) \
                    <= 1e-10 * np.max(np.abs(arr)), (i, name)
            else:
                assert np.array_equal(report.per_path[name][i], arr), (i, name)

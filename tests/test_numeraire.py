import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import growthlab.numeraire as numeraire

from growthlab.constraints import Ball, Box, FullSpace
from growthlab.market import MarketSpec, simulate_paths
from growthlab.numeraire import (
    WealthPaths, growth_path, growth_rate, numeraire_fractions,
    terminal_deflation, wealth_paths, wealth_process_gap,
)
from growthlab.quadform import cov_inner, optimal_fraction_batch

from oracles import einsum_wealth

COV = np.array([[0.5, 0.1], [0.1, 0.4]])
DRIFT = np.array([0.8, 0.5])


def make_bundle(n_paths=200, seed=0, n_steps=30, **kwargs):
    kwargs.setdefault("covariance", COV)
    spec = MarketSpec(dim=2, n_steps=n_steps, drift=DRIFT, **kwargs)
    return simulate_paths(spec, n_paths, seed)


def test_one_dimensional_box_closed_form():
    c = np.array([[1.0]])
    mu = 0.9
    f = optimal_fraction_batch(c, np.array([mu]), Box([0.0], [mu / 2.0]))
    assert f[0] == pytest.approx(mu / 2.0, abs=1e-10)
    g = growth_rate(c, np.array([mu]), f)
    assert g == pytest.approx(3.0 * mu * mu / 8.0, abs=1e-10)


@pytest.mark.parametrize("constraint", [Ball(0.5), FullSpace()],
                         ids=["one-set", "full-space"])
def test_one_step_market_solves_its_step(constraint):
    b = make_bundle(n_paths=5, n_steps=1)
    ref = optimal_fraction_batch(b.cov[0], b.drift, constraint)
    assert np.array_equal(numeraire_fractions(b, constraint), ref)
    drifts = np.broadcast_to(b.drift, (5, 1, 2))
    assert np.array_equal(numeraire_fractions(b, constraint, drifts=drifts),
                          np.broadcast_to(ref, (5, 1, 2)))


def test_wealth_decomposition_matches_manual_computation():
    b = make_bundle(n_paths=50)
    fractions = numeraire_fractions(b, Ball(1.2))
    w = wealth_paths(b, fractions)
    ca = np.einsum("kij,kj->ki", b.cov, b.drift)
    manual_db = (np.einsum("ki,ki->k", fractions, ca)
                 - 0.5 * np.einsum("ki,kij,kj->k", fractions, b.cov,
                                   fractions)) * b.dG
    assert np.max(np.abs(w.dB - manual_db[None, :])) < 1e-12
    manual_dl = np.einsum("ki,pki->pk", fractions, b.dM)
    assert np.max(np.abs(w.dL - manual_dl)) < 1e-12
    log_wealth = np.cumsum(w.dB + w.dL, axis=1)
    assert np.max(np.abs(log_wealth[:, -1] - w.terminal_log_wealth)) < 1e-12


def test_growth_rate_of_optimum_dominates_any_feasible_strategy():
    b = make_bundle(n_paths=1)
    constraint = Ball(1.0)
    fractions = numeraire_fractions(b, constraint)
    rng = np.random.default_rng(5)
    for _ in range(20):
        other = constraint.project(rng.standard_normal(2) * 2.0)
        for k in range(b.n_steps):
            g_opt = growth_rate(b.cov[k], b.drift[k], fractions[k])
            g_other = growth_rate(b.cov[k], b.drift[k], other)
            assert g_opt >= g_other - 1e-10


def test_growth_path_sandwich_and_unconstrained_bound():
    b = make_bundle()
    gp = growth_path(b, numeraire_fractions(b, Ball(0.8)))
    assert np.all(gp.integrand >= -1e-12)
    bound = 0.5 * np.array([cov_inner(b.cov[k], b.drift[k], b.drift[k])
                            for k in range(b.n_steps)])
    assert np.all(gp.integrand <= bound + 1e-12)
    assert np.max(np.abs(gp.unconstrained_bound - bound)) < 1e-12
    assert gp.total <= float(np.sum(gp.unconstrained_bound * b.dG)) + 1e-12
    assert gp.cumulative[0] == 0.0
    assert gp.cumulative[-1] == pytest.approx(gp.total, rel=1e-12)


def test_growing_boxes_approach_unconstrained_growth():
    b = make_bundle()
    totals = []
    for half in (0.25, 0.5, 1.0, 2.0, 4.0):
        box = Box([-half, -half], [half, half])
        totals.append(growth_path(b, numeraire_fractions(b, box)).total)
    assert all(t2 >= t1 - 1e-12 for t1, t2 in zip(totals, totals[1:]))
    unconstrained = growth_path(b, numeraire_fractions(b, FullSpace()))
    assert totals[-1] == pytest.approx(unconstrained.total, rel=1e-9)
    assert unconstrained.total == pytest.approx(
        float(np.sum(unconstrained.unconstrained_bound * b.dG)), rel=1e-12)


def test_per_step_deflation_inequality_is_exact():
    # log E-factor per step: <pi - phi, c (a - phi)> dG <= 0 for every
    # feasible pi, which makes X / X_hat a supermartingale
    b = make_bundle(n_paths=1)
    constraint = Ball(1.0)
    phi = numeraire_fractions(b, constraint)
    rng = np.random.default_rng(9)
    for _ in range(50):
        pi = constraint.project(rng.standard_normal(2) * 3.0)
        for k in range(b.n_steps):
            gap = cov_inner(b.cov[k], pi - phi[k], b.drift[k] - phi[k])
            assert gap * b.dG[k] <= 1e-10


def test_terminal_deflation_monte_carlo():
    b = make_bundle(n_paths=20_000, seed=3)
    constraint = Ball(1.0)
    benchmark = wealth_paths(b, numeraire_fractions(b, constraint))
    rng = np.random.default_rng(11)
    for _ in range(5):
        pi = constraint.project(rng.standard_normal(2) * 2.0)
        w = wealth_paths(b, np.broadcast_to(pi, (b.n_steps, 2)))
        ratio, se = terminal_deflation(w, benchmark)
        assert ratio <= 1.0 + 3.0 * se


def test_wealth_gap_metrics_vanish_for_identical_strategies():
    b = make_bundle(n_paths=20)
    fractions = numeraire_fractions(b, Ball(1.0))
    w1 = wealth_paths(b, fractions)
    w2 = wealth_paths(b, fractions.copy())
    gaps = wealth_process_gap(w1, w2)
    assert np.max(gaps["fv"]) == 0.0
    assert np.max(gaps["qv"]) == 0.0
    assert np.max(gaps["sup"]) == 0.0
    assert np.max(gaps["sup_rel_inf"]) == 0.0
    assert np.max(gaps["sup_rel_n"]) == 0.0


def test_wealth_gap_metrics_for_different_strategies():
    b = make_bundle(n_paths=40)
    w_a = wealth_paths(b, numeraire_fractions(b, Ball(1.0)))
    w_b = wealth_paths(b, numeraire_fractions(b, Ball(0.4)))
    gaps = wealth_process_gap(w_a, w_b)
    diff = np.cumsum(w_a.dB + w_a.dL, axis=1) - np.cumsum(w_b.dB + w_b.dL, axis=1)
    assert np.min(np.max(np.abs(diff), axis=1)) > 0.0
    assert np.allclose(gaps["sup"], np.max(np.abs(diff), axis=1),
                       rtol=1e-12, atol=0.0)
    assert np.allclose(gaps["sup_rel_inf"],
                       np.max(np.abs(np.exp(diff) - 1.0), axis=1),
                       rtol=1e-9, atol=0.0)
    assert np.allclose(gaps["sup_rel_n"],
                       np.max(np.abs(np.exp(-diff) - 1.0), axis=1),
                       rtol=1e-9, atol=0.0)
    assert np.allclose(gaps["fv"], np.sum(np.abs(w_a.dB - w_b.dB), axis=1),
                       rtol=1e-12, atol=0.0)
    assert np.allclose(gaps["qv"], np.sum((w_a.dL - w_b.dL) ** 2, axis=1),
                       rtol=1e-12, atol=0.0)


def test_per_path_drifts_give_per_path_fractions():
    b = make_bundle(n_paths=6, n_steps=8)
    rng = np.random.default_rng(2)
    drifts = rng.standard_normal((6, 8, 2))
    fractions = numeraire_fractions(b, Ball(0.9), drifts=drifts)
    assert fractions.shape == (6, 8, 2)
    for p in range(6):
        for k in range(8):
            ref = optimal_fraction_batch(b.cov[k], drifts[p, k], Ball(0.9))
            assert np.max(np.abs(fractions[p, k] - ref)) < 1e-8


def test_fullspace_fractions_equal_drift():
    b = make_bundle(n_paths=3)
    fractions = numeraire_fractions(b, FullSpace())
    assert np.max(np.abs(fractions - b.drift)) < 1e-9


def test_time_varying_covariance_matches_per_step_solves(monkeypatch):
    # Piecewise-constant covariance: three runs of equal steps, the first
    # and last sharing one matrix. Each run is one solver call, and every
    # row matches its own per-step solve.
    other = np.array([[0.3, -0.05], [-0.05, 0.6]])

    def cov(t):
        return other if 0.3 <= t < 0.6 else COV

    b = make_bundle(n_paths=40, n_steps=10, covariance=cov)
    calls = []
    solve = numeraire.optimal_fraction_batch

    def counting(c, rows, constraint, **kwargs):
        calls.append(len(rows))
        return solve(c, rows, constraint, **kwargs)

    monkeypatch.setattr(numeraire, "optimal_fraction_batch", counting)
    rng = np.random.default_rng(4)
    drifts = rng.standard_normal((40, 10, 2)) * 1.5
    constraint = Ball(0.9)
    fractions = numeraire_fractions(b, constraint, drifts=drifts)
    assert calls == [40 * 3, 40 * 3, 40 * 4]
    reference = numeraire_fractions(b, constraint)
    gp = growth_path(b, reference)
    assert len(calls) == 6
    for k in range(b.n_steps):
        for p in range(b.n_paths):
            ref = solve(b.cov[k], drifts[p, k], constraint)
            assert np.max(np.abs(fractions[p, k] - ref)) <= 1e-13
        ref = solve(b.cov[k], b.drift[k], constraint)
        assert np.max(np.abs(reference[k] - ref)) <= 1e-13
        assert gp.integrand[k] == pytest.approx(
            growth_rate(b.cov[k], b.drift[k], ref), abs=1e-13)


@pytest.mark.parametrize("covariance", [
    COV, lambda t: np.array([[0.5 + t, 0.1 - 0.2 * t], [0.1 - 0.2 * t, 0.4]]),
], ids=["constant", "time-varying"])
@pytest.mark.parametrize("pathwise_f", [False, True], ids=["step-f", "path-f"])
@pytest.mark.parametrize("drift", ["step-a"])  # the bundle's own drift
def test_wealth_paths_match_einsum_reference(covariance, pathwise_f, drift):
    b = make_bundle(n_paths=60, n_steps=20, covariance=covariance)
    rng = np.random.default_rng(9)
    f = rng.standard_normal((60, 20, 2) if pathwise_f else (20, 2))
    w = wealth_paths(b, f)
    dB, dL = einsum_wealth(b, f, b.drift)
    for new, old in ((w.dB, dB), (w.dL, dL)):
        assert new.shape == old.shape
        assert np.max(np.abs(new - old)) <= 1e-14 * np.max(np.abs(old))


_GAP_ROW = st.tuples(
    st.sampled_from(["positive", "negative", "mixed", "zero"]),
    st.lists(st.floats(-800.0, 800.0, allow_subnormal=False),
             min_size=6, max_size=6))


@settings(max_examples=200, deadline=None)
@given(st.lists(_GAP_ROW, min_size=1, max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_gap_sups_match_full_array_definitions_bitwise(rows, seed):
    # sup, sup_rel_inf and sup_rel_n come from each row's largest and
    # smallest cumulative gap; they must carry the bits of the maxima over
    # the whole row, also where expm1 overflows.
    sign = {"positive": np.abs, "negative": lambda x: -np.abs(x),
            "mixed": lambda x: x, "zero": np.zeros_like}
    inc = np.array([sign[mode](np.array(vals)) for mode, vals in rows])
    rng = np.random.default_rng(seed)
    b = WealthPaths(dB=rng.standard_normal(inc.shape),
                    dL=rng.standard_normal(inc.shape))
    # a = b shifted by inc, and a pure shift with b zero, so the cumulative
    # gaps keep each row's sign pattern
    for a, ref in ((WealthPaths(dB=b.dB + inc, dL=b.dL.copy()), b),
                   (WealthPaths(dB=inc, dL=np.zeros_like(inc)),
                    WealthPaths(dB=np.zeros_like(inc),
                                dL=np.zeros_like(inc)))):
        gap = np.cumsum((a.dB + a.dL) - (ref.dB + ref.dL), axis=1)
        with np.errstate(over="ignore"):
            expected = {"sup": np.max(np.abs(gap), axis=1),
                        "sup_rel_inf": np.max(np.abs(np.expm1(gap)), axis=1),
                        "sup_rel_n": np.max(np.abs(np.expm1(-gap)), axis=1)}
            got = wealth_process_gap(a, ref)
        for name, value in expected.items():
            assert got[name].tobytes() == value.tobytes(), name

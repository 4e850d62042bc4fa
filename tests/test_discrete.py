import os

import numpy as np
import pytest

from growthlab.discrete import (
    MAX_QUAD_NODES, OnePeriodMarket, ScenarioTree, discontinuity_report,
    one_period_optimal, tree_predictable_projection,
    tree_projection_convergence,
)
from growthlab.errors import (
    InvalidSpec, NonNestedPartitions, QuadratureUnderResolved,
)

from oracles import enumerate_tree_projection, mc_one_period_log_wealth


def test_full_revelation_closed_form():
    res = one_period_optimal(OnePeriodMarket(p=0.6, level=None))
    assert res.theta_times_signal == pytest.approx(0.2, abs=1e-12)
    assert np.allclose(res.wealth_values, [1.2, 0.8], atol=1e-12)
    assert np.allclose(res.wealth_probs, [0.6, 0.4], atol=1e-12)
    ref = 0.6 * np.log(1.2) + 0.4 * np.log(0.8)
    assert res.expected_log == pytest.approx(ref, abs=1e-12)


def test_centered_slice_optimum_is_zero():
    for n in range(1, 9):
        res = one_period_optimal(OnePeriodMarket(p=0.6, level=n))
        assert abs(res.theta_star) < 1e-6, n


def test_quadrature_weights_renormalized():
    market = OnePeriodMarket(p=0.6, level=3)
    _, w = market.quadrature()
    assert abs(w.sum() - 1.0) < 1e-12


def test_residual_std_follows_dyadic_tail():
    for n in (1, 4, 7):
        market = OnePeriodMarket(p=0.6, level=n)
        assert market.residual_std() == pytest.approx(
            2.0 ** -n / np.sqrt(3.0), rel=1e-12)


def test_optimum_agrees_with_monte_carlo_profile():
    # the MC expected-log profile over a theta grid peaks where the
    # quadrature optimum sits (both near zero for the centered slice)
    market = OnePeriodMarket(p=0.6, level=2)
    res = one_period_optimal(market)
    grid = np.linspace(-0.5, 0.5, 41)
    profile = mc_one_period_log_wealth(0.6, 2, grid, n_samples=400_000)
    best = grid[np.argmax(profile)]
    assert abs(best - res.theta_star) <= (grid[1] - grid[0]) + 1e-9


def test_gap_table_is_constant_at_two_p_minus_one():
    rep = discontinuity_report(0.6, range(1, 9))
    assert np.allclose(rep["gap"], 0.2, atol=1e-9)
    rep_half = discontinuity_report(0.5, [1, 4, 8])
    assert np.allclose(rep_half["gap"], 0.0, atol=1e-9)


def test_discontinuity_report_builds_one_rule(monkeypatch):
    import growthlab.discrete as discrete

    builds = []
    hermgauss = discrete.hermgauss

    def counted(n):
        builds.append(n)
        return hermgauss(n)

    monkeypatch.setattr(discrete, "hermgauss", counted)
    for kwargs in ({}, {"quad_nodes": 370, "quad_range": 6.0}):
        builds.clear()
        rep = discontinuity_report(0.6, range(1, 9), **kwargs)
        assert len(builds) == 1, kwargs
        # bit for bit the report of a fresh rule for every level and use
        revealed = one_period_optimal(OnePeriodMarket(p=0.6)).wealth_values
        for n, theta, gap in zip(rep["level"], rep["theta_star"], rep["gap"]):
            market = OnePeriodMarket(p=0.6, level=n, **kwargs)
            ref = one_period_optimal(market).theta_star
            pts, w = market.quadrature()
            mean = float(np.dot(w, pts))
            assert theta == ref
            assert gap == max(abs(1.0 + ref * mean - revealed[0]),
                              abs(1.0 - ref * mean - revealed[1]))


def test_under_resolved_quadrature_raises():
    with pytest.raises(QuadratureUnderResolved):
        one_period_optimal(OnePeriodMarket(p=0.6, level=8, signal_mean=1.0))


def test_quadrature_node_cap_raises_before_any_rule_is_built():
    # numpy's rules past 371 nodes are non-finite and cost about n^3 to build
    OnePeriodMarket(p=0.6, level=1, quad_nodes=MAX_QUAD_NODES)
    with pytest.raises(QuadratureUnderResolved, match="is not finite"):
        OnePeriodMarket(p=0.6, level=1, quad_nodes=MAX_QUAD_NODES + 1)


@pytest.mark.parametrize("nodes, quad_range", [(4, 0.1), (371, 8.0)],
                         ids=["no-node-in-range", "zero-weights"])
def test_quadrature_without_weight_in_range_raises(nodes, quad_range):
    # both once gave NaN weights: a traceback, or NaN gaps and exit 1
    market = OnePeriodMarket(p=0.6, level=1, quad_nodes=nodes,
                             quad_range=quad_range)
    with pytest.raises(QuadratureUnderResolved, match="no weight"):
        market.quadrature()


def test_invalid_one_period_parameters():
    with pytest.raises(InvalidSpec):
        OnePeriodMarket(p=1.0, level=None)
    with pytest.raises(InvalidSpec):
        OnePeriodMarket(p=0.6, level=0)


def test_tree_projection_matches_enumeration():
    rng = np.random.default_rng(3)
    tree = ScenarioTree(depth=4, up_probs=np.array([0.5, 0.3, 0.7, 0.5]))
    values = rng.standard_normal(16)
    probs = tree.scenario_probs()
    for observed in range(5):
        ours = tree.condition(values, observed)
        ref = enumerate_tree_projection(4, probs, values, observed)
        assert np.max(np.abs(ours - ref)) < 1e-12


def test_predictable_projection_lags_by_one_level():
    tree = ScenarioTree(depth=3)
    chi = np.zeros(8)
    chi[0] = 1.0
    proj = tree_predictable_projection(tree, chi, n=3)
    # level 0 and 1 both condition on nothing
    assert np.allclose(proj[0], 1.0 / 8.0)
    assert np.allclose(proj[1], 1.0 / 8.0)
    # level 3 conditions on two coordinates
    assert proj[3][0] == pytest.approx(0.5)


def test_projection_contraction_in_expectation():
    rng = np.random.default_rng(5)
    tree = ScenarioTree(depth=5)
    chi = rng.standard_normal(32)
    probs = tree.scenario_probs()
    dg = tree.clock_increments
    base = np.abs(np.broadcast_to(chi, (6, 32))[1:]) * dg[:, None]
    for n in range(6):
        proj = tree_predictable_projection(tree, chi, n)
        lhs = float((np.sum(np.abs(proj[1:]) * dg[:, None], axis=0) @ probs))
        rhs = float((np.sum(base, axis=0) @ probs))
        assert lhs <= rhs + 1e-12


def test_projection_tower_property():
    rng = np.random.default_rng(6)
    tree = ScenarioTree(depth=5, up_probs=np.full(5, 0.4))
    chi = rng.standard_normal(32)
    fine = tree_predictable_projection(tree, chi, 4)
    coarse_of_fine = tree_predictable_projection(tree, fine, 2)
    coarse = tree_predictable_projection(tree, chi, 2)
    assert np.max(np.abs(coarse_of_fine - coarse)) < 1e-12


def test_convergence_table_monotone_and_exact_for_indicators():
    tree = ScenarioTree(depth=6)
    chi = np.zeros(64)
    chi[0] = 1.0
    conv = tree_projection_convergence(tree, chi, range(7))
    expected = conv["expected"]
    assert np.all(np.diff(expected) <= 1e-15)
    assert expected[-1] == 0.0
    # depth-2 hand computation: cap 0 vs full projection differs only at
    # level 2, where the capped version still averages both coordinates
    small = ScenarioTree(depth=2)
    ind = np.array([1.0, 0.0, 0.0, 0.0])
    table = tree_projection_convergence(small, ind, [0, 1, 2])
    # at cap 0, level-2 projection is 1/4 everywhere vs full (1/2, 1/2,
    # 0, 0): per-scenario gap 1/4 weighted by the level-2 clock 1/2
    assert np.allclose(table["per_scenario"][0], 1.0 / 8.0)
    assert table["expected"][0] == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert np.max(np.abs(table["per_scenario"][2])) == 0.0


def test_non_increasing_caps_rejected():
    tree = ScenarioTree(depth=3)
    chi = np.zeros(8)
    chi[0] = 1.0
    with pytest.raises(NonNestedPartitions):
        tree_projection_convergence(tree, chi, [2, 1, 3])
    with pytest.raises(InvalidSpec, match="nonnegative"):
        tree_projection_convergence(tree, chi, [-5, 2])


def test_caps_above_the_depth_rejected():
    tree = ScenarioTree(depth=3)
    chi = np.zeros(8)
    chi[0] = 1.0
    with pytest.raises(InvalidSpec, match="at most 3, got 7"):
        tree_projection_convergence(tree, chi, [0, 2, 7])
    table = tree_projection_convergence(tree, chi, [0, 2, 3])
    assert table["expected"][-1] == 0.0


def test_tree_depth_bound_is_indexing_and_the_machines_memory(monkeypatch):
    monkeypatch.delattr(os, "sysconf")  # no sysconf: the indexing bound only
    ScenarioTree(depth=40)
    with pytest.raises(InvalidSpec, match="tree depth 63 too large"):
        ScenarioTree(depth=63)
    # On a machine of 1 MiB, depth 13's (14, 8192) floats fit and depth
    # 14's (15, 16384) do not; nothing is allocated either way.
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__, raising=False)
    ScenarioTree(depth=13)
    with pytest.raises(InvalidSpec, match="tree depth 14 too large"):
        ScenarioTree(depth=14)


def test_tree_validates_inputs():
    with pytest.raises(InvalidSpec):
        ScenarioTree(depth=0)
    with pytest.raises(InvalidSpec):
        ScenarioTree(depth=2, up_probs=np.array([0.5, 1.0]))
    tree = ScenarioTree(depth=2)
    with pytest.raises(InvalidSpec):
        tree_predictable_projection(tree, np.zeros(5), 1)

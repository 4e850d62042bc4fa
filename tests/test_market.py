import functools
import os

import numpy as np
import pytest
import scipy.special

import growthlab.market as market

from growthlab.constraints import FullSpace, HalfspacePolytope
from growthlab.discrete import (
    OnePeriodMarket, ScenarioTree, tree_predictable_projection,
)
from growthlab.errors import InvalidSpec, UnsupportedSignalModel
from growthlab.market import (
    DENSITY_FLOOR, MAXLOG, GaussianSignalModel, MarketSpec, TiltSpec,
    check_paths, cumsum_from_zero, density_paths, event_probabilities,
    filtered_drift, girsanov_drift, ndtr, orthogonal_draws, physical_memory,
    simulate_paths, simulate_signal_paths, tilt_decomposition, tilt_field,
)
from growthlab.quadform import check_psd_matrix, cov_inner, dot_last
from growthlab.stability import filtration_ladder

from oracles import particle_posterior_mean

COV = np.array([[0.5, 0.1], [0.1, 0.4]])
DRIFT = np.array([0.8, 0.5])


def make_spec(n_steps=40, dim=2, **kwargs):
    return MarketSpec(dim=dim, n_steps=n_steps, covariance=COV[:dim, :dim],
                      drift=DRIFT[:dim], **kwargs)


def test_same_seed_same_paths():
    spec = make_spec()
    a = simulate_paths(spec, 100, 42)
    b = simulate_paths(spec, 100, 42)
    assert np.array_equal(a.dM, b.dM)


def test_thread_count_does_not_change_draws():
    spec = make_spec()
    a = simulate_paths(spec, 3000, 42, threads=1)
    b = simulate_paths(spec, 3000, 42, threads=8)
    assert np.array_equal(a.dM, b.dM)


def test_path_count_extension_is_prefix_stable():
    # fixed 1024-path blocks mean the first paths never move when more
    # are requested
    spec = make_spec()
    a = simulate_paths(spec, 1000, 7)
    b = simulate_paths(spec, 2500, 7)
    assert np.array_equal(a.dM, b.dM[:1000])


def test_clock_normalization_scales_to_unit_trace():
    spec = make_spec()
    dG, cov, _, _ = spec.materialize()
    traces = np.einsum("kii->k", cov)
    assert np.max(np.abs(traces - 1.0)) < 1e-12
    assert dG.sum() == pytest.approx(spec.horizon * np.trace(COV), rel=1e-12)


def test_increment_moments_match_market():
    spec = make_spec(n_steps=16)
    b = simulate_paths(spec, 60_000, 3)
    step_cov = np.einsum("pki,pkj->kij", b.dM, b.dM) / b.n_paths
    expected = b.cov * b.dG[:, None, None]
    assert np.max(np.abs(step_cov - expected)) < 6e-4


@pytest.mark.parametrize("value", ["false", "true", 0, 1, 1.0, None,
                                   [True]])
def test_normalize_clock_must_be_boolean(value):
    with pytest.raises(InvalidSpec, match="normalize_clock"):
        make_spec(normalize_clock=value)
    for flag in (True, False, np.True_, np.False_):
        make_spec(normalize_clock=flag)


@pytest.mark.parametrize("shape, edges", [
    ((1500, 7, 3), (0, 512, 1024, 1500)),  # whole slabs, a partial last
    ((1000, 5, 1), (0, 1, 333, 999, 1000)),  # uneven cuts, one-row slabs
    ((64, 3, 2), (0, 17, 18, 63, 64)),
])
def test_standard_normal_in_row_slabs_is_one_draw(shape, edges):
    # stream_paths draws a block's tiles in order from the block's
    # generator, so each path keeps its noise only while numpy's
    # Generator.standard_normal gives one draw's numbers slab by slab
    child = np.random.SeedSequence(5).spawn(3)[2]
    whole = np.random.default_rng(child).standard_normal(shape)
    rng = np.random.default_rng(child)
    slabs = [rng.standard_normal((hi - lo,) + shape[1:])
             for lo, hi in zip(edges, edges[1:])]
    assert np.array_equal(np.concatenate(slabs), whole)


def test_explicit_clock_increments():
    incs = np.array([0.1, 0.3, 0.2, 0.4])
    spec = MarketSpec(dim=1, n_steps=4, covariance=np.array([[1.0]]),
                      drift=np.array([0.0]), clock=incs,
                      normalize_clock=False)
    dG, _, _, _ = spec.materialize()
    assert np.allclose(dG, incs)
    with pytest.raises(InvalidSpec):
        MarketSpec(dim=1, n_steps=4, covariance=np.array([[1.0]]),
                   clock=np.array([0.1, -0.2, 0.3, 0.4]),
                   normalize_clock=False).materialize()


@pytest.mark.parametrize("clock", ["weird", "", {"a": 1}, [[0.5], [0.5, 1.0]],
                                   ["a", "b"], object()],
                         ids=["word", "empty", "mapping", "ragged", "words",
                              "object"])
def test_malformed_clock_raises_at_construction(clock):
    # materialize would otherwise raise ValueError or TypeError from numpy
    with pytest.raises(InvalidSpec, match="clock must be"):
        make_spec(n_steps=2, clock=clock)


def test_market_no_run_can_hold_raises_before_building_defaults(monkeypatch):
    # np.eye(1e10) once raised numpy's ValueError, and a given covariance
    # still built the (dim, dim) default first
    cov = np.eye(2) / 2
    monkeypatch.setattr(np, "eye", lambda *args: pytest.fail("default built"))
    MarketSpec(dim=2, n_steps=3, covariance=cov)
    for kwargs in ({}, {"covariance": cov}):
        with pytest.raises(InvalidSpec, match="market too large"):
            MarketSpec(dim=10 ** 10, n_steps=1, **kwargs)
    with pytest.raises(InvalidSpec, match="market too large"):
        MarketSpec(dim=1, n_steps=10 ** 12)


@pytest.mark.parametrize("clock, increments", [
    ("uniform", [0.5, 0.5]), (None, [0.5, 0.5]), ([0.25, 0.75], [0.25, 0.75]),
    (lambda t: t * t, [0.25, 0.75]),
], ids=["uniform", "none", "increments", "callable"])
def test_wellformed_clocks_are_accepted(clock, increments):
    spec = make_spec(n_steps=2, clock=clock, normalize_clock=False)
    assert np.array_equal(spec.materialize()[0], increments)


@pytest.mark.parametrize("covariance, drift", [
    (np.eye(3) / 3.0, lambda t: t),  # three scalar rows on three steps
    (lambda t: np.full(3, 1.0 + t), np.zeros(3)),
], ids=["scalar-drift", "vector-covariance"])
def test_callable_values_need_the_step_shape(covariance, drift):
    # stacked over the steps, rows of the wrong shape can look like one
    # constant; they are refused, not broadcast
    spec = MarketSpec(dim=3, n_steps=3, covariance=covariance, drift=drift)
    with pytest.raises(InvalidSpec, match="evaluated to shape"):
        spec.materialize()


def test_materialize_factors_each_run_once_with_per_step_bits():
    # A time-varying covariance in runs, one of them repeated later, one a
    # scaled copy and one zero: one check and one eigh per run give every
    # step the bits of its own check, normalization and eigh.
    a = np.array([[0.5, 0.1], [0.1, 0.4]])
    b = np.array([[0.9, -0.2], [-0.2, 0.3]])
    steps = [a] * 3 + [b] * 2 + [2.0 * a] + [a] * 4 + [np.zeros((2, 2))] * 2
    for normalize in (True, False):
        spec = MarketSpec(dim=2, n_steps=len(steps), covariance=np.stack(steps),
                          normalize_clock=normalize)
        dG, cov, sqrt_cov, _ = spec.materialize()
        ref_dg = np.full(len(steps), 1.0 / len(steps))
        for k, c in enumerate(steps):
            c = check_psd_matrix(c)
            if normalize and np.einsum("ii", c) > 0.0:
                ref_dg[k] *= np.einsum("ii", c)
                c = c / np.einsum("ii", c)
            w, v = np.linalg.eigh(c)
            assert np.array_equal(cov[k], c)
            assert np.array_equal(sqrt_cov[k], np.einsum(
                "...ij,...j->...i", v * np.sqrt(np.maximum(w, 0.0)), v))
        assert np.array_equal(dG, ref_dg)
    bad = list(steps)
    bad[7] = np.array([[0.5, 0.6], [0.6, 0.4]])  # one step, inside a run
    with pytest.raises(InvalidSpec, match="negative eigenvalue"):
        MarketSpec(dim=2, n_steps=len(bad), covariance=np.stack(bad)).materialize()


def test_posterior_matches_particle_filter():
    spec = make_spec(n_steps=12)
    model = GaussianSignalModel(direction=np.array([1.0, 0.5]),
                                prior_mean=0.3, prior_std=0.8,
                                noise_scales=np.array([0.5, 0.25]))
    sig = simulate_signal_paths(spec, model, 4, 9)
    _, mean, prec = filtered_drift(sig, 1)
    path = 2
    noisy = sig.theta[path] + model.noise_scales[1] * sig.zeta[path]
    base = sig.base
    dS = base.dM[path] + sig.theta[path] * np.einsum(
        "kij,j->ki", base.cov, model.direction) * base.dG[:, None]
    ref = particle_posterior_mean(
        (model.prior_mean, model.prior_std), model.direction,
        base.cov, base.dG, dS,
        model.noise_scales[1], noisy, n_particles=400_000, seed=11)
    assert np.max(np.abs(mean[path] - ref)) < 5e-3


def test_zero_noise_level_reveals_theta():
    spec = make_spec(n_steps=10)
    model = GaussianSignalModel(direction=np.array([1.0, 0.0]),
                                noise_scales=np.array([0.5, 0.0]))
    sig = simulate_signal_paths(spec, model, 8, 21)
    drift_rev, mean_rev, prec_rev = filtered_drift(sig, 1)
    assert np.max(np.abs(mean_rev - sig.theta[:, None])) < 1e-12
    assert np.all(np.isinf(prec_rev))
    assert np.max(np.abs(drift_rev - sig.theta[:, None, None]
                         * model.direction)) < 1e-12


def test_posterior_precision_increases_with_information():
    spec = make_spec(n_steps=30)
    model = GaussianSignalModel(direction=np.array([1.0, 0.3]),
                                noise_scales=np.array([0.5, 0.25]))
    sig = simulate_signal_paths(spec, model, 4, 2)
    _, _, prec = filtered_drift(sig, 0)
    assert np.all(np.diff(prec) >= -1e-12)
    _, _, prec_fine = filtered_drift(sig, 1)
    assert np.all(prec_fine >= prec - 1e-12)


def test_event_probability_limits():
    # infinite precision collapses the surrogate onto the indicator
    mean = np.array([[0.4, -0.2], [0.1, 0.3]])
    prec = np.array([np.inf, np.inf])
    probs = event_probabilities(mean, prec, 0.0)
    assert np.array_equal(probs, (mean > 0.0).astype(float))
    flat = event_probabilities(mean, np.array([4.0, 9.0]), 0.1)
    assert np.all((flat > 0.0) & (flat < 1.0))


def test_ndtr_is_scipys_without_exp_and_within_8_ulp_with_it():
    # Cephes' erfc takes an exponential only on 1 <= |x| < 8 and 8 <= x with
    # x^2 <= MAXLOG, x = -a / sqrt 2; there np.exp may round otherwise than
    # the exp scipy's build calls. Everywhere else the bits are scipy's.
    rng = np.random.default_rng(24)
    special = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
               -1e-310, 2.2250738585072014e-308, 8.48, -8.48, 37.6, -37.6]
    for scale in (0.3, 1.0, 4.0, 12.0, 40.0):
        a = np.concatenate((rng.standard_normal(10 ** 6) * scale, special))
        want = scipy.special.ndtr(a)
        got = ndtr(a.reshape(-1, 2)).ravel()  # any shape
        assert np.array_equal(np.isnan(got), np.isnan(a))
        x = a * -np.sqrt(0.5)
        no_exp = (x * x < 1.0) | (x <= -6.0) | (x * x > MAXLOG) | np.isnan(a)
        assert np.array_equal(got[no_exp], want[no_exp], equal_nan=True)
        ulps = np.abs(got.view(np.int64) - want.view(np.int64))[~no_exp]
        assert ulps.max() <= 8
    out = np.array([-1.0, 0.0, 1.0])
    assert ndtr(out, out=out) is out and out[1] == 0.5


def test_ndtr_horner_loop_has_the_bits_of_the_fold(monkeypatch):
    # _polevl runs Horner's rule in place; acc * x + c rounds the same
    # twice whether the product is a new array or written over acc
    rng = np.random.default_rng(30)
    a = np.concatenate((rng.standard_normal(10 ** 6) * 6.0,
                        [np.inf, -np.inf, np.nan, 0.0, -0.0, 8.48, -37.6]))
    got = ndtr(a)
    monkeypatch.setattr(market, "_polevl", lambda x, coefs: functools.reduce(
        lambda acc, c: acc * x + c, coefs[1:], coefs[0]))
    assert np.array_equal(ndtr(a), got, equal_nan=True)


def test_density_is_mean_one_and_positive():
    spec = make_spec(n_steps=50)
    b = simulate_paths(spec, 60_000, 5)
    tilt = TiltSpec(lam1=np.array([0.4, -0.2]))
    rec = density_paths(b, tilt)
    assert np.all(rec.z > 0.0)
    assert rec.floor_hits == 0
    assert np.max(np.abs(rec.z[:, 0] - 1.0)) == 0.0
    term = rec.z[:, -1]
    assert abs(term.mean() - 1.0) < 4.0 * term.std() / np.sqrt(len(term))


@pytest.mark.parametrize("orthogonal_vol", [0.0, 0.5])
def test_density_record_pieces_are_their_definitions(orthogonal_vol):
    # lam_dM and lam_energy are kept for the sensitivity formula side; the
    # density is still the stochastic exponential of lam_dM - lam_energy / 2
    spec = make_spec(n_steps=30)
    b = simulate_paths(spec, 200, 3)
    tilt = TiltSpec(lam1=np.array([0.4, -0.2]), orthogonal_vol=orthogonal_vol)
    rec = density_paths(b, tilt, orthogonal_draws(3, b.n_paths, b.n_steps))
    lam_energy = cov_inner(b.cov, rec.lam1, rec.lam1) * b.dG
    assert rec.lam_energy.shape == (b.n_steps,)
    assert np.array_equal(rec.lam_energy, lam_energy)
    assert np.array_equal(rec.lam_dM, dot_last(rec.lam1, b.dM))
    if orthogonal_vol == 0.0:
        expo = dot_last(rec.lam1, b.dM)
        expo -= 0.5 * lam_energy[None, :]
        z = np.exp(np.concatenate(
            (np.zeros((b.n_paths, 1)), np.cumsum(expo, axis=1)), axis=1))
        assert np.array_equal(rec.z, np.maximum(z, DENSITY_FLOOR))


@pytest.mark.parametrize("shape", [(3, 5), (0, 4), (3, 0), (0, 0), (1, 1)],
                         ids=["3x5", "no-paths", "no-steps", "empty", "1x1"])
def test_cumsum_from_zero_is_the_concatenated_cumsum(shape):
    # one (P, N + 1) array written in place: the bits, signed zeros
    # included, of a zero column joined to np.cumsum
    inc = np.random.default_rng(4).standard_normal(shape)
    inc[:, ::2] = -0.0
    want = np.concatenate((np.zeros((shape[0], 1)),
                           np.cumsum(inc, axis=1)), axis=1)
    got = cumsum_from_zero(inc)
    assert got.shape == want.shape == (shape[0], shape[1] + 1)
    assert got.tobytes() == want.tobytes()


def test_orthogonal_factor_keeps_mean_one():
    spec = make_spec(n_steps=50)
    b = simulate_paths(spec, 60_000, 5)
    tilt = TiltSpec(lam1=np.array([0.4, -0.2]), orthogonal_vol=0.5)
    rec = density_paths(b, tilt, orthogonal_draws(5, b.n_paths, b.n_steps))
    term = rec.z[:, -1]
    assert abs(term.mean() - 1.0) < 4.0 * term.std() / np.sqrt(len(term))
    # orthogonal part is independent of the market draws; with no path
    # floored, it is the ratio of the two densities
    flat = density_paths(b, TiltSpec(lam1=np.array([0.4, -0.2])))
    assert rec.floor_hits == flat.floor_hits == 0
    corr = np.corrcoef((rec.z / flat.z)[:, -1], flat.z[:, -1])[0, 1]
    assert abs(corr) < 0.05


def test_decomposition_remainder_is_one_at_the_ends():
    # With the orthogonal factor off, the mixture is the stochastic
    # exponential of eps * lam^eps itself at eps = 1 and trivially at eps =
    # 0, so the remainder is one there (measured: 0.0 off one at both ends);
    # in between the mixture is not exponential (0.0217 off one at 0.5).
    spec = make_spec(n_steps=30)
    b = simulate_paths(spec, 500, 8)
    tilt = TiltSpec(lam1=np.array([0.5, -0.3]))
    rec = density_paths(b, tilt)
    for eps in (1.0, 0.5, 0.125, 0.0):
        dec = tilt_decomposition(b, rec, eps)
        z_eps = (1.0 - eps) + eps * rec.z
        assert np.max(np.abs(dec.density - z_eps)) < 1e-12
        off = np.max(np.abs(dec.remainder - 1.0))
        if eps in (0.0, 1.0):
            assert off <= 1e-12, eps
        else:
            assert off > 1e-3, eps


def test_interpolated_tilt_matches_identity():
    # lam_eps = (Z1_- / Zeps_-) * lam1, so eps * lam_eps * Zeps_- equals
    # eps * Z1_- * lam1 exactly
    spec = make_spec(n_steps=25)
    b = simulate_paths(spec, 300, 13)
    tilt = TiltSpec(lam1=np.array([0.3, 0.2]))
    rec = density_paths(b, tilt)
    eps = 0.25
    dec = tilt_decomposition(b, rec, eps)
    z_eps_left = (1.0 - eps) + eps * rec.z[:, :-1]
    lhs = dec.lam_path * z_eps_left[:, :, None]
    rhs = rec.z[:, :-1, None] * np.broadcast_to(
        rec.lam1, (b.n_paths, b.n_steps, 2))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_tilt_field_is_the_decomposition_field():
    spec = make_spec(n_steps=25)
    b = simulate_paths(spec, 300, 13)
    rec = density_paths(b, TiltSpec(lam1=np.array([0.3, 0.2]),
                                    orthogonal_vol=0.4),
                        orthogonal_draws(13, b.n_paths, b.n_steps))
    for eps in (0.0, 0.025, 0.5, 1.0):
        field = tilt_field(rec, eps)
        assert np.array_equal(field, tilt_decomposition(b, rec, eps).lam_path)
        # the field as computed from the whole mixture density
        z_eps = (1.0 - eps) + eps * rec.z
        full = (rec.z[:, :-1] / z_eps[:, :-1])[:, :, None] * rec.lam1[None]
        assert np.array_equal(field, full)
    with pytest.raises(InvalidSpec):
        tilt_field(rec, 1.5)


def test_girsanov_drift_shifts_by_scaled_tilt():
    spec = make_spec(n_steps=20)
    b = simulate_paths(spec, 100, 17)
    tilt = TiltSpec(lam1=np.array([0.4, 0.1]))
    rec = density_paths(b, tilt)
    dec = tilt_decomposition(b, rec, 0.5)
    drift = girsanov_drift(b, dec)
    shift = drift - b.drift[None]
    assert np.max(np.abs(shift - 0.5 * dec.lam_path)) < 1e-12


def test_path_count_bound_is_the_machines_memory(monkeypatch):
    # On a machine of 256 pages of 4 KiB, 131072 paths of one float fit and
    # one more does not; nothing is allocated either way.
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    check_paths(131072, 10 ** 6, 8)
    with pytest.raises(InvalidSpec, match="path count too large"):
        check_paths(131073, 1)
    with pytest.raises(InvalidSpec, match="path count too large"):
        simulate_paths(make_spec(), 131073, 1)
    monkeypatch.delattr(os, "sysconf")  # no sysconf: the indexing bound only
    monkeypatch.setattr(market, "CGROUP_LIMITS", ())
    check_paths(10 ** 15, 1)


def test_memory_is_the_smaller_of_machine_and_cgroup_limit(tmp_path,
                                                           monkeypatch):
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}  # 1 MiB
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    v2, v1 = tmp_path / "memory.max", tmp_path / "memory.limit_in_bytes"
    monkeypatch.setattr(market, "CGROUP_LIMITS", (str(v2), str(v1)))
    assert physical_memory() == 2 ** 20  # neither file exists
    v2.write_text("max\n")
    v1.write_text("9223372036854771712\n")  # v1's "no limit"
    assert physical_memory() == 2 ** 20
    v1.write_text(f"{2 ** 62}\n")
    assert physical_memory() == 2 ** 20
    v2.write_text("524288\n")
    assert physical_memory() == 524288
    v1.write_text("262144\n")
    assert physical_memory() == 262144
    check_paths(32768, 1)  # 8 bytes a path
    with pytest.raises(InvalidSpec, match="path count too large"):
        check_paths(32769, 1)
    v2.write_text(f"{2 ** 30}\n")  # above the machine: the machine holds
    v1.unlink()
    assert physical_memory() == 2 ** 20
    monkeypatch.delattr(os, "sysconf")
    assert physical_memory() == 2 ** 30
    v2.write_text("max\n")
    v1.write_text("9223372036854771712\n")
    assert physical_memory() is None  # no sysconf and no limit
    v2.unlink()
    v1.unlink()
    assert physical_memory() is None


def test_energy_cap_rejects_wild_tilts(monkeypatch):
    monkeypatch.setattr("growthlab.market.ENERGY_CAP", 10.0)
    spec = make_spec(n_steps=10)
    b = simulate_paths(spec, 10, 1)
    with pytest.raises(InvalidSpec):
        density_paths(b, TiltSpec(lam1=np.array([50.0, 0.0])))


@pytest.mark.parametrize("n_rows", [None, 99, 101])
def test_orthogonal_factor_needs_the_bundles_rows(n_rows):
    # without its xi rows a bundle has no orthogonal noise of its own
    b = simulate_paths(make_spec(n_steps=10), 100, 3)
    tilt = TiltSpec(lam1=np.array([0.4, -0.2]), orthogonal_vol=0.5)
    xi = None if n_rows is None else orthogonal_draws(3, n_rows, b.n_steps)
    with pytest.raises(InvalidSpec, match="xi rows"):
        density_paths(b, tilt, xi)
    density_paths(b, TiltSpec(lam1=np.array([0.4, -0.2])), xi)  # no factor


NAN = float("nan")


@pytest.mark.parametrize("build, error", [
    (lambda: HalfspacePolytope([[NAN, 1.0]], [1.0]).validate(2)
     .project(np.array([[3.0, 3.0]])), InvalidSpec),
    (lambda: HalfspacePolytope([[1.0, 1.0]], [NAN]).validate(2),
     InvalidSpec),
    (lambda: check_psd_matrix([[NAN, 0.0], [0.0, 1.0]]), InvalidSpec),
    (lambda: simulate_paths(MarketSpec(dim=2, n_steps=4,
                                       drift=[NAN, 0.0]), 3, 1), InvalidSpec),
    (lambda: MarketSpec(dim=2, n_steps=4, horizon=NAN), InvalidSpec),
    (lambda: simulate_paths(MarketSpec(dim=2, n_steps=2,
                                       clock=[NAN, 0.1]), 3, 1), InvalidSpec),
    (lambda: TiltSpec(lam1=[NAN, 0.0]).field(4, 2), InvalidSpec),
    (lambda: GaussianSignalModel(direction=np.array([1.0]), prior_std=NAN),
     InvalidSpec),
    (lambda: GaussianSignalModel(direction=np.array([1.0]),
                                 noise_scales=[NAN, 0.1]),
     InvalidSpec),
    (lambda: TiltSpec(lam1=[0.1, 0.0], orthogonal_vol=NAN), InvalidSpec),
    (lambda: GaussianSignalModel(direction=np.array([1.0]), prior_mean=NAN),
     InvalidSpec),
    (lambda: ScenarioTree(depth=2, up_probs=[NAN, 0.5]), InvalidSpec),
    (lambda: ScenarioTree(depth=2, clock_increments=[NAN, 0.5]), InvalidSpec),
    (lambda: tree_predictable_projection(ScenarioTree(depth=2),
                                         [0.0, NAN, 1.0, 0.0], 1), InvalidSpec),
    (lambda: OnePeriodMarket(p=0.6, level=1, quad_range=NAN), InvalidSpec),
    (lambda: OnePeriodMarket(p=0.6, level=1, signal_mean=NAN), InvalidSpec),
    (lambda: filtration_ladder(
        MarketSpec(dim=2, n_steps=4, covariance=COV, drift=DRIFT),
        GaussianSignalModel(direction=np.array([1.0, 0.3])), FullSpace(), 4, 1,
        event_threshold=NAN), InvalidSpec),
], ids=["polytope-normal", "polytope-offset", "covariance", "market-drift",
        "market-horizon", "market-clock", "tilt-field", "signal-prior-std",
        "signal-noise-scale", "tilt-orthogonal-vol", "signal-prior-mean",
        "tree-up-probs", "tree-clock-increments", "tree-chi",
        "one-period-quad-range",
        "one-period-signal-mean", "filtration-event-threshold"])
def test_nan_inputs_raise(build, error):
    with pytest.raises(error):
        build()


def test_signal_noise_scales_must_decrease():
    with pytest.raises(UnsupportedSignalModel):
        GaussianSignalModel(direction=np.array([1.0]),
                            noise_scales=np.array([0.25, 0.5]))

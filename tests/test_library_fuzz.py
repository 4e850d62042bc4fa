"""The library's argument contract under malformed values.

Every public constructor and ladder entry runs once per argument and per
kind of tests/malformed.py's table (the table the CLI fuzz test draws
from), every other argument valid. Each call must succeed or raise a
GrowthlabError: a bare TypeError or ValueError means a value got past the
argument rules. The calls are fixed, so the test is deterministic.
"""

import numpy as np
import pytest

from growthlab import (
    Ball, Box, GaussianSignalModel, HalfspacePolytope, MarketSpec,
    OnePeriodMarket, ScenarioTree, TiltSpec, constraint_from_config,
    constraint_ladder, discontinuity_report, excursion_density_ladder,
    density_paths, filtered_drift, filtration_ladder,
    lognormal_density_ladder, probability_ladder, response_quotient,
    simulate_paths, simulate_signal_paths, streamed_expansion_ladder,
    tree_projection_convergence,
)
import growthlab.discrete as discrete
import growthlab.stability as stability
from growthlab.errors import GrowthlabError, InvalidSpec
from growthlab.market import market_steps, orthogonal_draws, stream_paths

from malformed import MUTATIONS, malformed

COV = [[0.5, 0.1], [0.1, 0.4]]
SPEC = MarketSpec(dim=2, n_steps=4, covariance=COV, drift=[0.8, 0.5])
MODEL = GaussianSignalModel(direction=[1.0, 0.3], noise_scales=[0.5, 0.25])
TILT = TiltSpec(lam1=[0.4, -0.2], orthogonal_vol=0.2)
RUN = {"n_paths": 4, "seed": 7, "threads": 1}
SIGNAL = simulate_signal_paths(SPEC, MODEL, 4, 7)
BUNDLE = simulate_paths(SPEC, 4, 7)
RECORD = density_paths(BUNDLE, TiltSpec(lam1=[0.4, -0.2]))

# (entry point, call, valid keyword arguments): call(**valid) succeeds.
# Constructors are followed by the first use that reads the stored values.
ENTRIES = [
    ("MarketSpec", lambda **kw: MarketSpec(**kw).materialize(),
     {"dim": 2, "n_steps": 4, "horizon": 1.0, "covariance": COV,
      "drift": [0.8, 0.5], "clock": [0.25] * 4, "normalize_clock": True}),
    ("GaussianSignalModel", GaussianSignalModel,
     {"direction": [1.0, 0.3], "prior_mean": 0.0, "prior_std": 1.0,
      "noise_scales": [0.5, 0.25]}),
    ("TiltSpec", lambda **kw: TiltSpec(**kw).field(4, 2),
     {"lam1": [0.4, -0.2], "orthogonal_vol": 0.2}),
    ("Ball", Ball, {"radius": 2.0}),
    ("Box", lambda **kw: Box(**kw).validate(2),
     {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}),
    ("HalfspacePolytope", lambda **kw: HalfspacePolytope(**kw).validate(2),
     {"normals": [[1.0, 0.0], [0.0, 1.0]], "offsets": [1.0, 1.0]}),
    ("OnePeriodMarket", OnePeriodMarket,
     {"p": 0.6, "level": 2, "quad_nodes": 41, "quad_range": 6.0,
      "signal_mean": 0.0}),
    ("ScenarioTree", ScenarioTree,
     {"depth": 3, "up_probs": [0.5, 0.4, 0.6],
      "clock_increments": [0.2, 0.3, 0.5]}),
    ("discontinuity_report", discontinuity_report,
     {"p": 0.6, "levels": [1, 2], "quad_nodes": 41}),
    ("tree_projection_convergence",
     lambda **kw: tree_projection_convergence(ScenarioTree(depth=3), **kw),
     {"chi": [1.0] + [0.0] * 7, "caps": [0, 1, 3]}),
    ("simulate_paths", lambda **kw: simulate_paths(SPEC, **kw), RUN),
    ("filtration_ladder",
     lambda **kw: filtration_ladder(SPEC, MODEL, Ball(2.0), **kw),
     dict(RUN, event_threshold=0.0)),
    ("probability_ladder",
     lambda **kw: probability_ladder(SPEC, TILT, Ball(2.0), **kw),
     dict(RUN, eps_ladder=[0.2, 0.1])),
    ("constraint_ladder",
     lambda **kw: constraint_ladder(SPEC, [Ball(2.0), Ball(1.5)], Ball(1.0),
                                    **kw), RUN),
    ("streamed_expansion_ladder",
     lambda **kw: streamed_expansion_ladder(SPEC, TILT, **kw),
     dict(RUN, eps_ladder=[0.2, 0.1])),
    ("filtered_drift", lambda **kw: filtered_drift(SIGNAL, **kw),
     {"level": 1}),
    ("response_quotient", lambda **kw: response_quotient(BUNDLE, RECORD, **kw),
     {"eps": 0.5}),
    ("lognormal_density_ladder", lognormal_density_ladder,
     {"vols": [0.4, 0.2], "n_paths": 4, "n_steps": 4, "horizon": 1.0,
      "seed": 7}),
    ("excursion_density_ladder", excursion_density_ladder,
     {"sizes": [2.0, 4.0], "kappa": 1.0, "n_paths": 4, "n_steps": 4,
      "horizon": 1.0, "seed": 7}),
]


def test_valid_arguments_pass():
    for name, call, valid in ENTRIES:
        call(**valid)


def test_every_mutation_kind_raises_only_library_errors():
    escapes = []
    for name, call, valid in ENTRIES:
        for key, value in valid.items():
            for how in MUTATIONS[1:]:  # "drop" removes a config entry
                try:
                    call(**dict(valid, **{key: malformed(value, how)}))
                except GrowthlabError:
                    pass
                except Exception as exc:  # escaped the argument rules
                    escapes.append((name, key, how, repr(exc)))
    assert not escapes


@pytest.mark.parametrize("build", [
    lambda: MarketSpec(dim=2, n_steps=2.5),
    lambda: MarketSpec(dim=2, n_steps=float("nan")),
    lambda: MarketSpec(dim=True, n_steps=True),
    lambda: MarketSpec(dim=2, n_steps=4, horizon=True),
    lambda: Ball(True),
    lambda: Ball("2"),
    lambda: TiltSpec(lam1=[0.4, -0.2], orthogonal_vol=[2]),
    lambda: TiltSpec(lam1=[0.4, -0.2], orthogonal_vol=True),
    lambda: OnePeriodMarket(p=0.6, level=True),
    lambda: constraint_from_config({"type": "box", "lower": [False, -1.0],
                                    "upper": [1.0, 1.0]}),
    lambda: response_quotient(BUNDLE, RECORD, True),
], ids=["fractional-steps", "nan-steps", "boolean-dims", "boolean-horizon",
        "boolean-radius", "numeral-radius", "listed-orthogonal-vol",
        "boolean-orthogonal-vol", "boolean-level", "boolean-box-bound",
        "boolean-eps"])
def test_values_once_accepted_raise_invalid_spec(build):
    with pytest.raises(InvalidSpec):
        build()


@pytest.mark.parametrize("seed", [None, True, -1, 2 ** 64],
                         ids=["none", "true", "negative", "2**64"])
def test_stream_paths_takes_only_a_64_bit_seed(seed):
    # None once drew OS entropy, so two runs gave different paths, and True
    # ran as seed 1
    with pytest.raises(InvalidSpec, match="seed"):
        simulate_paths(SPEC, 4, seed)
    simulate_paths(SPEC, 4, 2 ** 64 - 1)


def test_orthogonal_draws_keep_a_seed_sequences_spawn_key():
    # an integer seed and its SeedSequence draw the same rows; two children
    # of one seed do not
    first, second = np.random.SeedSequence(7).spawn(2)
    assert np.array_equal(orthogonal_draws(np.random.SeedSequence(7), 3, 4),
                          orthogonal_draws(7, 3, 4))
    assert not np.array_equal(orthogonal_draws(first, 3, 4),
                              orthogonal_draws(second, 3, 4))


@pytest.mark.parametrize("threads", [2.5, 0, -1, float("nan")],
                         ids=["fractional", "zero", "negative", "nan"])
def test_stream_paths_takes_only_a_positive_thread_count(threads):
    # 2.5 once escaped as a TypeError from range(); 0, -1 and NaN ran on
    # one worker
    with pytest.raises(InvalidSpec, match="threads"):
        stream_paths(market_steps(SPEC), 4096, 7, lambda *tile: None, threads)


def test_ladders_reject_bad_rungs_before_the_first_solve(monkeypatch):
    # a fractional level once reached OnePeriodMarket only after the revealed
    # optimum and the earlier levels were solved; a repeated density scale
    # was refused by the CLI alone
    def fail(*args, **kwargs):
        pytest.fail("a rung was solved or drawn before the check")

    monkeypatch.setattr(discrete, "one_period_optimal", fail)
    monkeypatch.setattr(stability, "_brownian", fail)
    for levels in ([1, 2.5], [1, 0], [-1]):
        with pytest.raises(InvalidSpec, match="levels must be"):
            discontinuity_report(0.6, levels)
    with pytest.raises(InvalidSpec, match="vols must list two or more"):
        lognormal_density_ladder([0.2, 0.2], 4, 4, 1.0, 7)
    with pytest.raises(InvalidSpec, match="sizes must list two or more"):
        excursion_density_ladder([4.0], 1.0, 4, 4, 1.0, 7)


@pytest.mark.parametrize("name", ["filtration_ladder", "probability_ladder",
                                  "constraint_ladder"])
def test_ladder_meta_holds_the_converted_path_count(name):
    call, valid = next((c, v) for n, c, v in ENTRIES if n == name)
    n_paths = call(**dict(valid, n_paths=4.0)).meta["n_paths"]
    assert n_paths == 4 and type(n_paths) is int


def test_a_huge_integer_out_of_range_raises_invalid_spec():
    # str() of an int past 4300 digits raises ValueError, and so did the
    # message that showed it
    from growthlab.errors import as_int

    with pytest.raises(InvalidSpec) as info:
        as_int(10 ** 5000, "paths", 1, 10)
    assert str(info.value) == "paths must be positive and at most 10, " \
        "got <int of 16610 bits>"

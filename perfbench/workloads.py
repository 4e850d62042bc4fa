"""The benchmark's three workloads: growthlab CLI configs and why each one.

Each workload is one ``growthlab`` subcommand and one config. The Monte
Carlo path count is scaled down from the acceptance-scale runs so that a
repetition takes seconds; the market, ladder and constraint shapes are kept.
"""

DEFAULT_SEED = 7

MARKET = {
    "dim": 2,
    "n_steps": 100,
    "covariance": [[0.5, 0.1], [0.1, 0.4]],
    "drift": [0.8, 0.5],
}

WORKLOADS = {
    # 900 solver calls (9 rungs x 100 steps) on 2048 continuous,
    # path-dependent drift rows under a non-isotropic c: batched FISTA and
    # the np.unique dedup dominate. The only workload where --threads
    # splits real work (two 1024-path simulation blocks).
    "filtration": {
        "command": "stability",
        "paths": 2048,
        "config": {
            "kind": "stability-filtration",
            "market": MARKET,
            "signal": {"direction": [1.0, 0.3]},
            "constraint": {"type": "ball", "radius": 2.0},
        },
    },
    # FullSpace skips FISTA and the dedup; the cost is tilt paths,
    # wealth_paths and 12 response_quotient calls, and the peak memory is
    # the highest of the three.
    "sensitivity": {
        "command": "sensitivity",
        "paths": 4096,
        "config": {
            "kind": "sensitivity",
            "market": MARKET,
            "tilt": {"lam1": [0.5, -0.3]},
            "eps_ladder": [0.2, 0.1, 0.05, 0.025],
        },
    },
    # Deterministic drift: 10,800 single-row solves (9 sets x 600 steps
    # for the fractions and again for the growth path), so quadform's
    # per-call overhead dominates where filtration measures its throughput.
    "constraint": {
        "command": "stability",
        "paths": 2048,
        "config": {
            "kind": "stability-constraint",
            "market": {
                "dim": 2,
                "n_steps": 600,
                "covariance": [[0.6, 0.1], [0.1, 0.4]],
                "drift": [5.0, 4.0],
                "normalize_clock": False,
            },
            "sets": [{"type": "ball", "radius": 1.5 + 2.0 ** -n}
                     for n in range(1, 9)],
            "limit_set": {"type": "ball", "radius": 1.5},
        },
    },
}

"""Simulate a batch of market paths and grow wealth along the optimum.

The bundle carries martingale increments dM and the operational clock dG;
wealth accrues as dB + dL with the finite-variation part dB deterministic
for a deterministic strategy. The optimum's realized growth matches the
deterministic growth integral, and every competitor deflates below one.
"""

import numpy as np

from growthlab import Ball, MarketSpec
from growthlab.market import simulate_paths
from growthlab.numeraire import (
    growth_path, numeraire_fractions, terminal_deflation, wealth_paths,
)


def main():
    spec = MarketSpec(dim=2, n_steps=60,
                      covariance=[[0.5, 0.1], [0.1, 0.4]],
                      drift=[0.8, 0.5])
    bundle = simulate_paths(spec, n_paths=20_000, seed=7)
    print(f"simulated {bundle.n_paths} paths, {bundle.n_steps} steps, "
          f"clock total {bundle.dG.sum():.6f}")

    constraint = Ball(1.0)
    fractions = numeraire_fractions(bundle, constraint)
    growth = growth_path(bundle, fractions)
    best = wealth_paths(bundle, fractions)
    mean_fv = float(np.mean(np.sum(best.dB, axis=1)))
    print(f"growth integral (deterministic): {growth.total:.6f}")
    print(f"mean finite-variation log wealth: {mean_fv:.6f}")
    print(f"mean terminal log wealth:        "
          f"{float(np.mean(best.terminal_log_wealth)):.6f}")

    print("\ndeflation of fixed strategies by the optimum, E[X/Xhat]:")
    rng = np.random.default_rng(1)
    for _ in range(5):
        pi = constraint.project(rng.standard_normal(2))
        w = wealth_paths(bundle, np.broadcast_to(pi, (bundle.n_steps, 2)))
        ratio, se = terminal_deflation(w, best)
        print(f"  pi = {np.round(pi, 3)}: {ratio:.4f} (stderr {se:.4f})")


if __name__ == "__main__":
    main()

"""Solve the constrained growth problem for a handful of sets.

The optimizer maximizes <f, a>_c - |f|^2_c / 2 over the feasible set.
Without constraints it returns the drift itself; shrinking the set pulls
the solution toward the boundary while the two stability inequalities
(nonexpansiveness in the drift, norm domination by the drift) keep holding.
"""

import numpy as np

from growthlab import Ball, Box, FullSpace, NonnegativeOrthant
from growthlab.quadform import cov_norm, optimal_fraction_batch

c = np.array([[0.5, 0.1], [0.1, 0.4]])
a = np.array([0.8, 0.5])


def main():
    print(f"covariance:\n{c}")
    print(f"drift a = {a}, |a|_c = {cov_norm(c, a):.6f}\n")

    sets = [
        ("full space", FullSpace()),
        ("ball r=1.0", Ball(1.0)),
        ("ball r=0.5", Ball(0.5)),
        ("box [-0.3, 0.6]^2", Box([-0.3, -0.3], [0.6, 0.6])),
        ("nonnegative orthant", NonnegativeOrthant()),
    ]
    for name, cset in sets:
        f = optimal_fraction_batch(c, a, cset)
        print(f"{name:22s} phi = {np.round(f, 6)}  "
              f"|phi|_c = {cov_norm(c, f):.6f}")

    print("\ndrift perturbation, ball r=0.5:")
    rng = np.random.default_rng(0)
    f0 = optimal_fraction_batch(c, a, Ball(0.5))
    for _ in range(4):
        da = rng.standard_normal(2) * 0.3
        f1 = optimal_fraction_batch(c, a + da, Ball(0.5))
        lhs = cov_norm(c, f1 - f0)
        rhs = cov_norm(c, da)
        print(f"  |phi' - phi|_c = {lhs:.6f} <= |a' - a|_c = {rhs:.6f}")


if __name__ == "__main__":
    main()

"""Truncated Hausdorff distances and closed-limit convergence of sets.

A shrinking sequence of sets converges to its limit exactly when the
truncated distances vanish for every truncation radius. The table below
shows the radius dependence: rows are truncation radii, columns the ladder
index, entries the distance between the truncated pair.
"""

from growthlab import Ball, Box
from growthlab.constraints import closed_limit_distances, truncated_pair_distance


def main():
    sets = [Ball(1.0 + 2.0 ** -n) for n in range(1, 7)]
    limit = Ball(1.0)
    radii = [0.5, 1.0, 2.0, 4.0]
    table = closed_limit_distances(sets, limit, radii, dim=2)
    header = "  ".join(f"n={n}" for n in range(1, 7))
    print("shrinking balls 1 + 2^-n -> ball(1):")
    print(f"{'radius':>8s}  {header}")
    for m, row in zip(radii, table):
        cells = "  ".join(f"{v:.3f}" for v in row)
        print(f"{m:8.1f}  {cells}")

    print("\nbox vs ball at matched size (no convergence, distance stalls):")
    box = Box([-1.0, -1.0], [1.0, 1.0])
    for m in radii:
        d = truncated_pair_distance(box, Ball(1.0), m, dim=2)
        print(f"  truncation {m:.1f}: dist = {d:.4f}")


if __name__ == "__main__":
    main()

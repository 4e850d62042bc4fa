"""Small-tilt expansion of the log-wealth response.

Rescaling the wealth effect of an eps-sized measure tilt by 1/eps gives a
process with an exact pathwise identity: a drift term linear in eps plus a
martingale term. As eps shrinks, the rescaled response converges to its
first-order limit at rate eps, and the centered remainder converges to the
second-order limit at rate eps again. The tables show both errors halving
with eps.
"""

import numpy as np

from growthlab import MarketSpec, TiltSpec
from growthlab.market import density_paths, simulate_paths
from growthlab.sensitivity import expansion_ladder, response_quotient


def main():
    spec = MarketSpec(dim=2, n_steps=40,
                      covariance=[[0.5, 0.1], [0.1, 0.4]],
                      drift=[0.8, 0.5])
    bundle = simulate_paths(spec, n_paths=1000, seed=2)
    record = density_paths(bundle, TiltSpec(lam1=np.array([0.5, -0.3])))

    q = response_quotient(bundle, record, eps=0.25)
    gap = np.max(np.abs(q["direct"] - q["formula"]))
    print(f"pathwise identity residual at eps=0.25: {gap:.2e}")

    eps = np.array([0.2, 0.1, 0.05, 0.025])
    _, first, second = expansion_ladder(bundle, record, eps)
    for label, table in (("first", first), ("second", second)):
        print(f"\n{label}-order remainder:")
        print(f"{'eps':>8s} {'fv error':>12s} {'qv error':>12s}")
        for i, e in enumerate(eps):
            print(f"{e:8.3f} {table['fv_error'][i]:12.6f} "
                  f"{table['qv_error'][i]:12.8f}")
        print(f"  fitted order: fv {table['order_fv']:.3f}, "
              f"qv {table['order_qv']:.3f}")


if __name__ == "__main__":
    main()

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
from growthlab.sensitivity import (
    expansion_ladder, expansion_orders, response_quotient,
)


def main():
    spec = MarketSpec(dim=2, n_steps=40,
                      covariance=[[0.5, 0.1], [0.1, 0.4]],
                      drift=[0.8, 0.5])
    bundle = simulate_paths(spec, n_paths=1000, seed=2)
    record = density_paths(bundle, TiltSpec(lam1=np.array([0.5, -0.3])))

    q = response_quotient(bundle, record, eps=0.25)
    print("pathwise identity residual at eps=0.25: "
          f"{q['identity_error']:.2e}")

    eps = np.array([0.2, 0.1, 0.05, 0.025])
    report = expansion_ladder(bundle, record, eps)
    means = {name: arr.mean(axis=1) for name, arr in report.per_path.items()}
    orders = expansion_orders(report)
    for label in ("first", "second"):
        fv, qv = means[f"{label}_fv"], means[f"{label}_qv"]
        print(f"\n{label}-order remainder:")
        print(f"{'eps':>8s} {'fv error':>12s} {'qv error':>12s}")
        for i, e in enumerate(eps):
            print(f"{e:8.3f} {fv[i]:12.6f} {qv[i]:12.8f}")
        order = orders[f"{label}_order"]
        print(f"  fitted order: fv {order['order_fv']:.3f}, "
              f"qv {order['order_qv']:.3f}")


if __name__ == "__main__":
    main()

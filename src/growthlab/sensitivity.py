r"""Response of the optimal log wealth to a small measure tilt.

With the constraint set equal to the full space, the optimal fraction under
the tilted measure is the tilted drift itself, and pure algebra on the
discrete increments gives

    (1/eps) log(X^eps / X^0)
        = -(eps/2) sum |lam^eps|_c^2 dG + sum <lam^eps, dM>,

an exact identity per path, not an approximation. Sending eps down produces
the first-order limit sum <lam0, dM> with lam0 = Z1_- lam1, and the
centered, rescaled remainder converges to the second-order limit

    -(1/2) sum |lam0|_c^2 dG - sum <lam0 (Z1_- - 1), dM>.

Everything here restricts to the unconstrained market; a binding constraint
couples the optimum to the set geometry and is out of scope.
"""

import numpy as np

from .constraints import FullSpace, scale_last
from .errors import DimensionMismatch, InvalidSpec, as_floats, as_ladder
from .market import (
    density_paths, market_steps, orthogonal_draws, stream_paths, tilt_ratio,
)
from .numeraire import numeraire_fractions, wealth_paths
from .stability import LadderReport, _join, _stack

EXPANSION_COLUMNS = ("first_fv", "first_qv", "second_fv", "second_qv")


def reference_increments(bundle, fractions=None):
    """Untilted numéraire log-wealth increments dB + dL, shape (P, N), of
    the FullSpace reference fractions, which are solved when not given."""
    wealth = wealth_paths(bundle, numeraire_fractions(bundle, FullSpace())
                          if fractions is None else fractions)
    return np.add(wealth.dB, wealth.dL, out=wealth.dB)


def _check_record(bundle, record):
    """DimensionMismatch unless record's z is (P, N + 1) and lam1 (N, d)."""
    want = ((bundle.n_paths, bundle.n_steps + 1), (bundle.n_steps, bundle.dim))
    if (record.z.shape, record.lam1.shape) != want:
        raise DimensionMismatch(f"density record z {record.z.shape}, lam1 "
                                f"{record.lam1.shape}; the bundle needs {want}")


def response_quotient(bundle, record, eps, *, reference=None):
    """The rescaled log-wealth response at one tilt size, both routes, as
    new per-step arrays of shape (P, N), in this key order:
    "direct_increments" (from the two wealth processes, the tilted one
    solved on a + eps lam^eps), the formula's "fv_increments" and
    "mart_increments" (from tilt_ratio and the record's lam_dM and
    lam_energy), "energy_increments" (|lam^eps|_c^2 dG), then
    "identity_error", max |cumsum(direct - fv - mart)| over paths and steps.
    reference, when given, is the bundle's reference_increments.
    """
    eps = float(as_floats(eps, "eps", 0))
    if not 0.0 < eps <= 1.0:
        raise InvalidSpec(f"tilt size must lie in (0, 1], got {eps}")
    _check_record(bundle, record)
    reference = reference_increments(bundle) if reference is None else reference
    if np.shape(reference) != (bundle.n_paths, bundle.n_steps):
        raise DimensionMismatch(f"reference shape {np.shape(reference)} "
                                "is not (n_paths, n_steps)")
    ratio = tilt_ratio(record, eps)
    w_eps = wealth_paths(bundle, numeraire_fractions(  # drift freed on return
        bundle, FullSpace(),
        drifts=bundle.drift + scale_last(eps * ratio, record.lam1)))
    direct = np.add(w_eps.dB, w_eps.dL, out=w_eps.dB)  # dB, dL written over
    direct -= reference
    direct /= eps
    energy = np.multiply(ratio, ratio)
    energy *= record.lam_energy
    fv_inc = np.multiply(energy, -(eps / 2.0))
    mart_inc = np.multiply(ratio, record.lam_dM, out=ratio)
    gap = np.subtract(direct, fv_inc, out=w_eps.dL)
    gap -= mart_inc
    np.cumsum(gap, axis=1, out=gap)
    return {"direct_increments": direct, "fv_increments": fv_inc,
            "mart_increments": mart_inc, "energy_increments": energy,
            "identity_error": float(np.max(np.abs(gap, out=gap)))}


def _limit_increments(record):
    """The per-step increments of the limits, with lam0 = Z1_- lam1: the
    first-order <lam0, dM>, and the second order's finite-variation part
    -0.5 |lam0|_c^2 dG and martingale part (1 - Z1_-) <lam0, dM>."""
    z_left = record.z[:, :-1]
    first_inc = z_left * record.lam_dM
    lim_fv = z_left * z_left
    lim_fv *= -0.5 * record.lam_energy  # exact: -0.5 is a power of two
    lim_mart = np.subtract(1.0, z_left)
    lim_mart *= first_inc
    return first_inc, lim_fv, lim_mart


def _eps_sizes(eps_ladder):
    """eps_ladder as two or more distinct tilt sizes in (0, 1]."""
    eps = as_ladder(eps_ladder, "eps_ladder")
    if np.any(eps <= 0.0) or np.any(eps > 1.0):
        raise InvalidSpec(f"eps_ladder entries must lie in (0, 1], got {eps}")
    return eps


def _ladder_rows(bundle, record, eps_ladder, frac_ref=None):
    """Worst identity error and the per-path errors, EXPANSION_COLUMNS
    arrays of shape (L, P), one quotient per eps at a time against the
    reference_increments of frac_ref; columns reuse the quotient's arrays.

    First order: total variation of the quotient's drift part (the limit
    has none) and quadratic variation of its martingale part against the
    first-order limit. Second order: the same distances from the centered,
    rescaled remainder to the second-order limit. All scale like eps.
    """
    first_inc, lim_fv, lim_mart = _limit_increments(record)
    reference = reference_increments(bundle, frac_ref)
    identity, rows = 0.0, []
    for eps in eps_ladder:
        rem_mart, fv, mart_gap, rem_fv, err = response_quotient(
            bundle, record, eps, reference=reference).values()
        identity = max(identity, err)
        mart_gap -= first_inc
        np.divide(mart_gap, eps, out=rem_mart)  # over the direct increments
        rem_mart -= lim_mart
        rem_fv *= -0.5
        rem_fv -= lim_fv
        rows.append(dict(zip(EXPANSION_COLUMNS, (
            np.sum(np.abs(fv, out=fv), axis=1),
            np.sum(np.square(mart_gap, out=mart_gap), axis=1),
            np.sum(np.abs(rem_fv, out=rem_fv), axis=1),
            np.sum(np.square(rem_mart, out=rem_mart), axis=1)))))
        del rem_mart, fv, mart_gap, rem_fv  # freed before the next quotient
    return identity, _stack(rows, EXPANSION_COLUMNS)


def _report(eps_ladder, parts):
    """The LadderReport of per-tile _ladder_rows results, in path order."""
    return LadderReport(
        family="sensitivity", scales=eps_ladder,
        per_path=_join([p[1] for p in parts]),
        meta={"identity_max_error": max(p[0] for p in parts)})


def expansion_ladder(bundle, record, eps_ladder):
    """LadderReport(family="sensitivity") of one bundle and its density
    record: the eps ladder as scales, the EXPANSION_COLUMNS errors and
    meta["identity_max_error"], the worst pathwise identity error."""
    eps_ladder = _eps_sizes(eps_ladder)
    _check_record(bundle, record)
    return _report(eps_ladder, [_ladder_rows(bundle, record, eps_ladder)])


def streamed_expansion_ladder(spec, tilt, eps_ladder, n_paths, seed, *,
                              threads=1):
    """expansion_ladder of simulate_paths(spec, n_paths, seed) and its
    density_paths (xi: orthogonal_draws(seed, n_paths, spec.n_steps)), bit
    for bit, run one stream_paths tile at a time."""
    eps_ladder = _eps_sizes(eps_ladder)
    market = market_steps(spec)
    frac_ref = numeraire_fractions(market, FullSpace())
    xi = None if tilt.orthogonal_vol == 0.0 \
        else orthogonal_draws(seed, n_paths, spec.n_steps)

    def tile(bundle, lo, hi):
        record = density_paths(bundle, tilt, None if xi is None else xi[lo:hi])
        return _ladder_rows(bundle, record, eps_ladder, frac_ref)

    return _report(eps_ladder,
                   stream_paths(market, n_paths, seed, tile, threads))


def expansion_orders(report):
    """Orders in eps of an expansion_ladder report, minus its point slopes:
    order_fv and order_qv (None for a zero column) per "first_order" and
    "second_order", and first-order fv_ratios, of consecutive fv errors
    (None where the next error is zero, as on a flat tilt)."""
    slopes = report.point_slopes()
    out = {}
    for tag in ("first", "second"):
        fv, qv = slopes[f"{tag}_fv"], slopes[f"{tag}_qv"]
        # qv is a squared distance, so first-order behavior means order 2
        # in eps; report half the fitted exponent for comparability.
        out[f"{tag}_order"] = {"order_fv": None if fv is None else -fv,
                               "order_qv": None if qv is None else -0.5 * qv}
    fv = report.per_path["first_fv"].mean(axis=1)
    out["first_order"]["fv_ratios"] = [
        float(a / b) if b != 0.0 else None for a, b in zip(fv[:-1], fv[1:])]
    return out


def first_order_check(bundle, record, eps_ladder):
    """The "first_order" entry of expansion_orders(expansion_ladder(...))."""
    return expansion_orders(
        expansion_ladder(bundle, record, eps_ladder))["first_order"]


def second_order_check(bundle, record, eps_ladder):
    """The "second_order" entry of expansion_orders(expansion_ladder(...))."""
    return expansion_orders(
        expansion_ladder(bundle, record, eps_ladder))["second_order"]

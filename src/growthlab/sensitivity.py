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

from dataclasses import dataclass

import numpy as np

from .constraints import FullSpace
from .errors import DimensionMismatch, InvalidSpec
from .market import cumsum_from_zero, tilt_field
from .numeraire import numeraire_fractions, wealth_paths
from .quadform import cov_inner

__all__ = [
    "ExpansionRecord", "reference_increments", "response_quotient",
    "expansion_record", "expansion_ladder", "first_order_check",
    "second_order_check",
]


def reference_increments(bundle):
    """Untilted numéraire log-wealth increments dB + dL, shape (P, N)."""
    ref = wealth_paths(bundle, numeraire_fractions(bundle, FullSpace()))
    return ref.dB + ref.dL


def response_quotient(bundle, record, eps, *, reference=None):
    """The rescaled log-wealth response at one tilt size, both routes.

    Returns a dict with cumulative paths "direct" (from the two wealth
    processes) and "formula" (the right side of the identity), both of
    shape (P, N + 1), plus per-step increments: the formula's
    finite-variation and martingale parts and the tilt energy
    |lam^eps|_c^2 dG. reference, when given, is the bundle's
    reference_increments, which do not depend on eps.
    """
    if not 0.0 < eps <= 1.0:
        raise InvalidSpec(f"tilt size must lie in (0, 1], got {eps}")
    reference = reference_increments(bundle) if reference is None else reference
    if np.shape(reference) != (bundle.n_paths, bundle.n_steps):
        raise DimensionMismatch(f"reference shape {np.shape(reference)} "
                                "is not (n_paths, n_steps)")
    lam = tilt_field(record, eps)
    w_eps = wealth_paths(bundle, numeraire_fractions(
        bundle, FullSpace(), drifts=bundle.drift + eps * lam))
    direct = cumsum_from_zero(((w_eps.dB + w_eps.dL) - reference) / eps)
    energy = cov_inner(bundle.cov, lam, lam) * bundle.dG
    fv_inc = -(eps / 2.0) * energy
    mart_inc = np.einsum("pki,pki->pk", lam, bundle.dM)
    return {"direct": direct, "formula": cumsum_from_zero(fv_inc + mart_inc),
            "fv_increments": fv_inc, "mart_increments": mart_inc,
            "energy_increments": energy, "lam_path": lam}


@dataclass
class ExpansionRecord:
    """Limit paths of the tilt expansion, cumulative from zero."""

    lam0: np.ndarray
    first_order: np.ndarray
    second_order: np.ndarray


def _expansion(bundle, record):
    """The ExpansionRecord and the per-step increments of its limits: the
    first-order <lam0, dM>, and the second order's finite-variation part
    -0.5 |lam0|_c^2 dG and martingale part (1 - Z1_-) <lam0, dM>."""
    z_left = record.z[:, :-1]
    lam0 = z_left[:, :, None] * record.lam1[None, :, :]
    first_inc = np.einsum("pki,pki->pk", lam0, bundle.dM)
    lim_fv = -0.5 * cov_inner(bundle.cov, lam0, lam0) * bundle.dG
    lim_mart = (1.0 - z_left) * first_inc
    rec = ExpansionRecord(lam0=lam0, first_order=cumsum_from_zero(first_inc),
                          second_order=cumsum_from_zero(lim_fv + lim_mart))
    return rec, first_inc, lim_fv, lim_mart


def expansion_record(bundle, record):
    """First- and second-order limit paths from the base density."""
    return _expansion(bundle, record)[0]


def _order_fit(eps_ladder, means):
    if np.max(means) <= 1e-14:
        return None
    y = np.log(np.maximum(means, np.max(means) * 1e-300))
    return float(np.polyfit(np.log(eps_ladder), y, 1)[0])


def expansion_ladder(bundle, record, eps_ladder):
    """(worst identity error, first-order table, second-order table), with
    one quotient per eps, each reduced to per-path errors at once.

    First order: total variation of the quotient's drift part (the limit
    has none) and quadratic variation of its martingale part against the
    first-order limit. Second order: the same distances from the centered,
    rescaled remainder to the second-order limit. All scale like eps.
    """
    eps_ladder = np.asarray(eps_ladder, dtype=float)
    if eps_ladder.ndim != 1 or eps_ladder.size == 0:
        raise InvalidSpec(f"need a nonempty 1-d eps ladder, got {eps_ladder}")
    exp_rec, first_inc, lim_fv, lim_mart = _expansion(bundle, record)
    reference = reference_increments(bundle)
    identity, first_fv, first_qv, second_fv, second_qv = [], [], [], [], []
    for eps in eps_ladder:
        q = response_quotient(bundle, record, eps, reference=reference)
        identity.append(np.max(np.abs(q["direct"] - q["formula"])))
        mart_gap = q["mart_increments"] - first_inc
        rem_fv = -0.5 * q["energy_increments"]
        first_fv.append(np.sum(np.abs(q["fv_increments"]), axis=1))
        first_qv.append(np.sum(mart_gap ** 2, axis=1))
        second_fv.append(np.sum(np.abs(rem_fv - lim_fv), axis=1))
        second_qv.append(np.sum((mart_gap / eps - lim_mart) ** 2, axis=1))
        del q, mart_gap, rem_fv  # freed before the next quotient is solved
    return (float(np.max(identity)),
            _error_table(eps_ladder, first_fv, first_qv, exp_rec),
            _error_table(eps_ladder, second_fv, second_qv, exp_rec))


def first_order_check(bundle, record, eps_ladder):
    """First-order error table of expansion_ladder."""
    return expansion_ladder(bundle, record, eps_ladder)[1]


def second_order_check(bundle, record, eps_ladder):
    """Second-order error table of expansion_ladder."""
    return expansion_ladder(bundle, record, eps_ladder)[2]


def _error_table(eps_ladder, fv_rows, qv_rows, exp_rec):
    fv, qv = np.stack(fv_rows), np.stack(qv_rows)
    fv_mean, qv_mean = fv.mean(axis=1), qv.mean(axis=1)
    return {
        "eps": eps_ladder,
        "fv_error": fv_mean,
        "fv_stderr": fv.std(axis=1) / np.sqrt(fv.shape[1]),
        "qv_error": qv_mean,
        "qv_stderr": qv.std(axis=1) / np.sqrt(qv.shape[1]),
        # None (JSON null) where the next error is zero, as on a flat tilt
        "fv_ratios": [float(a / b) if b != 0.0 else None
                      for a, b in zip(fv_mean[:-1], fv_mean[1:])],
        "order_fv": _order_fit(eps_ladder, fv_mean),
        # qv is a squared distance, so first-order behavior means order 2
        # in eps; report half the fitted exponent for comparability.
        "order_qv": None if _order_fit(eps_ladder, qv_mean) is None
        else 0.5 * _order_fit(eps_ladder, qv_mean),
        "per_path": {"fv": fv, "qv": qv},
        "expansion": exp_rec,
    }

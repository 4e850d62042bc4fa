r"""Perturbation ladders for the growth-optimal portfolio.

Three families, one protocol: build a ladder of markets that converges to a
limit market along one axis (information, probability measure, constraint
set), compute the optimal wealth process at every rung on common random
numbers, one stream_paths tile at a time, and measure its distance to the
limit rung with one wealth_process_gap: the finite-variation gap, the
quadratic-variation gap, and the uniform relative wealth errors both ways.
A report column passes when its log-log decay slope against the ladder
scale is negative with 95% confidence (delta method, skew-corrected).

The probability family additionally reports the density diagnostics
(terminal L^1 gap, uniform gap, quadratic variation of the density and of
its stochastic logarithm) and splits the wealth distance into an
information component and a measure component; with the filtration held
fixed the information component vanishes identically, which the slope test
treats as already decayed.
"""

from dataclasses import dataclass, field

import numpy as np

from .constraints import closed_limit_distances, dot_last, inside, scale_last
from .errors import _SHOWN, DensityFloorHit, InvalidSpec, as_floats, as_int, as_ladder
from .market import (
    SignalBundle, check_paths, cumsum_from_zero, density_paths,
    event_probabilities, market_steps, orthogonal_draws, path_stderr,
    posterior, seed_sequence, signal_draws, stream_paths, tilt_ratio,
)
from .numeraire import (
    WealthPaths, growth_path, growth_rate, numeraire_fractions, wealth_paths,
    wealth_process_gap,
)
from .quadform import (cov_norm, nullspace_split, optimal_fraction_batch,
                       step_runs)

ZERO_COLUMN_LEVEL = 1e-14
JOINT_DRAWS = 400  # draws of the slopes' joint normal behind "draws"
JOINT_SEED = 20260817
DENSITY_FLOOR_FRACTION = 1e-3  # share of paths allowed below the floor
BOUND_SLACK = 1e-6  # largest per-step bound excess the constraint ladder passes
WEALTH_COLUMNS = ("fv", "qv", "sup_rel_inf", "sup_rel_n")
DENSITY_COLUMNS = ("z_l1", "z_sup", "zz_qv", "rr_qv")


@dataclass
class LadderReport:
    """Per-rung metrics of one perturbation ladder.

    per_path maps metric name to an (L, P) array of per-path values;
    deterministic maps metric name to an (L,) array (no Monte Carlo error).
    scales is the decreasing ladder scale used as the x-axis of slope fits;
    rung i is ladder index i + 1.
    """

    family: str
    scales: np.ndarray
    per_path: dict = field(default_factory=dict)
    deterministic: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def summary(self):
        """mean/stderr/median/95th percentile per metric and rung."""
        out = {}
        for name, arr in self.per_path.items():
            out[name] = {
                "mean": arr.mean(axis=1),
                "stderr": path_stderr(arr),
                "median": np.median(arr, axis=1),
                "q95": np.percentile(arr, 95.0, axis=1),
            }
        for name, vals in self.deterministic.items():
            z = np.zeros_like(vals)
            out[name] = {"mean": vals, "stderr": z, "median": vals, "q95": vals}
        return out

    def rows(self):
        """Long-format rows (ladder_index, metric, value, stderr), in the
        order of summary()."""
        cols = {name: (arr.mean(axis=1), path_stderr(arr))
                for name, arr in self.per_path.items()}
        cols.update((name, (vals, np.zeros_like(vals)))
                    for name, vals in self.deterministic.items())
        return [{"ladder_index": i + 1, "metric": name,
                 "value": float(mean[i]), "stderr": float(err[i])}
                for name, (mean, err) in cols.items()
                for i in range(len(mean))]

    def point_slopes(self):
        """Least-squares slope of log(mean) on log(1/scale) per metric, so
        decay means a negative slope; None for a column that is identically
        zero, which cannot be fitted."""
        xc, out = _centred_x(self.scales), {}
        for name, arr in {**self.per_path, **self.deterministic}.items():
            means = arr.mean(axis=1) if arr.ndim == 2 else arr
            y = np.log(np.maximum(means, _log_floor(means)))
            out[name] = None if np.max(np.abs(means)) <= ZERO_COLUMN_LEVEL \
                else float(dot_last(xc, y - y.mean()) / dot_last(xc, xc))
        return out

    def slopes(self):
        """Decay slope per metric with a 95% interval.

        A per-path column's interval is s + _percentile_shift -/+ 1.96 se,
        se^2 = sum_p h_p^2 / (P (P - 1)) the delta-method variance (Oehlert
        1992) of its point slope s = sum_l w_l log mu_l (w = xc / (xc . xc))
        by the projections h_p = sum_l (w_l / mu_l) (x_lp - mu_l); passed
        when its top is below zero. Zero columns count as decayed, and a
        deterministic column's interval is its point slope. "draws" holds
        JOINT_DRAWS draws from JOINT_SEED of the slopes' joint normal about
        s, of covariance sum_p h_p h_p' / (P (P - 1)) (a point slope
        repeated if deterministic, None if zero)."""
        point = self.point_slopes()  # first: it checks the scales
        xc = _centred_x(self.scales)
        w = xc / dot_last(xc, xc)
        out, proj, shift = {}, {}, {}
        for name, slope in point.items():
            zero = slope is None
            out[name] = {"slope": slope, "ci": (slope, slope), "zero": zero,
                         "passed": zero or slope < 0.0,
                         "draws": None if zero else (slope,) * JOINT_DRAWS}
            if not zero and name in self.per_path:
                arr = self.per_path[name]
                mu = arr.mean(axis=1)  # g_l = 0 where the log's floor holds
                g = np.divide(w, mu, out=np.zeros_like(w),
                              where=mu > _log_floor(mu))
                dev = arr - mu[:, None]
                proj[name] = h = dot_last(dev.T, g)  # no BLAS
                shift[name] = _percentile_shift(dev, h, g, mu)
        if not proj:
            return out
        n_p = next(iter(proj.values())).size
        cov = np.array([[np.sum(a * b) for b in proj.values()]
                        for a in proj.values()]) / (n_p * max(n_p - 1, 1))
        vals, vecs = np.linalg.eigh(cov)  # root @ normal by einsum, no BLAS
        normal = np.random.default_rng(JOINT_SEED).standard_normal(
            (len(proj), JOINT_DRAWS))
        slope = np.array([out[name]["slope"] for name in proj])
        draws = slope[:, None] + np.einsum("ij,jb->ib", np.einsum(
            "ik,jk->ij", vecs * np.sqrt(np.maximum(vals, 0.0)), vecs), normal)
        for name, s, var, d in zip(proj, slope, np.diag(cov), draws):
            mid, half = s + shift[name], 1.96 * np.sqrt(var)
            out[name].update(ci=(float(mid - half), float(mid + half)),
                             passed=bool(mid + half < 0.0),
                             draws=tuple(d.tolist()))
        return out


def _centred_x(scales):
    """x = -log(scales) less its mean, the abscissa of every slope."""
    scales = np.asarray(scales, dtype=float)
    if scales.size < 2 or not np.all(scales > 0.0) \
            or np.unique(scales).size < scales.size:
        raise InvalidSpec("a slope needs two or more rungs with distinct "
                          f"positive scales, got {_SHOWN.repr(scales.tolist())}")
    x = -np.log(scales)
    return x - x.mean()


def _percentile_shift(dev, h, g, mu):
    """Second-order gap of the percentile bootstrap's interval from the delta
    interval (Hall 1992, sec. 3.5): sum_l a_l v_l / 2P + (m3 + 3 sum_l a_l
    c_l^2) (1.96^2 - 1) / (6 sum_p h_p^2), a_l = -g_l / mu_l; on 1/P, v_l
    are the rung variances, m3 the third moment of h, c_l its covariances
    with the rungs. The first term is the log's bias, the second the skew."""
    n_p, curv = h.size, -g / np.maximum(mu, _log_floor(mu))  # 0 if g = 0
    cross = np.sum(dev * h, axis=1) / n_p
    skew = np.sum(h * h * h) / n_p + 3.0 * np.sum(curv * cross * cross)
    bias = np.sum(curv * np.sum(dev * dev, axis=1)) / (2.0 * n_p * n_p)
    m2 = np.sum(h * h)
    return bias + (skew * (1.96 ** 2 - 1.0) / (6.0 * m2) if m2 > 0.0 else 0.0)


def _log_floor(means):
    """The least value a slope logs: it guards exact zeros in rung means."""
    return np.maximum(np.max(means) * 1e-300, 1e-300)


def _stack(rows, names):
    """per_path arrays (L, P) of the named columns of per-rung rows."""
    return {k: np.stack([row[k] for row in rows]) for k in names}


def _join(parts):
    """per_path arrays (L, P) of per-tile (L, tile) arrays, in path order."""
    return {k: np.concatenate([p[k] for p in parts], axis=1) for k in parts[0]}


def _density_columns(z):
    """Per-path diagnostics of density paths z, shape (P, N + 1)."""
    dz = np.diff(z, axis=1)
    return {"z_l1": np.abs(z[:, -1] - 1.0),
            "z_sup": np.max(np.abs(z - 1.0), axis=1),
            "zz_qv": np.sum(dz ** 2, axis=1),
            "rr_qv": np.sum((dz / z[:, :-1]) ** 2, axis=1)}


def _on_line(o, l, s):
    """Rows o + s l: s[..., None] l, plus o unless it is None."""
    out = scale_last(s, l)
    return out if o is None else np.add(out, o, out=out)


def _line_wealth(market, constraint, offset, direction):
    """wealth(bundle, s, tau, energy, l_dM): wealth on the optimal fractions
    for drift rows o_k + s l_k, measured under o_k + tau l_k. o = offset is
    (N, d) with tau None, or None with tau (P, 1); l = direction is (d,) or
    (N, d); s (P, N), or (P, 1) for o None and l (d,); energy <l, c l> dG
    (N,) and l_dM <l, dM> (P, N). Where the set holds p + s q, p and q the
    range projections of o and l, it is the fraction (c o = c p and dM lies
    in c's range): dB = s (tau - s/2) energy and dL = s l_dM, plus the wealth
    of p. The solver takes the other rows, a whole run of steps sharing one
    covariance in one batch when all of its rows bind."""
    halfspaces, runs = constraint.halfspaces(market.dim), []
    for lo, hi in step_runs(market.cov):
        c, o = market.cov[lo], None if offset is None else offset[lo:hi]
        l = direction if direction.ndim == 1 else direction[lo:hi]
        optimal_fraction_batch(c, np.zeros(len(c)), constraint)  # raises on a bad set
        proj = nullspace_split(c).project_range
        runs.append((lo, hi, c, o, l, None if o is None else proj(o), proj(l)))

    def wealth(bundle, s, tau, energy, l_dM):
        dB, dL = np.empty(l_dM.shape), np.empty(l_dM.shape)
        for lo, hi, c, o, l, p, q in runs:
            run, m = np.s_[:, lo:hi], s if s.shape[1] == 1 else s[:, lo:hi]
            x = _on_line(p, q, m)
            hard = ~inside(x, *halfspaces, 0.0)
            if hard.all():  # no gathers: they would cost more than the solves
                f = optimal_fraction_batch(c, x.reshape(-1, len(c)),
                                           constraint).reshape(x.shape)
                rate = growth_rate(c, o if tau is None else _on_line(o, l, tau), f)
                dB[run] = rate * bundle.dG[lo:hi]
                dL[run] = dot_last(f, bundle.dM[run])
                continue
            np.multiply(m * (m * -0.5 if tau is None else m * -0.5 + tau),
                        energy[lo:hi], out=dB[run])
            np.multiply(m, l_dM[run], out=dL[run])
            if o is not None:
                dB[run] += growth_rate(c, o, p) * bundle.dG[lo:hi]
                dL[run] += dot_last(p, bundle.dM[run])
            i, k = np.nonzero(hard)
            if i.size:  # a hard row of one column holds for every step
                o_k, l_k = None if o is None else o[k], l if l.ndim == 1 else l[k]
                f = optimal_fraction_batch(c, x[i, k], constraint)
                at = i[:, None], k[:, None] if m.shape[1] > 1 else np.arange(hi - lo)
                rate = growth_rate(c, o_k if tau is None
                                   else _on_line(o_k, l_k, tau[i, 0]), f)
                dB[run][at] = rate[:, None] * bundle.dG[lo:hi][at[1]]
                dL[run][at] = dot_last(f[:, None, :], bundle.dM[run][at])
        return WealthPaths(dB, dL)

    return wealth


def filtration_ladder(spec, model, constraint, n_paths, seed, *,
                      threads=1, event_threshold=None):
    """Information ladder: noisy peeks at the latent drift, sharpening to
    full revelation. Reports wealth distances to the revealed-limit
    numéraire plus drift and conditional-event diagnostics.

    Level n solves on drift m_n v: _line_wealth with o = 0, l = v, s = m_n,
    tau = theta; the limit is s = theta for every step."""
    n_paths = check_paths(n_paths, spec.n_steps, spec.dim)
    event_threshold = float(as_floats(
        model.prior_mean if event_threshold is None else event_threshold,
        "event_threshold", 0))
    market_spec, theta, zeta, path_ss = signal_draws(spec, model, n_paths, seed)
    market = market_steps(market_spec)
    wealth = _line_wealth(market, constraint, None, model.direction)

    def tile(base, lo, hi):
        signal = SignalBundle(base, model, theta[lo:hi], zeta[lo:hi])
        tau = signal.theta[:, None]
        w_inf = wealth(base, tau, tau, signal.vcv_dg, signal.dMv)
        hit = (signal.theta > event_threshold).astype(float)
        rows = []
        for n in range(model.n_levels):
            mean_n, prec_n = posterior(signal, n)
            row = wealth_process_gap(
                wealth(base, mean_n, tau, signal.vcv_dg, signal.dMv), w_inf)
            # in place, in the order of sum((m - theta)^2 vcv_dg) and
            # sum(|p - hit| dG)
            err = mean_n - signal.theta[:, None]
            err *= err
            row["drift_gap"] = np.sum(np.multiply(err, signal.vcv_dg, out=err),
                                      axis=1)
            probs = event_probabilities(mean_n, prec_n, event_threshold)
            probs -= hit[:, None]
            np.abs(probs, out=probs)
            row["event_gap"] = np.sum(np.multiply(probs, base.dG, out=probs),
                                      axis=1)
            rows.append(row)
        return _stack(rows, WEALTH_COLUMNS + ("drift_gap", "event_gap"))

    return LadderReport(
        family="filtration",
        scales=model.noise_scales.copy(),
        per_path=_join(stream_paths(market, n_paths, path_ss, tile, threads)),
        meta={"n_paths": n_paths, "seed": seed,
              "event_threshold": event_threshold},
    )


def probability_ladder(spec, tilt, constraint, n_paths, seed, *,
                       eps_ladder=None, threads=1):
    """Measure ladder: mixtures (1 - eps) + eps Z1 shrinking to the
    reference measure. Reports density diagnostics and wealth distances
    between the tilted-measure optimum and the reference optimum."""
    n_paths = check_paths(n_paths, spec.n_steps, spec.dim)
    eps_ladder = as_ladder(2.0 ** -np.arange(1, 9) if eps_ladder is None
                           else eps_ladder, "eps_ladder")
    if np.any(eps_ladder <= 0.0) or np.any(np.diff(eps_ladder) >= 0.0):
        raise InvalidSpec("eps_ladder must be positive and strictly "
                          f"decreasing, got {eps_ladder}")

    market = market_steps(spec)
    xi = None if tilt.orthogonal_vol == 0.0 \
        else orthogonal_draws(seed, n_paths, spec.n_steps)
    frac_ref = numeraire_fractions(market, constraint)
    wealth = _line_wealth(market, constraint, market.drift,
                          tilt.field(spec.n_steps, spec.dim))
    names = DENSITY_COLUMNS + ("drift_gap", "main1_fv", "main1_qv", "main2_fv",
                               "main2_qv", "sup_rel_inf", "sup_rel_n")

    def tile(bundle, lo, hi):
        record = density_paths(bundle, tilt, None if xi is None else xi[lo:hi])
        w_ref = wealth_paths(bundle, frac_ref)
        rows = []
        zeros = np.zeros(hi - lo)
        for eps in eps_ladder:
            row = _density_columns((1.0 - eps) + eps * record.z)
            # Girsanov: the tilted drift is a + eps * ratio * lam1.
            ratio = tilt_ratio(record, eps)
            row["drift_gap"] = eps * eps * np.sum(
                ratio * ratio * record.lam_energy, axis=1)
            gaps = wealth_process_gap(wealth(
                bundle, eps * ratio, None, record.lam_energy, record.lam_dM),
                w_ref)
            row.update(gaps)
            # The filtration is held fixed along this ladder, so the
            # information component of the proof split is identically zero.
            row.update(main1_fv=zeros, main1_qv=zeros,
                       main2_fv=gaps["fv"], main2_qv=gaps["qv"])
            rows.append(row)
        floor_hits.append(record.floor_hits)
        return _stack(rows, names)

    floor_hits = []
    per_path = _join(stream_paths(market, n_paths, seed, tile, threads))
    if sum(floor_hits) > DENSITY_FLOOR_FRACTION * n_paths:
        raise DensityFloorHit(f"{sum(floor_hits)} of {n_paths} density paths "
                              "hit the positivity floor")
    return LadderReport(
        family="probability",
        scales=eps_ladder.copy(),
        per_path=per_path,
        meta={"n_paths": n_paths, "seed": seed,
              "floor_hits": sum(floor_hits),
              "orthogonal_vol": tilt.orthogonal_vol},
    )


def constraint_ladder(spec, sets, limit_set, n_paths, seed, *, threads=1):
    """Constraint ladder: a sequence of sets closing on a limit set.

    Reports wealth distances to the limit-set numéraire, the truncated
    Hausdorff distance per rung (its largest over the steps, one per
    distinct drift norm), the worst per-step excess of the squared fraction
    gap over 4 |a|_c dist, and the cumulative growth gap.

    dist truncates both sets at the Euclidean ball B(|a|_c), and in that
    form the bound is false in general. It is proved only where both
    fractions lie in B(|a|_c), 0 lies in both sets and lambda_max(c) <= 4,
    so only those steps are checked: the excess is nonpositive when the
    bound holds on every checked step, and 0 on a rung with no checked
    step. meta["bound_ok"] holds when no excess is above BOUND_SLACK.
    meta["bound_unchecked_steps"] counts, per rung, the steps left
    unchecked (zero drift included). meta["ladder_scale"] names the slope
    axis: "set_distance", or "rung_index" (1/n) when a set distance is 0
    or two are equal.
    """
    if len(sets) == 0:
        raise InvalidSpec("constraint ladder needs at least one set")
    n_paths = check_paths(n_paths, spec.n_steps, spec.dim)
    market = market_steps(spec)
    frac_inf = numeraire_fractions(market, limit_set)
    growth_inf = growth_path(market, frac_inf).total
    # Regime of the Euclidean form: the variational inequalities at phi and
    # phi', tested at the nearest points of the other truncated set, give
    # |phi' - phi|_c^2 <= 2 |a|_c sqrt(lambda_max(c)) dist when 0 is in both
    # sets (so |a - phi|_c <= |a|_c) and both fractions lie in B(|a|_c).
    # A rank-deficient c is covered too: the solver requires null(c) inside
    # every set, so each set is invariant along null(c).
    m = cov_norm(market.cov, market.drift)
    regime = (m > 0.0) & (np.linalg.eigvalsh(market.cov)[:, -1] <= 4.0) \
        & (np.linalg.norm(frac_inf, axis=1) <= m)
    fracs = [numeraire_fractions(market, K_n) for K_n in sets]  # validates K_n
    radii, step_radius = np.unique(m, return_inverse=True)
    table = closed_limit_distances(sets, limit_set, radii, market.dim)
    dists = table.max(axis=0)
    origin = np.zeros(market.dim)
    excesses, unchecked, growth_gaps = [], [], []
    for K_n, frac_n, dist in zip(sets, fracs, table.T):
        checked = regime & (np.linalg.norm(frac_n, axis=1) <= m) \
            & bool(K_n.contains(origin) and limit_set.contains(origin))
        gap_norm = cov_norm(market.cov, frac_n - frac_inf)[checked]
        excess = gap_norm ** 2 - 4.0 * m[checked] * dist[step_radius[checked]]
        excesses.append(float(excess.max()) if excess.size else 0.0)
        unchecked.append(int(market.n_steps - checked.sum()))
        growth_gaps.append(abs(growth_path(market, frac_n).total - growth_inf))

    def tile(bundle, lo, hi):
        w_inf = wealth_paths(bundle, frac_inf)
        return _stack([wealth_process_gap(wealth_paths(bundle, f), w_inf)
                       for f in fracs], WEALTH_COLUMNS)

    # slopes needs distinct positive scales: else fit against the rung index.
    by_distance = np.unique(dists[dists > 0.0]).size == dists.size
    scales = dists if by_distance else 1.0 / np.arange(1, len(sets) + 1)
    return LadderReport(
        family="constraint",
        scales=scales,
        per_path=_join(stream_paths(market, n_paths, seed, tile, threads)),
        deterministic={"set_distance": dists,
                       "growth_gap": np.asarray(growth_gaps)},
        meta={"n_paths": n_paths, "seed": seed,
              "bound_excess": excesses,
              "bound_unchecked_steps": unchecked,
              "bound_ok": bool(max(excesses) <= BOUND_SLACK),
              "ladder_scale": "set_distance" if by_distance
              else "rung_index"},
    )


def density_sequence_check(z_paths):
    """Four-column diagnostic table for a ladder of density paths.

    z_paths is a nonempty sequence of (P, N + 1) arrays with first column
    one. Columns: terminal L^1 gap E|Z_T - 1|, uniform gap E sup|Z - 1|,
    mean quadratic variation of Z, mean quadratic variation of the
    stochastic logarithm dZ/Z_-.
    """
    rows = []
    for z in z_paths:
        z = as_floats(z, "density paths", 2)
        if z.shape[0] < 1 or z.shape[1] < 2:
            raise InvalidSpec(f"density paths must be (paths, steps+1), got {z.shape}")
        if np.any(z <= 0.0):
            raise InvalidSpec("density paths must be strictly positive")
        if np.max(np.abs(z[:, 0] - 1.0)) > 1e-12:
            raise InvalidSpec("density paths must start at one")
        rows.append(_density_columns(z))
    if not rows:
        raise InvalidSpec("density ladder needs at least one rung")
    per_path = _stack(rows, DENSITY_COLUMNS)
    table = {"index": list(range(1, len(rows) + 1)), "stderr": {},
             "per_path": per_path}
    for k, arr in per_path.items():
        table[k] = arr.mean(axis=1)
        table["stderr"][k] = path_stderr(arr)
    return table


def _brownian(n_paths, n_steps, horizon, seed):
    """(rng, dt, dw): the generator of seed, the step and Brownian
    increments dw of shape (n_paths, n_steps) drawn from it."""
    n_steps = as_int(n_steps, "n_steps", 1)
    dt = float(as_floats(horizon, "horizon", 0)) / n_steps
    if not dt > 0.0:
        raise InvalidSpec(f"horizon must be positive, got {horizon}")
    n_paths = check_paths(n_paths, n_steps + 1)
    rng = np.random.default_rng(seed_sequence(seed))
    return rng, dt, rng.standard_normal((n_paths, n_steps)) * np.sqrt(dt)


def lognormal_density_ladder(vols, n_paths, n_steps, horizon, seed):
    """Stochastic exponentials of vol * W on common Brownian draws."""
    vols = as_ladder(vols, "vols")
    _, dt, dw = _brownian(n_paths, n_steps, horizon, seed)
    out = []
    for s in vols:
        out.append(np.exp(cumsum_from_zero(s * dw - 0.5 * s * s * dt)))
    return out


def excursion_density_ladder(sizes, kappa, n_paths, n_steps, horizon, seed):
    """Rare large excursions: with probability 1/size a path runs a
    volatility-kappa exponential, otherwise stays at one. Terminal values
    converge to one in L^1 while individual excursions stay large."""
    sizes = as_ladder(sizes, "sizes")
    if np.any(sizes <= 0.0):  # the rung's scale is 1 / size
        raise InvalidSpec(f"sizes must be positive, got {sizes}")
    kappa = float(as_floats(kappa, "kappa", 0))
    rng, dt, dw = _brownian(n_paths, n_steps, horizon, seed)
    u = rng.random(dw.shape[0])
    big = np.exp(cumsum_from_zero(kappa * dw - 0.5 * kappa * kappa * dt))
    out = []
    for size in sizes:
        flag = (u < 1.0 / size)[:, None]
        out.append(np.where(flag, big, 1.0))
    return out

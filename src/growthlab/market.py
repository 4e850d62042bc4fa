r"""Discretized continuous-path market simulation.

A market is a time grid with a clock increment ``dG_k``, a covariance rate
``c_k`` and a reference drift ``a_k`` per step. Price increments follow

    dS_k = c_k a_k dG_k + sqrt(c_k) sqrt(dG_k) xi_k,      xi_k ~ N(0, I),

so the martingale part ``dM_k = dS_k - c_k a_k dG_k`` has conditional
covariance ``c_k dG_k``. Covariances may be normalized to unit trace, the
clock absorbing the scale, which pins the quadratic-variation speed to the
clock itself.

Path generation is deterministic for a fixed seed regardless of thread
count: paths are split into fixed-size blocks, each block drawing from its
own spawned bit generator in a fixed order, tile by tile.
"""

import contextlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import numpy.ma  # np.unique reads np.ma: loaded here, not inside a run
import numpy.random  # numpy 2 loads it on first use: here, not in a run

from .errors import (
    _SHOWN, DimensionMismatch, InvalidSpec, UnsupportedSignalModel, as_floats, as_int,
)
from .constraints import apply_last, dot_last, scale_last
from .quadform import check_psd_matrix, cov_inner, step_runs

PATH_BLOCK = 1024
PATH_TILE = PATH_BLOCK // 2  # paths a job holds at once
DENSITY_FLOOR = 1e-12
ENERGY_CAP = 50.0  # largest tilt energy sum |lam1|_c^2 dG of density_paths
ORTHOGONAL_STREAM = 165
CGROUP_LIMITS = ("/sys/fs/cgroup/memory.max",  # cgroup v2
                 "/sys/fs/cgroup/memory/memory.limit_in_bytes")  # cgroup v1


def cumsum_from_zero(increments):
    """Paths (P, N + 1) from zero of per-step increments (P, N)."""
    out = np.empty((increments.shape[0], increments.shape[1] + 1))
    out[:, 0] = 0.0
    np.cumsum(increments, axis=1, out=out[:, 1:])
    return out


def path_stderr(values):
    """Standard error of the mean over paths of each row of values (L, P)."""
    return values.std(axis=1) / np.sqrt(values.shape[1])


def per_step(value, n_steps, shape_tail, name):
    """A constant of shape tail or one value per step, finite, as a fresh
    (n_steps, *tail) array."""
    arr = as_floats(value, name)
    if arr.shape == shape_tail:
        return np.broadcast_to(arr, (n_steps,) + shape_tail).copy()
    if arr.shape == (n_steps,) + shape_tail:
        return arr.astype(float, copy=True)
    raise InvalidSpec(f"{name} must have shape {shape_tail} or "
                      f"{(n_steps,) + shape_tail}, got {arr.shape}")


def _at_steps(value, grid, shape_tail, name):
    """per_step of a constant, a per-step array or a callable of time, the
    callable evaluated at the left endpoints."""
    if callable(value):
        value = np.array([value(float(t)) for t in grid[:-1]], dtype=float)
        if value.shape[1:] != shape_tail:  # else per_step may read a constant
            raise InvalidSpec(f"{name} evaluated to shape {value.shape}")
    return per_step(value, grid.size - 1, shape_tail, name)


def _clock_increments(clock, n_steps, horizon, grid):
    if isinstance(clock, str):  # "uniform": MarketSpec checks
        return np.full(n_steps, horizon / n_steps)
    if callable(clock):
        dg = np.diff([float(clock(float(t))) for t in grid])
    else:
        dg = clock  # MarketSpec made it a float array
        if dg.shape != (n_steps,):
            raise InvalidSpec(f"explicit clock increments need shape ({n_steps},), got {dg.shape}")
    if not np.all(dg >= 0.0):  # NaN fails too
        raise InvalidSpec("clock must be nondecreasing")
    return dg


def _field(value, name, default):
    """A MarketSpec field as stored: default() for None, a callable as it
    is, anything else as finite numbers."""
    if value is None:
        return default()
    return value if callable(value) else as_floats(value, name)


@dataclass(frozen=True)
class MarketSpec:
    """Static description of a discretized market.

    covariance and drift accept a constant, a per-step array, or a callable
    of time (evaluated at left endpoints). clock is "uniform", an increment
    array, or a callable time change evaluated on the grid. None stands for
    the default; the numbers are stored as float arrays.
    """

    dim: int
    n_steps: int
    horizon: float = 1.0
    covariance: object = None
    drift: object = None
    clock: object = "uniform"
    normalize_clock: bool = True

    def __post_init__(self):
        dim = as_int(self.dim, "dim", 1)
        n_steps = as_int(self.n_steps, "n_steps", 1)
        # every run holds per-step covariances, (n_steps, dim, dim) floats
        nbytes = 8 * n_steps * dim * dim
        if nbytes > min(np.iinfo(np.intp).max, physical_memory() or np.inf):
            raise InvalidSpec(f"market too large: its ({n_steps}, {dim}, "
                              f"{dim}) covariances need more bytes than numpy "
                              "can index or the process's memory holds")
        if isinstance(self.clock, str) and self.clock != "uniform":
            raise InvalidSpec('clock must be "uniform", increments or a '
                              f"callable, got {_SHOWN.repr(self.clock)}")
        if not isinstance(self.normalize_clock, (bool, np.bool_)):
            raise InvalidSpec("normalize_clock must be true or false, got "
                              f"{_SHOWN.repr(self.normalize_clock)}")
        vars(self).update(
            dim=dim, n_steps=n_steps,
            horizon=float(as_floats(self.horizon, "horizon", 0)),
            covariance=_field(self.covariance, "covariance",
                              lambda: np.eye(dim) / dim),
            drift=_field(self.drift, "drift", lambda: np.zeros(dim)),
            clock=self.clock if isinstance(self.clock, str)
            else _field(self.clock, "clock", lambda: "uniform"))
        if not self.horizon > 0.0:
            raise InvalidSpec(f"horizon must be positive, got {self.horizon}")

    @property
    def grid(self):
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def materialize(self):
        """Per-step arrays (dG, cov, sqrt_cov, drift) after normalization."""
        grid = self.grid
        d, n = self.dim, self.n_steps
        dg = _clock_increments(self.clock, n, self.horizon, grid)
        cov = _at_steps(self.covariance, grid, (d, d), "covariance")
        drift = _at_steps(self.drift, grid, (d,), "drift")
        for lo, _ in step_runs(cov):
            check_psd_matrix(cov[lo])
        if self.normalize_clock:
            traces = np.einsum("kii->k", cov)
            live = traces > 0.0
            dg = np.where(live, dg * traces, dg)
            cov[live] /= traces[live, None, None]
        sqrt_cov = np.empty_like(cov)
        for lo, hi in step_runs(cov):  # one eigh per distinct covariance
            w, v = np.linalg.eigh(cov[lo])
            sqrt_cov[lo:hi] = apply_last(v * np.sqrt(np.maximum(w, 0.0)), v)
        return dg, cov, sqrt_cov, drift


@dataclass
class PathBundle:
    """Simulated increments for a batch of paths under one market spec.

    dM holds the martingale increments, shape (n_paths, n_steps, dim); the
    price increments add the drift compensator c_k a_k dG_k. The per-step
    structure arrays are shared across paths.
    """

    dG: np.ndarray
    cov: np.ndarray
    sqrt_cov: np.ndarray
    drift: np.ndarray
    dM: np.ndarray

    @property
    def n_paths(self):
        return self.dM.shape[0]

    @property
    def n_steps(self):
        return self.dM.shape[1]

    @property
    def dim(self):
        return self.dM.shape[2]


def market_steps(spec):
    """A PathBundle of spec's per-step arrays with no paths yet: the ladders
    solve on it what no path changes, and stream_paths draws its tiles."""
    return PathBundle(*spec.materialize(),
                      dM=np.empty((0, spec.n_steps, spec.dim)))


def physical_memory():
    """Bytes of memory this process may use: the smaller of the machine's
    physical memory and a cgroup limit (none at "max" or from 2^62, v1's
    sentinel), or None if neither can be read."""
    sizes = []
    with contextlib.suppress(AttributeError, ValueError, OSError):  # Windows
        sizes.append(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    for path in CGROUP_LIMITS:
        with contextlib.suppress(OSError, ValueError), open(path) as fh:
            sizes.append(int(fh.read()))  # "max" raises ValueError
    return min((n for n in sizes if n < 2 ** 62), default=None)


def check_paths(n_paths, n_steps, dim=1):
    """n_paths as an int. Rejected before any draw or seed spawn: a path
    count that is no integer or below one, one whose float array (n_paths,
    n_steps, dim) has more bytes than numpy can index, and one whose 8 bytes
    a path exceed the machine's physical memory. Every run keeps at least
    one float per path, so it could never hold such a count; stream_paths
    would first spend hours spawning one seed child per PATH_BLOCK paths."""
    n_paths = as_int(n_paths, "n_paths", 1)
    if 8 * n_paths * int(n_steps) * int(dim) > np.iinfo(np.intp).max:
        raise InvalidSpec(f"path count too large: its (paths, {n_steps}, "
                          f"{dim}) array needs more bytes than numpy can index")
    memory = physical_memory()
    if memory is not None and 8 * n_paths > memory:
        raise InvalidSpec(f"path count too large: one float a path needs "
                          f"more than the {memory} bytes of memory it may use")
    return n_paths


def seed_sequence(seed):
    """seed, an integer in [0, 2**64), as a SeedSequence; a SeedSequence as
    it is. None, which would draw entropy from the OS, raises like any other
    non-integer."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(as_int(seed, "seed", 0, 2 ** 64 - 1))


def stream_paths(market, n_paths, seed, job, threads=1, out=None):
    """Results, in path order, of job(tile, lo, hi) on each PATH_TILE-path
    tile lo:hi of the fixed PATH_BLOCK-path blocks. Block b draws its tiles
    in order from the b-th child of seed (slab by slab, the same numbers as
    one draw), shares market's per-step arrays, writes its noise dM to
    out[lo:hi] if out is given, and runs on worker b % threads (0 is the
    caller), so no path depends on the thread count or on later blocks.
    seed is an integer or a SeedSequence (see seed_sequence)."""
    n_paths = check_paths(n_paths, *market.dM.shape[1:])
    threads = as_int(threads, "threads", 1)
    n_blocks = (n_paths + PATH_BLOCK - 1) // PATH_BLOCK
    children = seed_sequence(seed).spawn(n_blocks)
    workers = min(threads, n_blocks)
    results = [[] for _ in range(n_blocks)]
    sqrt_dg = np.sqrt(market.dG)

    def stripe(w):
        for b in range(w, n_blocks, workers):
            rng = np.random.default_rng(children[b])
            end = min((b + 1) * PATH_BLOCK, n_paths)
            for lo in range(b * PATH_BLOCK, end, PATH_TILE):
                hi = min(lo + PATH_TILE, end)
                xi = rng.standard_normal((hi - lo,) + market.dM.shape[1:])
                dM = apply_last(market.sqrt_cov, xi, out=np.empty_like(xi)
                                if out is None else out[lo:hi])
                scale_last(sqrt_dg, dM, out=dM)
                results[b].append(job(replace(market, dM=dM), lo, hi))

    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        futures = [pool.submit(stripe, w) for w in range(1, workers)]
        stripe(0)
        for f in futures:
            f.result()
    return [r for tiles in results for r in tiles]


def simulate_paths(spec, n_paths, seed, threads=1):
    """Generate a PathBundle; identical output for any thread count."""
    n_paths = check_paths(n_paths, spec.n_steps, spec.dim)
    market = market_steps(spec)
    dM = np.empty((n_paths, spec.n_steps, spec.dim))
    stream_paths(market, n_paths, seed, lambda *block: None, threads, out=dM)
    return replace(market, dM=dM)


# ---------------------------------------------------------------------------
# Gaussian latent signal: a hidden scalar theta scales the drift direction.
# Every conditional law is Gaussian, so the filter is closed form and the
# information ladder (level n sees a peek at theta with noise sigma_n) is
# exactly computable.

@dataclass(frozen=True)
class GaussianSignalModel:
    """Latent drift model a = theta * direction with Gaussian prior.

    Level n of the information ladder observes the running path plus one
    peek Y = theta + noise_scales[n] * zeta; the limit level observes theta
    itself. The same zeta is reused across levels so that finer levels are
    genuinely better informed on every single path.
    """

    direction: np.ndarray
    prior_mean: float = 0.0
    prior_std: float = 1.0
    noise_scales: np.ndarray = None

    def __post_init__(self):
        scales = self.noise_scales
        vars(self).update(
            direction=as_floats(self.direction, "direction", 1),
            prior_mean=float(as_floats(self.prior_mean, "prior_mean", 0)),
            prior_std=float(as_floats(self.prior_std, "prior_std", 0)),
            noise_scales=as_floats(2.0 ** -np.arange(1, 9) if scales is None
                                   else scales, "noise_scales", 1))
        if not self.prior_std > 0.0:
            raise UnsupportedSignalModel("prior std must be positive")
        if np.any(self.noise_scales < 0.0):
            raise UnsupportedSignalModel("noise scales must be nonnegative")
        if np.any(np.diff(self.noise_scales) >= 0.0):
            raise UnsupportedSignalModel("noise scales must strictly decrease")

    @property
    def n_levels(self):
        return self.noise_scales.size


@dataclass
class SignalBundle:
    """Paths of a market whose drift is theta * direction per path.

    base.dM is the shared martingale noise; the price increments add the
    compensator theta c v dG. theta and zeta are the latent draw and the
    shared peek noise per path. vcv_dg is <v, c v> dG (N,), dMv is <dM, v>
    and stat the observation statistic sum_{j<k} dMv_j + theta vcv_dg_j,
    both (P, N): no ladder level changes them, so they are formed once.
    """

    base: PathBundle
    model: GaussianSignalModel
    theta: np.ndarray
    zeta: np.ndarray
    vcv_dg: np.ndarray = field(init=False)
    dMv: np.ndarray = field(init=False)
    stat: np.ndarray = field(init=False)

    def __post_init__(self):
        base, v = self.base, self.model.direction
        self.vcv_dg = cov_inner(base.cov, v, v) * base.dG
        self.dMv = dot_last(base.dM, v)
        obs = self.theta[:, None] * self.vcv_dg + self.dMv
        self.stat = cumsum_from_zero(obs)[:, :-1]


def signal_draws(spec, model, n_paths, seed):
    """The drift-free market, theta, zeta and the path noise seed of a
    signal simulation, drawn in that fixed order whatever the thread count."""
    if model.direction.shape != (spec.dim,):
        raise DimensionMismatch(f"signal direction dim {model.direction.shape}"
                                f" vs market dim {spec.dim}")
    n_paths = check_paths(n_paths, spec.n_steps, spec.dim)
    latent_ss, path_ss = seed_sequence(seed).spawn(2)
    rng = np.random.default_rng(latent_ss)
    theta = model.prior_mean + model.prior_std * rng.standard_normal(n_paths)
    zeta = rng.standard_normal(n_paths)
    return replace(spec, drift=np.zeros(spec.dim)), theta, zeta, path_ss


def simulate_signal_paths(spec, model, n_paths, seed, threads=1):
    """Simulate paths with hidden drift theta * direction, which replaces
    the market spec's own drift field (see signal_draws)."""
    market, theta, zeta, path_ss = signal_draws(spec, model, n_paths, seed)
    base = simulate_paths(market, n_paths, path_ss, threads=threads)
    return SignalBundle(base=base, model=model, theta=theta, zeta=zeta)


def filtered_drift(signal, level):
    """Posterior-mean drift mean v (P, N, d), mean and precision: posterior."""
    mean, prec = posterior(signal, level)
    return scale_last(mean, signal.model.direction), mean, prec


def posterior(signal, level):
    """Posterior mean (P, N) and precision (N,) of theta under ladder level
    ``level``, predictable: step k sees the path before k and the peek."""
    model, base = signal.model, signal.base
    sigma_n = model.noise_scales[as_int(level, "level", 0,
                                        model.n_levels - 1)]
    peek_prec = np.inf if sigma_n == 0.0 else 1.0 / sigma_n ** 2
    if np.isinf(peek_prec):
        # a noiseless peek reveals theta, as the limit does
        mean = np.broadcast_to(signal.theta[:, None], base.dM.shape[:2]).copy()
        prec = np.full(base.n_steps, np.inf)
    else:
        info = np.concatenate(([0.0], np.cumsum(signal.vcv_dg)))[:-1]
        prior_prec = 1.0 / model.prior_std ** 2
        peek = signal.theta + sigma_n * signal.zeta
        prec = prior_prec + peek_prec + info
        mean = model.prior_mean * prior_prec \
            + peek[:, None] * peek_prec + signal.stat
        mean /= prec
    return mean, prec


# the coefficients of ndtr's Cephes erfc, from the highest power
ERFC_P = (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699,
          48.63719709856814, 196.5208329560771, 526.4451949954773,
          934.5285271719576, 1027.5518868951572, 557.5353353693994)
ERFC_Q = (1.0, 13.228195115474499, 86.70721408859897, 354.9377788878199,
          975.7085017432055, 1823.9091668790973, 2246.3376081871097,
          1656.6630919416134, 557.5353408177277)
ERFC_R = (0.5641895835477551, 1.275366707599781, 5.019050422511805,
          6.160210979930536, 7.4097426995044895, 2.9788666537210022)
ERFC_S = (1.0, 2.2605286322011726, 9.396035249380015, 12.048953980809666,
          17.08144507475659, 9.608968090632859, 3.369076451000815)
ERFC_T = (9.604973739870516, 90.02601972038427, 2232.005345946843,
          7003.325141128051, 55592.30130103949)
ERFC_U = (1.0, 33.56171416475031, 521.3579497801527, 4594.323829709801,
          22629.000061389095, 49267.39426086359)
MAXLOG = 709.782712893384  # exp(-x^2) underflows past it: erfc is 0 or 2


def _polevl(x, coefs):
    """Horner's rule in Cephes' order, in place, coefs from the highest."""
    acc = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        acc *= x
        acc += c
    return acc


def ndtr(a, out=None):
    """Standard normal CDF 0.5 erfc(x), x = -a / sqrt 2, by Cephes' erfc
    (Moshier 1989) on Cody's (1969) rational approximations, as scipy
    evaluates it: 1 - erf by T/U on |x| < 1, P/Q to 8, R/S beyond. Its bits
    are scipy's where no exp is taken, else within 4 ulp (np.exp and glibc's
    exp may differ by 1 ulp). erfc(x <= -6) is 2: 2 - erfc(6) rounds to 2."""
    x = np.multiply(a, -np.sqrt(0.5), out=out)
    x2 = x * x
    near = x2 < 1.0
    mid = (x2 < 64.0) & (x > -6.0) & ~near
    far = ~((x < 8.0) | (x2 > MAXLOG))  # and NaN
    v = x[near]
    parts = [1.0 - v * _polevl(v * v, ERFC_T) / _polevl(v * v, ERFC_U)]
    for mask, num, den in ((mid, ERFC_P, ERFC_Q), (far, ERFC_R, ERFC_S)):
        v = x[mask]
        y = np.exp(v * -v) * _polevl(abs(v), num) / _polevl(abs(v), den)
        parts.append(np.where(v < 0.0, 2.0 - y, y))
    np.copyto(x, x <= -6.0)
    x[near], x[mid], x[far] = (0.5 * y for y in parts)
    return x


def event_probabilities(mean, prec, threshold):
    """Conditional probability P[theta > threshold | info] per path and step
    from the posterior mean (P, N) and precision (N,)."""
    z = np.subtract(mean, threshold, dtype=float)
    with np.errstate(invalid="ignore"):
        z *= np.sqrt(prec)
    out = ndtr(z, out=z)
    exact = np.isinf(prec)
    if np.any(exact):
        out = np.where(exact, (mean > threshold).astype(float), out)
    return out


# ---------------------------------------------------------------------------
# Girsanov tilts. The base tilt density is the stochastic exponential of the
# field lam1 against the martingale part, optionally times an orthogonal
# exponential driven by an independent Brownian motion. Mixtures
# (1 - eps) + eps * Z1 interpolate toward the reference measure.

@dataclass(frozen=True)
class TiltSpec:
    """Tilt of the reference measure: field lam1, optional orthogonal factor."""

    lam1: np.ndarray
    orthogonal_vol: float = 0.0

    def __post_init__(self):
        vol = float(as_floats(self.orthogonal_vol, "orthogonal_vol", 0))
        vars(self).update(lam1=as_floats(self.lam1, "lam1"), orthogonal_vol=vol)

    def field(self, n_steps, dim):
        return per_step(self.lam1, n_steps, (dim,), "tilt lam1")


@dataclass
class DensityRecord:
    """Base tilt density Z1 with its building blocks.

    z has shape (P, N + 1), z[:, 0] = 1. floor_hits counts paths whose
    density ever fell below the positivity floor DENSITY_FLOOR. lam_dM is
    <lam1, dM>, shape (P, N), and lam_energy |lam1|_c^2 dG, shape (N,).
    """

    lam1: np.ndarray
    z: np.ndarray
    floor_hits: int
    lam_dM: np.ndarray
    lam_energy: np.ndarray


def orthogonal_draws(seed, n_paths, n_steps):
    """Standard normals (P, N) behind the orthogonal tilt factor: one draw
    from stream ORTHOGONAL_STREAM of the path seed (see seed_sequence), row
    p for path p."""
    n_paths = check_paths(n_paths, n_steps)
    ss = seed_sequence(seed)
    ss = np.random.SeedSequence((ss.entropy, ORTHOGONAL_STREAM),
                                spawn_key=ss.spawn_key)
    return np.random.default_rng(ss).standard_normal((n_paths, n_steps))


def density_paths(bundle, tilt, xi=None):
    """Stochastic-exponential density Z1 of a tilt along simulated paths.
    With an orthogonal factor, xi holds the bundle's own (P, N) rows of
    orthogonal_draws (rows lo:hi for the paths lo:hi of a tile)."""
    lam = tilt.field(bundle.n_steps, bundle.dim)
    lam_energy = cov_inner(bundle.cov, lam, lam) * bundle.dG
    energy = float(np.sum(lam_energy))
    if energy > ENERGY_CAP:
        raise InvalidSpec(
            f"tilt energy {energy:.3g} exceeds cap {ENERGY_CAP:.3g}"
        )
    lam_dM = dot_last(lam, bundle.dM)
    z = np.exp(cumsum_from_zero(lam_dM - 0.5 * lam_energy))
    if tilt.orthogonal_vol != 0.0:
        if np.shape(xi) != (bundle.n_paths, bundle.n_steps):
            raise InvalidSpec("orthogonal factor needs the bundle's xi rows, "
                              f"shape {(bundle.n_paths, bundle.n_steps)}")
        dw = xi * np.sqrt(bundle.dG)[None, :]
        rho = tilt.orthogonal_vol
        orth = np.exp(cumsum_from_zero(rho * dw - 0.5 * rho * rho * bundle.dG[None, :]))
        z = z * orth
    floor_hits = int(np.sum(np.min(z, axis=1) < DENSITY_FLOOR))
    z = np.maximum(z, DENSITY_FLOOR)
    return DensityRecord(lam1=lam, z=z, floor_hits=floor_hits, lam_dM=lam_dM,
                         lam_energy=lam_energy)


@dataclass
class DensityDecomposition:
    """Mixture density Z^eps = (1 - eps) + eps Z1 and its factorization.

    lam_path is the predictable tilt field lam^eps = (Z1/Z^eps) lam1 at left
    endpoints, shape (P, N, d). exp_factor is the stochastic exponential
    driven by eps * lam^eps; remainder = density / exp_factor collects the
    orthogonal factor and the mixture's non-exponential part (identically
    one at eps in {0, 1} with the orthogonal factor off).
    """

    eps: float
    density: np.ndarray
    lam_path: np.ndarray
    exp_factor: np.ndarray
    remainder: np.ndarray


def tilt_ratio(record, eps):
    """Ratio Z1 / Z^eps = Z1 / ((1 - eps) + eps Z1) at left endpoints, (P, N)."""
    if not 0.0 <= eps <= 1.0:
        raise InvalidSpec(f"mixture size must lie in [0, 1], got {eps}")
    z_left = record.z[:, :-1]
    out = np.multiply(z_left, eps)
    out += 1.0 - eps
    return np.divide(z_left, out, out=out)


def tilt_field(record, eps):
    """Tilt field lam^eps = (Z1 / Z^eps) lam1 at left endpoints, (P, N, d)."""
    return scale_last(tilt_ratio(record, eps), record.lam1)


def tilt_decomposition(bundle, record, eps):
    """Mixture density at size eps with its multiplicative decomposition."""
    lam_path = tilt_field(record, eps)
    z_eps = (1.0 - eps) + eps * record.z
    scaled = eps * lam_path
    expo = dot_last(scaled, bundle.dM)
    expo -= 0.5 * cov_inner(bundle.cov, scaled, scaled) * bundle.dG
    exp_factor = np.exp(cumsum_from_zero(expo))
    remainder = z_eps / exp_factor
    return DensityDecomposition(eps=eps, density=z_eps, lam_path=lam_path,
                                exp_factor=exp_factor, remainder=remainder)


def girsanov_drift(bundle, decomp):
    """Drift of the market under the tilted measure: a + eps * lam^eps."""
    return bundle.drift[None, :, :] + decomp.eps * decomp.lam_path

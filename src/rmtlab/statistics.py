"""Multi-eigenvalue observables and paired Monte Carlo comparisons.

Bulk gaps are normalized by the local semicircle density, so their mean is 1
in the bulk: gap_i = N rho_sc(gamma_i) (lambda_{i+1} - lambda_i).  The inverse
square sum

    Q_i = (1/N^2) sum_{j != i} 1/(lambda_j - lambda_i)^2

measures repulsion around eigenvalue i and is regularized by the saturating
cutoff chi_M before taking expectations, so that exact degeneracies (Q_i =
+inf) contribute the finite value M.  The windowed correlation average is the
pair case of the n-point correlation: ordered pairs of distinct rescaled
eigenvalues weighted by a product of two 1-d bumps.

Monte Carlo estimators draw per-trial streams derived from (seed, stream_base
+ trial), so results do not depend on how trials are scheduled, and coupled
comparisons at t = 0 are exactly zero.  Every GOE spectrum is drawn from the
tridiagonal model, which has the dense GOE's eigenvalue law, and estimators
that read a fixed index window of each spectrum solve for that window only.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ensembles import EnsembleSpec, _sample_upper, sample_goe_tridiagonal, sample_matrix
from .flow import evolve
from .rng import derive_stream, trial_map
from .spectral import (
    _index_window,
    _packed_window,
    bulk_indices,
    classical_location,
    eigenvalues_of,
    rho_sc,
    stieltjes_empirical,
)

__all__ = [
    "CutoffSpec",
    "ObservableSpec",
    "RepulsionEstimate",
    "FlowComparison",
    "GreenComparison",
    "CorrelationEstimate",
    "bulk_gaps",
    "q_statistic",
    "chi_m",
    "wilson_interval",
    "sample_spectra",
    "level_repulsion_probability",
    "correlation_average",
    "chi_q_flow_comparison",
    "green_trace_comparison",
    "ks_distance",
    "ks_distance_to_cdf",
]

def _as_samples(samples):
    """Sorted finite 1-d sample array; raises on empty or non-finite input."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    return np.sort(samples)


def ks_distance(a, b):
    """Exact two-sample Kolmogorov-Smirnov distance.

    Both ECDFs are right-continuous steps, so the supremum of |F_a - F_b| is
    attained at one of the merged sample points.
    """
    xa, xb = _as_samples(a), _as_samples(b)
    grid = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, grid, side="right") / xa.size
    fb = np.searchsorted(xb, grid, side="right") / xb.size
    return float(np.abs(fa - fb).max())


def ks_distance_to_cdf(samples, cdf):
    """Exact one-sample KS distance against a continuous CDF callable."""
    x = _as_samples(samples)
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    upper = np.abs(np.arange(1, n + 1) / n - f)
    lower = np.abs(np.arange(0, n) / n - f)
    return float(max(upper.max(), lower.max()))


@dataclass(frozen=True)
class CutoffSpec:
    """Saturating cutoff chi_M: identity up to M-1, constant M from M on.

    The unit-width blend is the quintic Hermite interpolant with endpoint
    values (M-1, M), slopes (1, 0) and vanishing second derivatives, so chi
    is C^2 and keeps |chi(x) - x| <= 1 on [0, M].  In flow experiments
    M = N^(2 tau).
    """

    m: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and self.m > 1.0):
            raise ValueError(f"M must be finite and exceed 1, got {self.m}")

    @classmethod
    def from_n_tau(cls, n, tau):
        return cls(m=float(n) ** (2.0 * tau))


def chi_m(x, cut: CutoffSpec):
    """chi_M(x) for scalars or arrays of x >= 0, +inf included.

    x = +inf maps to M, which is how degenerate-spectrum sentinels enter
    expectations; a negative x, -inf or NaN raises.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
        raise ValueError("chi_M is defined for x >= 0 and x = +inf")
    m = cut.m
    s = np.clip(x - (m - 1.0), 0.0, 1.0)
    blend = (m - 1.0) + s + s ** 3 * (4.0 - 7.0 * s + 3.0 * s * s)
    out = np.where(x <= m - 1.0, x, np.where(x >= m, m, blend))
    return float(out) if out.ndim == 0 else out


def bulk_gaps(spectrum, kappa):
    """Normalized gaps N rho_sc(gamma_i) (lambda_{i+1} - lambda_i) over the bulk."""
    lam = np.asarray(spectrum, dtype=float)
    n = lam.shape[0]
    idx = bulk_indices(n, kappa)
    idx = idx[idx + 1 < n]
    if idx.size == 0:
        raise ValueError(f"the bulk window of kappa = {kappa} holds no gap "
                         f"of a spectrum of n = {n}")
    gamma = classical_location(idx, n)
    return n * rho_sc(gamma) * (lam[idx + 1] - lam[idx])


def q_statistic(spectrum, i):
    """Q_i = (1/N^2) sum_{j != i} (lambda_j - lambda_i)^(-2).

    An exact degeneracy returns the +inf sentinel instead of raising; chi_M
    maps it to M.
    """
    lam = np.asarray(spectrum, dtype=float)
    n = lam.shape[0]
    if not 0 <= i < n:
        raise ValueError(f"index {i} outside spectrum of size {n}")
    d = np.delete(lam - lam[i], i)
    if np.any(d == 0.0):
        return math.inf
    return float(np.sum(1.0 / (d * d))) / (n * n)


def wilson_interval(successes, trials):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, trials], got "
                         f"successes={successes}, trials={trials}")
    z = 1.959963984540054  # the two-sided 95% standard normal quantile
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials ** 2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class RepulsionEstimate:
    frequency: float
    wilson_low: float
    wilson_high: float
    threshold: float
    trials: int


def sample_spectra(spec: EnsembleSpec, trials, seed, *, stream_base=0,
                   threads=1, select=None):
    """Eigenvalues of ``trials`` independent draws, as a (trials, width) array.

    Row k is ``eigenvalues_of(draw(derive_stream(seed, stream_base + k)),
    select=select)``: the whole spectrum, or only indices lo..hi for
    ``select=(lo, hi)``, which must lie in 0..n-1 (ValueError before any
    draw).  Rows come back in trial order at any thread count.  GOE is drawn
    from the tridiagonal model (the dense GOE's eigenvalue law at a fraction
    of the cost); every other kind by ``sample_matrix``, except that a window
    of those kinds is solved straight from the packed draw, with the same
    bits and no (n, n) matrix built.
    """
    if select is not None:
        select = _index_window(select, spec.n)
    if spec.kind == "goe":
        draw, solve = functools.partial(sample_goe_tridiagonal, spec.n), eigenvalues_of
    elif select is None:
        draw, solve = functools.partial(sample_matrix, spec), eigenvalues_of
    else:
        draw = functools.partial(_sample_upper, spec)
        solve = functools.partial(_packed_window, spec.n)

    def one(k):
        return solve(draw(derive_stream(seed, stream_base + k)), select=select)

    return np.array(trial_map(one, trials, threads))


def level_repulsion_probability(spec: EnsembleSpec, i, trials, seed, *,
                                tau=None, threshold=None, stream_base=0,
                                threads=1):
    """Empirical P(lambda_{i+1} - lambda_i <= threshold) with Wilson interval.

    Give exactly one of ``tau``, for the repulsion scale N^(-1-tau), and an
    explicit ``threshold``, to probe other gap scales (e.g. a fixed
    normalized gap).  Both must be finite.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if (tau is None) == (threshold is None):
        raise ValueError("give exactly one of tau and threshold")
    for name, value in (("tau", tau), ("threshold", threshold)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if threshold is None:
        threshold = float(spec.n) ** (-1.0 - tau)
    if not 0 <= i < spec.n - 1:
        raise ValueError(f"index {i} has no upper neighbour in a spectrum of {spec.n}")
    lam = sample_spectra(spec, trials, seed, stream_base=stream_base,
                         threads=threads, select=(i, i + 1))
    hits = int(np.sum(lam[:, 1] - lam[:, 0] <= threshold))
    low, high = wilson_interval(hits, trials)
    return RepulsionEstimate(hits / trials, low, high, threshold, trials)


@dataclass(frozen=True, eq=False)
class ObservableSpec:
    """The 1-d bump exp(1 - 1/(1 - u^2)) on |u| < 1, u = (x - center)/width.

    ``correlation_average`` applies it to both points of a pair, as the
    product test function O(x_i) O(x_j).
    """

    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")

    def support(self):
        """(lo, hi) support bounds."""
        return self.center - self.width, self.center + self.width

    def __call__(self, x):
        u = (np.asarray(x, dtype=float) - self.center) / self.width
        inside = np.abs(u) < 1.0
        u = np.where(inside, u, 0.0)
        return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - u * u)), 0.0)


@dataclass(frozen=True)
class CorrelationEstimate:
    value: float
    se: float


def correlation_average(spectra, e, b, obs: ObservableSpec):
    """Energy-window-averaged pair correlation estimator.

    Computes (1/2b) * integral over E' in [E-b, E+b] of the expected sum,
    over ordered pairs of distinct eigenvalues, of O(x_i) O(x_j) with
    x_i = N rho_sc(E) (lambda_i - E').  The E' integral is evaluated on a
    64-point midpoint grid and the pair sums are restricted to eigenvalues
    inside the observable's support window.  The expectation is the mean over
    the supplied spectra; the standard error is across spectra.
    """
    spectra = [np.sort(np.asarray(s, dtype=float)) for s in spectra]
    if not spectra:
        raise ValueError("need at least one spectrum")
    if b <= 0:
        raise ValueError("b must be positive")
    n = spectra[0].shape[0]
    if any(s.shape[0] != n for s in spectra):
        raise ValueError("all spectra must have equal length")
    scale = n * rho_sc(np.asarray(e, dtype=float))
    if scale <= 0:
        raise ValueError("E must lie strictly inside the bulk (-2, 2)")
    grid_points = 64
    step = 2.0 * b / grid_points
    eprimes = e - b + step * (np.arange(grid_points) + 0.5)
    lo, hi = obs.support()

    per_spectrum = np.empty(len(spectra))
    for si, lam in enumerate(spectra):
        total = 0.0
        for eprime in eprimes:
            a = np.searchsorted(lam, eprime + lo / scale, side="left")
            z = np.searchsorted(lam, eprime + hi / scale, side="right")
            xs = scale * (lam[a:z] - eprime)
            if xs.size:
                v = obs(xs)
                vals = v[:, None] * v[None, :]
                # ordered distinct pairs: drop coincident eigenvalues
                same = xs[:, None] == xs[None, :]
                total += float(vals.sum() - vals[same].sum())
        per_spectrum[si] = total / grid_points
    se = (
        float(per_spectrum.std(ddof=1) / math.sqrt(len(spectra)))
        if len(spectra) > 1
        else math.inf
    )
    return CorrelationEstimate(float(per_spectrum.mean()), se)


@dataclass(frozen=True)
class FlowComparison:
    """Coupled estimates of E[chi_M(Q_i)] at times 0 and t."""

    e0: float
    et: float
    diff: float
    se: float


def _coupled_flow_spectra(spec: EnsembleSpec, flows, trials, seed, stream_base,
                          threads):
    """Per trial, in trial order, the spectra [H_0, evolve(H_0) per flow].

    Trial k draws H_0 from stream 2k and solves it once, so all flows share
    every sample of H_0; each flow re-derives its noise from stream 2k+1, as
    a one-flow pass would.  At t = 0 the two sides are equal.
    """
    if trials < 2:
        raise ValueError(f"a coupled comparison needs trials >= 2, got {trials}")
    if not flows:
        raise ValueError("a coupled comparison needs at least one flow")
    for params in flows:
        if params.n != spec.n:
            raise ValueError(f"flow n = {params.n} does not match ensemble n = {spec.n}")

    def one(k):
        h0 = sample_matrix(spec, derive_stream(seed, stream_base + 2 * k))
        flowed = [evolve(h0, params, derive_stream(seed, stream_base + 2 * k + 1))
                  for params in flows]
        return [eigenvalues_of(h) for h in (h0, *flowed)]

    return trial_map(one, trials, threads)


def _flow_differences(values):
    """(mean, se) over trials of values[:, j] - values[:, 0], per flow j >= 1."""
    for j in range(1, values.shape[1]):
        diffs = values[:, j] - values[:, 0]
        yield diffs.mean(axis=0), diffs.std(axis=0, ddof=1) / math.sqrt(len(values))


def chi_q_flow_comparison(spec: EnsembleSpec, flows, i, cut: CutoffSpec,
                          trials, seed, *, stream_base=0, threads=1):
    """Compare E[chi_M(Q_i(H_0))] with E[chi_M(Q_i(H_t))] under coupling:
    one FlowComparison per entry of ``flows``, a sequence of FlowParams.

    All flows share every sample of H_0, so at t = 0 the difference is
    exactly zero.
    """
    if not 0 <= i < spec.n:
        raise ValueError(f"index {i} outside spectrum of size {spec.n}")
    chi = np.array([
        [chi_m(q_statistic(lam, i), cut) for lam in spectra]
        for spectra in _coupled_flow_spectra(spec, flows, trials, seed,
                                             stream_base, threads)
    ])
    return [FlowComparison(float(chi[:, 0].mean()), float(chi[:, j].mean()),
                           float(diff), float(se))
            for j, (diff, se) in enumerate(_flow_differences(chi), 1)]


@dataclass(frozen=True, eq=False)
class GreenComparison:
    """Per-point difference of E[F(N^-1 Tr G(z))] between times 0 and t."""

    z: np.ndarray
    diff: np.ndarray
    se: np.ndarray


def green_trace_comparison(spec: EnsembleSpec, flows, zs, f_kind, trials, seed,
                           *, kappa=0.1, delta=0.5, stream_base=0, threads=1):
    """Coupled comparison of resolvent-trace observables: one GreenComparison
    per entry of ``flows``, a sequence of FlowParams that share every H_0.

    The admissible spectral window is |E| <= 2 - kappa with
    N^(-1-delta) <= eta <= N^(-1).  F acts on the complex normalized trace:
    'im' takes the imaginary part, 're' the real part.
    """
    if f_kind not in ("im", "re"):
        raise ValueError(f"unknown trace functional {f_kind!r}")
    zs = np.asarray(zs, dtype=complex).ravel()
    n = spec.n
    lo_eta, hi_eta = float(n) ** (-1.0 - delta), 1.0 / n
    for z in zs:
        if not (abs(z.real) <= 2.0 - kappa and lo_eta <= z.imag <= hi_eta):
            raise ValueError(
                f"z = {z} outside the window |E| <= {2 - kappa}, "
                f"eta in [{lo_eta:.3g}, {hi_eta:.3g}]"
            )
    take = np.imag if f_kind == "im" else np.real
    traces = np.array([
        [take(stieltjes_empirical(lam, zs)) for lam in spectra]
        for spectra in _coupled_flow_spectra(spec, flows, trials, seed,
                                             stream_base, threads)
    ])
    return [GreenComparison(zs, diff, se) for diff, se in _flow_differences(traces)]

"""Free convolution of a base spectrum with a semicircle of scale theta.

The deformed Stieltjes transform m_t solves the self-consistent equation

    m_t(z) = m_0(z + theta^2 m_t(z)),        Im m_t >= 0,

where m_0 is either the empirical transform of an explicit eigenvalue list or
the analytic semicircle transform.  Every point starts at m_sc(z/s)/s with
s^2 = 1 + theta^2, the law of a semicircle base, and takes guarded Newton
steps in a block of points, the first a Halley step where the start's
evaluation gave m_0''.  A step is taken where it is finite, stays in the upper
half plane and lowers the residual, else the damped step m/2 + m_0/2.  A point
usually certifies within about three evaluations (2.5 after a Halley step),
and on the semicircle base at the first.  Points that MAX_GUARDED steps leave
unconverged start again at m_sc(z) for as many more, then go on with damped
and plain Newton steps.  Every stage exits on the same certificate, residual
at most 1e-12, and a point in a block gets the bits of a solve there alone.

On a base of REAL_SUMS_MIN_N or more eigenvalues, m_0^(k) = k! mean(q^(k+1)),
q = 1/(lambda - w), are real sums over d = lambda - x, r = 1/(d^2 + y^2) at
w = x + iy: q = (d + iy) r, q^2 = r - 2y^2 r^2 + 2iy d r^2 and q^3 = d r^2 -
4y^2 d r^3 + i(3y r^2 - 4y^3 r^3).  Only such a base takes the Halley step; a
shorter one, and theta^2 = 0, sum m_0 and m_0' in one complex pass.

Densities come from Stieltjes inversion, rho_t(E) = Im m_t(E + i eta)/pi, and
classical locations from quantiles of the numerically integrated density.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, BranchError, FixedPointError
from .spectral import classical_location, m_sc, rho_sc

__all__ = [
    "FreeConvInput",
    "DensityProfile",
    "DeviationReport",
    "solve_m_t",
    "density_from_stieltjes",
    "density_profile",
    "density_on_support",
    "classical_location_t",
    "deviation_report",
]

RESIDUAL_TOL = 1e-12
MAX_GUARDED = 40
MAX_FIXED_POINT = 200
MAX_NEWTON = 100
DEFAULT_INVERSION_ETA = 1e-4
MASS_DEFICIT_TOL = 1e-3
# Points per block: one m0 call's (points x eigenvalues) work, at 16 bytes a
# pair, stays near 1 MiB; wider blocks leave the cache and gain less.
BLOCK_BYTES = 1 << 20
# Shorter bases keep the complex pass: on short rows the real sums' extra
# numpy calls per evaluation cost more than their cheaper arithmetic saves.
REAL_SUMS_MIN_N = 256


@dataclass(frozen=True, eq=False)
class FreeConvInput:
    """Base spectrum plus the squared semicircle scale theta^2.

    eigenvalues None selects the analytic semicircle as the base measure;
    otherwise the base is the empirical measure of the given (finite) list.
    """

    theta_sq: float
    eigenvalues: np.ndarray | None = None

    def __post_init__(self):
        if not (math.isfinite(self.theta_sq) and self.theta_sq >= 0):
            raise ValueError(f"theta_sq must be finite and nonnegative, got {self.theta_sq}")
        if self.eigenvalues is not None:
            lam = np.asarray(self.eigenvalues, dtype=float)
            if lam.ndim != 1 or lam.size == 0:
                raise ValueError("eigenvalues must be a nonempty 1-d list")
            if not np.all(np.isfinite(lam)):
                raise ValueError("eigenvalues must be finite")
            object.__setattr__(self, "eigenvalues", np.sort(lam))

    def m0(self, w):
        """(m_0, m_0') at each point of a 1-d array w."""
        if self.eigenvalues is None:
            m = m_sc(w)
            return m, m * m / (1.0 - m * m)
        if self.real_sums:
            return self._real_moments(w, 1)
        q = self.eigenvalues - w[:, None]
        np.divide(1.0, q, out=q)
        n = self.eigenvalues.size
        return q.sum(axis=-1) / n, np.einsum("ij,ij->i", q, q) / n

    def m0_jet(self, w):
        """(m_0, m_0', m_0'') from the real sums, for a solve's Halley start."""
        return self._real_moments(w, 2)

    @property
    def real_sums(self):
        """Whether m0 takes real sums: theta^2 > 0, REAL_SUMS_MIN_N eigenvalues."""
        return (self.theta_sq > 0.0 and self.eigenvalues is not None
                and self.eigenvalues.size >= REAL_SUMS_MIN_N)

    def _real_moments(self, w, order):
        # Row reductions, never BLAS, which can sum a row of a block in
        # another order than the row alone; d r and r share one buffer.
        lam, n, y = self.eigenvalues, self.eigenvalues.size, w.imag
        d, r = dr = np.empty((2, w.size, n))
        np.subtract(lam, w.real[:, None], out=d)
        np.multiply(d, d, out=r)
        r += (y * y)[:, None]
        np.divide(1.0, r, out=r)
        d *= r
        (s_d, s_r), (s_drr, s_rr) = dr.sum(axis=-1), np.einsum("kij,ij->ki", dr, r)
        out = np.empty((order + 1, w.size), dtype=complex)
        out.real[0], out.imag[0] = s_d, y * s_r
        out.real[1], out.imag[1] = s_r - 2.0 * y * y * s_rr, 2.0 * y * s_drr
        if order == 2:
            s_drrr, s_rrr = np.einsum("kij,ij->ki", dr, r * r)
            out.real[2] = 2.0 * (s_drr - 4.0 * y * y * s_drrr)
            out.imag[2] = 2.0 * y * (3.0 * s_rr - 4.0 * y * y * s_rrr)
        out /= n
        return tuple(out)

    def support_window(self):
        """Window certain to contain the support of the deformed density."""
        theta = float(np.sqrt(self.theta_sq))
        if self.eigenvalues is None:
            lo, hi = -2.0, 2.0
        else:
            lo, hi = float(self.eigenvalues[0]), float(self.eigenvalues[-1])
        return lo - 2.0 * theta - 1.0, hi + 2.0 * theta + 1.0


def solve_m_t(z, inp: FreeConvInput):
    """Solve m = m0(z + theta^2 m) on the upper half plane.

    z is one point, giving a complex, or an array of points, giving a complex
    array of its shape; each point gets the value a solve there alone gives.
    """
    zs = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(zs)):
        raise ValueError("z must be finite")
    if np.any(zs.imag <= 0):
        raise ValueError("Im z must be positive")
    flat = zs.reshape(-1)
    out = np.empty_like(flat)
    lam_size = 1 if inp.eigenvalues is None else inp.eigenvalues.size
    block = max(1, BLOCK_BYTES // (16 * lam_size))
    for k in range(0, flat.size, block):
        out[k:k + block] = _solve_block(flat[k:k + block], inp)
    return out.reshape(zs.shape)[()]


def _solve_block(z, inp):
    v = inp.theta_sq
    if v == 0.0:
        return inp.m0(z)[0]

    # Each evaluation gives f = m0(w) and fp = m0'(w) at w = z + v m, so
    # F = m - f is the residual of m and F' = 1 - v fp its derivative.  A point
    # leaves the block once |F| <= tol, or once a Newton iterate leaves the
    # upper half plane; the step rules take their turns under their budgets.
    rules = ([_guarded_step] * MAX_GUARDED + [_restart_step] + [_guarded_step] * MAX_GUARDED
             + [_damped_step] * MAX_FIXED_POINT + [_newton_step] * MAX_NEWTON)
    s = math.sqrt(1.0 + v)
    m = m_sc(z / s) / s
    out = np.empty_like(m)
    active, za = np.arange(z.size), z
    f, fp, *fpp = (inp.m0_jet if inp.real_sums else inp.m0)(za + v * m)
    for step in range(len(rules) + 1):
        res = _modulus(m - f)
        done = (res <= RESIDUAL_TOL) | (m.imag < 0)
        out[active[done]] = m[done]
        keep = ~done
        active, za, m, f, fp, res = (x[keep] for x in (active, za, m, f, fp, res))
        if active.size == 0 or step == len(rules):
            break
        if step == 0 and fpp:
            # The slope F' + v^2 F m0''/(2F') makes the first guarded step's
            # Newton candidate the Halley step m - 2FF'/(2F'^2 + v^2 F m0'').
            with np.errstate(all="ignore"):
                fp = fp - 0.5 * v * (m - f) * fpp[0][keep] / (1.0 - v * fp)
        m, f, fp = rules[step](za, m, f, fp, res, inp)
    out[active] = m

    # In point order, so that the first failing point raises what a solve
    # there alone would.
    failed = out.imag < 0
    failed[active] = True
    if failed.any():
        k = int(np.argmax(failed))
        if out[k].imag < 0:
            raise BranchError(f"Newton iterate left the upper half plane at "
                              f"z = {complex(z[k])}")
        r = float(res[np.searchsorted(active, k)])
        raise FixedPointError(f"no convergence at z = {complex(z[k])}: residual {r:.3e}",
                              residual=r)
    return out


def _guarded_step(z, m, f, fp, res, inp):
    """One step at each point: the Newton candidate m - F/(1 - v fp) where it
    is finite, in the upper half plane and lowers |F|, else the damped step
    m/2 + f/2.  Returns the new m with its f and fp."""
    v = inp.theta_sq
    damped = 0.5 * m + 0.5 * f
    with np.errstate(all="ignore"):
        c = m - (m - f) / (1.0 - v * fp)
    newton = np.isfinite(c) & (c.imag > 0)
    c[~newton] = damped[~newton]
    fc, fpc = inp.m0(z + v * c)
    back = newton & ~(_modulus(c - fc) < res)
    if back.any():
        c[back] = damped[back]
        fc[back], fpc[back] = inp.m0(z[back] + v * c[back])
    return c, fc, fpc


def _restart_step(z, m, f, fp, res, inp):
    """Start again at m_sc(z).  Near an edge of the support the first start
    can lie past the fold of the law, where Newton heads for the root below
    the real axis; m_sc(z) is smaller there and lies short of the fold."""
    c = m_sc(z)
    return (c, *inp.m0(z + inp.theta_sq * c))


def _damped_step(z, m, f, fp, res, inp):
    """The damped fixed-point step m/2 + f/2.  m0 maps the upper half plane
    into itself, so every iterate keeps Im m > 0."""
    c = 0.5 * m + 0.5 * f
    return (c, *inp.m0(z + inp.theta_sq * c))


def _newton_step(z, m, f, fp, res, inp):
    """The plain Newton step m - F/(1 - v fp).  A point whose step is not
    finite keeps m, and so ends unconverged with the residual it has."""
    v = inp.theta_sq
    with np.errstate(all="ignore"):
        c = m - (m - f) / (1.0 - v * fp)
    c = np.where(np.isfinite(c), c, m)
    return (c, *inp.m0(z + v * c))


def _modulus(d):
    # np.abs on a complex array rounds differently from abs() of one value.
    return np.hypot(d.real, d.imag)


def density_from_stieltjes(inp: FreeConvInput, e, eta):
    """rho_t(E) estimated as Im m_t(E + i eta)/pi."""
    return density_profile(inp, [e], eta)[0]


def density_profile(inp: FreeConvInput, grid, eta=DEFAULT_INVERSION_ETA):
    """Density estimates on a grid of energies, from one solve over the grid."""
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    return solve_m_t(np.asarray(grid, dtype=float) + 1j * eta, inp).imag / np.pi


@dataclass(frozen=True, eq=False)
class DensityProfile:
    """Recovered density on a grid spanning the support window.

    Carries the inversion resolution and certifies that the trapezoid mass
    over the window misses at most MASS_DEFICIT_TOL of the total.
    """

    grid: np.ndarray
    rho: np.ndarray
    eta: float

    def __post_init__(self):
        if np.any(self.rho < 0):
            raise ValueError("density values must be nonnegative")
        if 1.0 - self.mass() > MASS_DEFICIT_TOL:
            raise AccuracyError(f"density mass {self.mass():.6f} misses more than "
                                f"{MASS_DEFICIT_TOL} of the total")

    def mass(self):
        return float(np.trapezoid(self.rho, self.grid))


def density_on_support(inp: FreeConvInput, points=2001, eta=DEFAULT_INVERSION_ETA):
    """DensityProfile over the auto-detected support window."""
    lo, hi = inp.support_window()
    grid = np.linspace(lo, hi, points)
    return DensityProfile(grid, density_profile(inp, grid, eta), eta)


def classical_location_t(i, n, inp: FreeConvInput, eta=DEFAULT_INVERSION_ETA,
                         grid_points=4001):
    """Quantile gamma_{i,t} with integral_{-inf}^{gamma} rho_t = (i+1)/n.

    Indices are 0-based, matching classical_location.  i is one index, giving
    a float, or an array of indices, giving an array read off one density.
    Raises AccuracyError if the integrated density misses more than
    MASS_DEFICIT_TOL of its mass over the support window (the check of
    DensityProfile).
    """
    idx = np.asarray(i)
    if np.any(idx < 0) or np.any(idx >= n):
        raise ValueError(f"index {i} outside [0, {n - 1}]")
    if inp.theta_sq == 0.0 and inp.eigenvalues is None:
        return classical_location(i, n)

    profile = density_on_support(inp, grid_points, eta)
    grid, rho = profile.grid, profile.rho
    h = grid[1] - grid[0]
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * h)])
    target = (idx + 1.0) / n * cdf[-1]
    j = np.clip(np.searchsorted(cdf, target), 1, grid_points - 1)
    df = cdf[j] - cdf[j - 1]
    frac = np.divide(target - cdf[j - 1], df, out=np.full(np.shape(df), 0.5), where=df != 0)
    gamma = grid[j - 1] + frac * h
    return float(gamma) if idx.ndim == 0 else gamma


@dataclass(frozen=True, eq=False)
class DeviationReport:
    """Pointwise distances of (m_t, rho_t) from the semicircle baseline."""

    e: np.ndarray
    eta: np.ndarray
    dev_m: np.ndarray
    dev_rho: np.ndarray


def deviation_report(inp: FreeConvInput, es, eta):
    """Tabulate |m_t - m_sc| and |rho_t - rho_sc| on a grid; diagnostics only."""
    es = np.asarray(es, dtype=float)
    if np.any(np.abs(es) >= 4.0):
        raise ValueError("grid energies must lie in (-4, 4)")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    z = es + 1j * eta
    mt = solve_m_t(z, inp)
    dev_m = np.abs(mt - m_sc(z))
    dev_rho = np.abs(mt.imag / np.pi - rho_sc(es))
    return DeviationReport(es, np.full_like(es, eta), dev_m, dev_rho)

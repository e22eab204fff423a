"""Free convolution of a base spectrum with a semicircle of scale theta.

The deformed Stieltjes transform m_t solves the self-consistent equation

    m_t(z) = m_0(z + theta^2 m_t(z)),        Im m_t >= 0,

where m_0 is either the empirical transform of an explicit eigenvalue list or
the analytic semicircle transform.  The solver damps the natural fixed-point
iteration and falls back to Newton steps if damping stalls; every returned
value is certified to residual 1e-12.

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
MAX_FIXED_POINT = 200
MAX_NEWTON = 100
DEFAULT_INVERSION_ETA = 1e-4
MASS_DEFICIT_TOL = 1e-3


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
        if self.eigenvalues is None:
            return m_sc(w)
        return np.mean(1.0 / (self.eigenvalues - w))

    def m0_prime(self, w):
        if self.eigenvalues is None:
            m = m_sc(w)
            return m * m / (1.0 - m * m)
        return np.mean(1.0 / (self.eigenvalues - w) ** 2)

    def support_window(self):
        """Window certain to contain the support of the deformed density."""
        theta = float(np.sqrt(self.theta_sq))
        if self.eigenvalues is None:
            lo, hi = -2.0, 2.0
        else:
            lo, hi = float(self.eigenvalues[0]), float(self.eigenvalues[-1])
        return lo - 2.0 * theta - 1.0, hi + 2.0 * theta + 1.0


def _residual(m, z, inp):
    return abs(m - inp.m0(z + inp.theta_sq * m))


def solve_m_t(z, inp: FreeConvInput, tol=RESIDUAL_TOL):
    """Solve m = m0(z + theta^2 m) on the upper half plane at one point z."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("Im z must be positive")
    v = inp.theta_sq
    if v == 0.0:
        return complex(inp.m0(z))

    # Damped fixed point from the semicircle initializer.  m0 maps the upper
    # half plane into itself, so every iterate keeps Im m > 0.
    m = complex(m_sc(z))
    for _ in range(MAX_FIXED_POINT):
        nxt = 0.5 * m + 0.5 * inp.m0(z + v * m)
        if abs(nxt - m) < 0.25 * tol and _residual(nxt, z, inp) <= tol:
            return _check_branch(nxt)
        m = nxt
    if _residual(m, z, inp) <= tol:
        return _check_branch(m)

    for _ in range(MAX_NEWTON):
        w = z + v * m
        f = m - inp.m0(w)
        if abs(f) <= tol:
            return _check_branch(m)
        fp = 1.0 - v * inp.m0_prime(w)
        if fp == 0:
            break
        m = m - f / fp
        if m.imag < 0:
            raise BranchError(
                f"Newton iterate left the upper half plane at z = {z}"
            )
    res = _residual(m, z, inp)
    if res <= tol:
        return _check_branch(m)
    raise FixedPointError(
        f"no convergence at z = {z}: residual {res:.3e}", residual=res
    )


def _check_branch(m):
    if m.imag < 0:
        raise BranchError(f"solution drifted below the real axis: Im m = {m.imag:.3e}")
    return m


def density_from_stieltjes(inp: FreeConvInput, e, eta):
    """rho_t(E) estimated as Im m_t(E + i eta)/pi."""
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    return solve_m_t(complex(e, eta), inp).imag / np.pi


def density_profile(inp: FreeConvInput, grid, eta=DEFAULT_INVERSION_ETA):
    """Density estimates on a grid of energies."""
    return np.array([density_from_stieltjes(inp, e, eta) for e in np.asarray(grid)])


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
            raise AccuracyError(
                f"density mass {self.mass():.6f} misses more than "
                f"{MASS_DEFICIT_TOL} of the total"
            )

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

    Indices are 0-based, matching classical_location.  Raises AccuracyError
    if the integrated density misses more than MASS_DEFICIT_TOL of its mass
    over the support window (the check of DensityProfile).
    """
    if not 0 <= i < n:
        raise ValueError(f"index {i} outside [0, {n - 1}]")
    if inp.theta_sq == 0.0 and inp.eigenvalues is None:
        return classical_location(i, n)

    profile = density_on_support(inp, grid_points, eta)
    grid, rho = profile.grid, profile.rho
    h = grid[1] - grid[0]
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * h)])
    target = (i + 1.0) / n * cdf[-1]
    j = int(np.searchsorted(cdf, target))
    j = min(max(j, 1), grid_points - 1)
    df = cdf[j] - cdf[j - 1]
    frac = 0.5 if df == 0 else (target - cdf[j - 1]) / df
    return float(grid[j - 1] + frac * h)


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
    mt = np.array([solve_m_t(complex(e, eta), inp) for e in es])
    dev_m = np.abs(mt - m_sc(es + 1j * eta))
    dev_rho = np.abs(mt.imag / np.pi - rho_sc(es))
    return DeviationReport(es, np.full_like(es, eta), dev_m, dev_rho)

"""Ornstein-Uhlenbeck matrix flow, sampled exactly from its transition law.

The flow relaxes every entry independently toward the entry mean ``f`` at rate
1/(2 n s_ij) while injecting matching Gaussian noise, so that (f, s_ij) is
stationary:

    h_ij(t) = f + exp(-t/(2 n s_ij)) (h_ij(0) - f) + Normal(0, s_ij (1 - e^{-t/(n s_ij)})).

There is no time stepping: the right-hand side IS the law of the flow at time
t, so trajectories carry zero discretization error.

The same endpoint law splits into a Gaussian-divisible pair

    H_t  =d=  H_t^(1) + theta_t G,      theta_t = sqrt(r (1 - e^{-t/r}) / 2),

with G an independent GOE, r = min_{i<=j} n s_ij, and H_t^(1) the decayed
initial matrix plus the residual (entrywise) Gaussian noise.  The residual
variance on the diagonal carries the GOE weight (1+delta_ij)/2 and can only
vanish, never go negative, when r is the exact profile minimum.

Everything that depends only on the parameters (the decay factor, the mean's
shift, both noise standard deviations, r and theta_t) is computed once per
``FlowParams``, on first use, and kept for that object's life; a trial only
draws, scales, adds and fills.  The entry noise and the GOE part are the
stream's ziggurat standard normals (see ``rng``), scaled by their cached sd.
The flow works on the packed upper triangle in place: ``evolve`` and
``decompose_sample`` gather H_0's upper triangle and fill the result, while
callers that read only the upper triangle stay packed throughout.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ensembles import (_dimension_errors, _goe_weight, _profile_errors,
                        _read_only_copy, _sample_goe_upper, _symmetric_from_upper,
                        _upper_mask, _upper_profile, sample_goe)
from .errors import InfeasibleDecompositionError
from .rng import RngStream

__all__ = ["FlowParams", "FlowSample", "theta_t", "evolve", "decompose_sample"]


def theta_t(t, r):
    """sqrt(r (1 - e^{-t/r}) / 2), evaluated stably for t/r << 1."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"r must be finite and positive, got {r}")
    return float(np.sqrt(0.5 * r * -np.expm1(-t / r)))


@dataclass(frozen=True, eq=False)
class FlowParams:
    """Flow time, variance profile and entry mean.

    n         matrix dimension, an integer >= 2
    t         flow time, >= 0
    profile   entry variances s_ij, or None for the uniform 1/n profile
    mean      finite per-entry mean f (note: a rank-one coefficient f_coef on
              |e><e| corresponds to entry mean f_coef/n)
    """

    n: int
    t: float
    profile: np.ndarray | None = None
    mean: float = 0.0

    def __post_init__(self):
        problems = _dimension_errors(self.n)
        if not (math.isfinite(self.t) and self.t >= 0):
            problems.append(f"t must be finite and nonnegative, got {self.t}")
        if not math.isfinite(self.mean):
            problems.append(f"mean must be finite, got {self.mean}")
        if self.profile is not None and not problems:
            problems = _profile_errors(self.profile, self.n)
        if problems:
            raise ValueError("; ".join(problems))
        if self.profile is not None:
            # A read-only copy: the cached coefficients below must not go
            # stale when the caller edits its own array.
            object.__setattr__(self, "profile", _read_only_copy(self.profile))

    @functools.cached_property
    def r(self):
        """min over i <= j of n s_ij."""
        return float(self.n * np.min(_upper_profile(self.profile, self.n)))

    @functools.cached_property
    def theta(self):
        return theta_t(self.t, self.r)

    @functools.cached_property
    def _decay(self):
        """exp(-t/(2 n s_ij)) in packed order (a scalar for the uniform profile)."""
        s = _upper_profile(self.profile, self.n)
        return _read_only(np.exp(-self.t / (2.0 * self.n * s)))

    @functools.cached_property
    def _shift(self):
        """(1 - exp(-t/(2 n s_ij))) f: where the decay moves the mean."""
        return _read_only((1.0 - self._decay) * self.mean)

    @functools.cached_property
    def _evolve_sd(self):
        """sqrt(s_ij (1 - e^{-t/(n s_ij)})): the sd of ``evolve``'s noise."""
        return _read_only(np.sqrt(self._noise_var()))

    @functools.cached_property
    def _residual_sd(self):
        """The sd of ``decompose_sample``'s residual noise.

        The residual variance s_ij (1-e^{-t/(n s_ij)}) - (1+delta_ij)/(2n)
        r (1-e^{-t/r}) is nonnegative because r is the profile minimum; should
        rounding ever drive it below -1e-12 max s_ij, this raises
        InfeasibleDecompositionError instead of clipping silently.  A raise is
        not cached, so every call that needs the coefficient raises again.
        """
        n, r = self.n, self.r
        resid_var = self._noise_var() - _goe_weight(n) * (r / n) * -np.expm1(-self.t / r)
        tol = 1e-12 * float(np.max(_upper_profile(self.profile, n)))
        if resid_var.min() < -tol:
            raise InfeasibleDecompositionError(
                f"negative residual variance {resid_var.min():.3e}: "
                f"r = {r:.6g} is too large for the profile"
            )
        return _read_only(np.sqrt(np.clip(resid_var, 0.0, None)))

    def _noise_var(self):
        """s_ij (1 - e^{-t/(n s_ij)}): the variance the flow injects by time t."""
        s = _upper_profile(self.profile, self.n)
        return s * -np.expm1(-self.t / (self.n * s))


def _read_only(coef):
    """``coef`` with its array (if it is one) locked: trial threads share it."""
    if isinstance(coef, np.ndarray):
        coef.flags.writeable = False
    return coef


@dataclass(frozen=True, eq=False)
class FlowSample:
    """Gaussian-divisible sample: h_t = h_t1 + theta * goe_part exactly."""

    h_t: np.ndarray
    h_t1: np.ndarray
    goe_part: np.ndarray
    theta: float


def _flow_kernel(vals, params: FlowParams, sd, rng: RngStream):
    """decay_ij h0_ij + (1 - decay_ij) f + sd_ij Z_ij, with decay_ij =
    exp(-t/(2 n s_ij)) and Z_ij the stream's ziggurat standard normals, in
    place on the packed H_0 values ``vals``; returns ``vals``."""
    vals *= params._decay
    vals += params._shift
    z = rng._standard_normal(vals.size)
    z *= sd
    vals += z
    return vals


def _evolve_upper(vals, params: FlowParams, rng: RngStream):
    """``evolve`` on packed H_0 values, in place; t = 0 draws nothing."""
    if params.t == 0:
        return vals
    return _flow_kernel(vals, params, params._evolve_sd, rng)


def _residual_upper(vals, params: FlowParams, rng: RngStream):
    """H_t^(1) on packed H_0 values, in place.  The residual noise is drawn at
    t = 0 too, where H_t^(1) is H_0, so the GOE part always reads the same
    stretch of the stream."""
    if params.t == 0:
        rng._standard_normal(vals.size)
        return vals
    return _flow_kernel(vals, params, params._residual_sd, rng)


def _decompose_upper(vals, params: FlowParams, rng: RngStream):
    """``decompose_sample``'s H_t on packed H_0 values, in place."""
    vals = _residual_upper(vals, params, rng)
    vals += params.theta * _sample_goe_upper(params.n, rng)
    return vals


def _check_shape(h0, n):
    if h0.shape != (n, n):
        raise ValueError(f"h0 shape {h0.shape} does not match n = {n}")


def evolve(h0, params: FlowParams, rng: RngStream):
    """Sample H_t given H_0, exact in law.  H_0 is read through its upper
    triangle at every t: t = 0 draws nothing and mirrors that triangle."""
    n = params.n
    _check_shape(h0, n)
    return _symmetric_from_upper(n, _evolve_upper(h0[_upper_mask(n)], params, rng))


def decompose_sample(h0, params: FlowParams, rng: RngStream):
    """Sample the pair (H_t^(1), G) and assemble H_t = H_t^(1) + theta_t G.

    H_0 is read through its upper triangle.  Raises
    InfeasibleDecompositionError when r is too large for the profile (see
    ``FlowParams._residual_sd``).
    """
    n = params.n
    _check_shape(h0, n)
    h1 = _symmetric_from_upper(n, _residual_upper(h0[_upper_mask(n)], params, rng))
    goe = sample_goe(n, rng)
    h_t = params.theta * goe
    h_t += h1
    return FlowSample(h_t, h1, goe, params.theta)

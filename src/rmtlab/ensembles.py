"""Samplers for the random matrix ensembles under study.

``sample_matrix`` is the one dense sampler: it draws the upper triangle
(diagonal included) in packed order and mirrors it into a fresh (n, n) array.
Callers that read only the upper triangle take the packed draw itself.
A cached boolean mask owns that order as its C order: ``h[mask]`` gathers in
it, the flow's entry noise follows it, and ``upper_triangle(n)`` lists it.
``sample_goe_tridiagonal`` instead returns a ``SymmetricTridiagonal`` whose
eigenvalues have the GOE law, for runs that need only the spectrum.

The sparse ensemble at sparsity ``q`` draws each upper-triangle entry as

    h_ij = (gamma / q) * Bernoulli(q^2 / n),     gamma = (1 - q^2/n)^(-1/2),

which has mean ``gamma*q/n`` and centered variance exactly ``1/n``.  The mean
part is the rank-one matrix ``f |e><e|`` with ``e = (1,..,1)/sqrt(n)`` and
``f = gamma*q``, so the centered part is available by subtracting ``f/n`` from
every entry.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv, ndtri

from .rng import RngStream

__all__ = [
    "EnsembleSpec",
    "sample_goe",
    "sample_goe_tridiagonal",
    "SymmetricTridiagonal",
    "sample_matrix",
    "upper_triangle",
    "alternating_profile",
]

KINDS = ("erdos_renyi", "sparse_generic", "goe")

# Admissible variance profiles satisfy c1/n <= s_ij <= c2/n.
PROFILE_BOUNDS = (0.05, 20.0)


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """Parameters pinning down one sampling law.

    n            matrix dimension, an integer >= 2
    kind         "erdos_renyi" | "sparse_generic" | "goe"
    q_exponent   sparsity exponent a with q = n**a (sparse kinds only)
    mean_f       rank-one mean coefficient f (entry mean is f/n), sparse_generic
                 only; None means 0.  erdos_renyi has f = gamma*q, goe f = 0
    profile      per-entry variance matrix s_ij, or None for the uniform 1/n
                 profile (sparse_generic only)
    """

    n: int
    kind: str
    q_exponent: float = 0.4
    mean_f: float | None = None
    profile: np.ndarray | None = None

    def __post_init__(self):
        problems = self.validation_errors()
        if problems:
            raise ValueError("; ".join(problems))
        if self.profile is not None:
            # A read-only copy: a later edit of the caller's array must not
            # bypass the checks above or change later samples.
            object.__setattr__(self, "profile", _read_only_copy(self.profile))

    def validation_errors(self):
        errs = []
        if self.kind not in KINDS:
            errs.append(f"unknown ensemble kind {self.kind!r}")
            return errs
        errs = _dimension_errors(self.n)
        if errs:
            return errs
        if self.kind in ("erdos_renyi", "sparse_generic"):
            if not 0.0 < self.q_exponent <= 0.5:
                errs.append(f"q_exponent must lie in (0, 1/2], got {self.q_exponent}")
            elif self.kind == "erdos_renyi" and self.q ** 2 >= self.n:
                errs.append(
                    f"q^2 = {self.q ** 2:.6g} must be < n = {self.n} "
                    "(entry probability q^2/n must stay below 1)"
                )
        if self.mean_f is not None:
            if self.kind != "sparse_generic":
                errs.append(f"kind {self.kind!r} fixes its mean; leave mean_f unset")
            elif not 0.0 <= self.mean_f <= math.sqrt(self.n):
                errs.append(f"mean_f must lie in [0, sqrt(n)], got {self.mean_f}")
        if self.profile is not None:
            if self.kind != "sparse_generic":
                errs.append(f"kind {self.kind!r} does not take a variance profile")
            else:
                errs.extend(_profile_errors(self.profile, self.n))
        return errs

    @property
    def q(self):
        return float(self.n) ** self.q_exponent

    @property
    def gamma(self):
        p = self.q ** 2 / self.n
        return (1.0 - p) ** -0.5

    @property
    def rank_one_mean(self):
        """The coefficient f in H = B + f|e><e|; entry mean is f/n."""
        if self.kind == "erdos_renyi":
            return self.gamma * self.q
        return 0.0 if self.mean_f is None else float(self.mean_f)

    @property
    def entry_mean(self):
        return self.rank_one_mean / self.n


def _read_only_copy(a):
    """A float copy of ``a`` that nobody can write to."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _dimension_errors(n):
    """Why ``n`` is not a matrix dimension: an integer (not bool) >= 2."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        return [f"n must be an integer, got {n!r}"]
    return [] if n >= 2 else [f"n must be >= 2, got {n}"]


def _profile_errors(profile, n):
    errs = []
    profile = np.asarray(profile)
    if profile.shape != (n, n):
        return [f"profile shape {profile.shape} does not match n = {n}"]
    if not np.array_equal(profile, profile.T):
        errs.append("profile must be symmetric")
    lo, hi = PROFILE_BOUNDS
    if not np.all(np.isfinite(profile)):
        errs.append("profile entries must be finite")
    elif profile.min() < lo / n or profile.max() > hi / n:
        errs.append(
            f"profile entries must lie in [{lo}/n, {hi}/n] = "
            f"[{lo / n:.3g}, {hi / n:.3g}]"
        )
    return errs


def alternating_profile(n, lo, hi):
    """Checkerboard variance profile taking values lo/n and hi/n."""
    i = np.arange(n)
    parity = (i[:, None] + i[None, :]) % 2
    return np.where(parity == 0, lo / n, hi / n)


@functools.cache
def _upper_mask(n):
    """Read-only (n, n) mask of the upper triangle, diagonal included."""
    mask = np.triu(np.ones((n, n), dtype=bool))
    mask.flags.writeable = False
    return mask


@functools.cache
def upper_triangle(n):
    """(rows, cols) of ``_upper_mask(n)`` in packed order; cached, read-only."""
    rows, cols = np.nonzero(_upper_mask(n))
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


@functools.cache
def _goe_weight(n):
    """(1 + delta_ij)/2 in packed order: the GOE entry variance times n/2."""
    rows, cols = upper_triangle(n)
    w = np.where(rows == cols, 1.0, 0.5)
    w.flags.writeable = False
    return w


@functools.cache
def _goe_sd(n):
    """The GOE entry standard deviation sqrt((2/n) (1 + delta_ij)/2) in packed
    order; cached, read-only."""
    sd = np.sqrt((2.0 / n) * _goe_weight(n))
    sd.flags.writeable = False
    return sd


def _upper_profile(profile, n):
    """s_ij in packed order; the uniform profile (None) is the scalar 1/n."""
    return 1.0 / n if profile is None else profile[_upper_mask(n)]


def _symmetric_from_upper(n, values):
    """(n, n) matrix with packed ``values`` on the upper triangle, mirrored below."""
    mask = _upper_mask(n)
    out = np.empty((n, n))
    out[mask] = values
    out.T[mask] = values
    return out


def _sample_goe_upper(n, rng: RngStream):
    """``sample_goe``'s upper triangle in packed order: the stream's ziggurat
    standard normals, scaled by the cached sd."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    sd = _goe_sd(n)
    x = rng._standard_normal(sd.size)
    x *= sd
    return x


def sample_goe(n, rng: RngStream):
    """GOE matrix: off-diagonal N(0, 1/n), diagonal N(0, 2/n)."""
    return _symmetric_from_upper(n, _sample_goe_upper(n, rng))


@dataclass(frozen=True, eq=False)
class SymmetricTridiagonal:
    """Real symmetric tridiagonal matrix held as its two bands.

    diag     the n diagonal entries
    offdiag  the n-1 entries just above (and below) the diagonal
    """

    diag: np.ndarray
    offdiag: np.ndarray

    @property
    def shape(self):
        n = self.diag.shape[0]
        return (n, n)


def sample_goe_tridiagonal(n, rng: RngStream):
    """Tridiagonal matrix whose eigenvalues have the law of ``sample_goe(n)``.

    Dumitriu & Edelman (J. Math. Phys. 43, 2002): Householder reduction of a
    GOE matrix leaves a diagonal of N(0, 2/n) entries and an off-diagonal of
    independent chi_{n-1}, ..., chi_1 variates scaled by 1/sqrt(n).  Every
    value is one inverse-CDF transform of one uniform, the diagonal first, so a
    draw consumes exactly 2n - 1 uniforms.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    u = rng.uniform(2 * n - 1)
    diag = np.sqrt(2.0 / n) * ndtri(u[:n])
    # chi_k^2 is Gamma(k/2, scale 2)
    dof = np.arange(n - 1, 0, -1)
    offdiag = np.sqrt(2.0 * gammaincinv(0.5 * dof, u[n:]) / n)
    return SymmetricTridiagonal(diag, offdiag)


def sample_matrix(spec: EnsembleSpec, rng: RngStream):
    """One matrix of spec's law, drawn upper triangle first in packed order.

    The sparse kinds draw one uniform per entry.  erdos_renyi draws
    (gamma/q) Bernoulli(q^2/n).  sparse_generic rescales the centered entry
    (gamma/q)(Bernoulli(q^2/n) - q^2/n) by sqrt(n s_ij), so it has mean 0,
    variance s_ij and k-th moment bounded by C^k / (n q^(k-2)), and adds the
    mean f back as f/n on every entry.  goe is ``sample_goe``: one ziggurat
    normal per entry.
    """
    return _sample_upper(spec, rng, fill=_symmetric_from_upper)


def _packed(n, values):
    return values


def _sample_upper(spec: EnsembleSpec, rng: RngStream, fill=_packed):
    """``sample_matrix``'s upper triangle in packed order, as a fresh array,
    or ``fill(n, values)`` of it.

    The fill runs while the draw's temporaries are alive.  Freeing them
    first puts the (n, n) matrix lower in the heap, and freeing it later
    then lets glibc trim the heap top, which the next sample faults in
    again: about 1900 page faults a cycle where n = 500 dense samples
    alternate with free-convolution solves.  Windowed spectra take the
    packed values instead and fill a pooled buffer
    (``spectral._packed_window``), so they allocate no matrix to trim.
    """
    n = spec.n
    if spec.kind == "goe":
        return fill(n, _sample_goe_upper(n, rng))
    q = spec.q
    p, scale = q * q / n, spec.gamma / q
    bern = rng.bernoulli(p, size=n * (n + 1) // 2)
    if spec.kind == "erdos_renyi":
        return fill(n, scale * bern)
    s = _upper_profile(spec.profile, n)
    centered = np.sqrt(n * s) * scale * (bern - p)
    return fill(n, centered + spec.entry_mean)

"""Dense symmetric eigendecomposition and single-matrix spectral functionals.

Everything an experiment reads off one matrix lives here: the certified
eigendecomposition, eigenvalues of dense or tridiagonal matrices (all of them
or an index window), empirical and semicircle Stieltjes transforms, classical
eigenvalue locations, the local-law deviation report, and the closed-form
eigenvalue perturbation derivatives along the entry direction a
``DeformationSelector`` names.

Conventions: eigenvalues ascend; eigenvector ``i`` is column ``i``; all indices
are 0-based, so the classical location of eigenvalue index ``i`` is the
``(i+1)/n`` quantile of the semicircle density.

Importing this module sets numpy's and scipy's OpenBLAS to one thread for the
whole process.  OpenBLAS's eigensolvers give different low bits at different
thread counts, so this makes every spectrum a function of (config, seed)
alone, and it leaves ``rng.trial_map``'s worker threads (``--threads``) as the
only parallelism, with no BLAS threads competing with them for cores.  Where a
library exports no thread setter, a ``RuntimeWarning`` says that its bytes may
depend on the BLAS thread count.  Windowed solves call LAPACK directly, dsyevr
for dense matrices and dstebz for tridiagonal ones, and release the GIL for the
whole solve, so ``--threads`` scales them too.  A dense window is solved in a
pooled Fortran-order buffer.  ``statistics.sample_spectra`` fills that buffer
straight from the packed draw of a dense kind (``_packed_window``), so its
windowed trials build no (n, n) matrix.
"""

import contextlib
import ctypes
import functools
import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.linalg import _umath_linalg
from scipy.linalg import _flapack

from .ensembles import SymmetricTridiagonal, _symmetric_from_upper, _upper_mask
from .errors import DegenerateSpectrumError, NumericalError

__all__ = [
    "SpectralDecomposition",
    "LocalLawReport",
    "DeformationSelector",
    "eigh",
    "eigenvalues_of",
    "stieltjes_empirical",
    "m_sc",
    "rho_sc",
    "semicircle_cdf",
    "classical_location",
    "bulk_indices",
    "local_law_deviation",
    "eigenvalue_derivatives",
]

ORTHONORMALITY_TOL = 1e-10
DEGENERACY_GAP = 1e-8
LOCAL_LAW_PREFACTOR = 5.0


def _library_symbol(module, names):
    """The first of ``names`` that the library behind ``module`` exports, or None.

    dlsym on an extension module's handle also searches the libraries it links
    against, so the already loaded LAPACK modules find their OpenBLAS without a
    path.
    """
    lib = ctypes.CDLL(module.__file__)
    return next((getattr(lib, name) for name in names if hasattr(lib, name)), None)


def _pin_blas_to_one_thread():
    """Set numpy's and scipy's OpenBLAS to one thread; warn once if one cannot be.

    The wheels export the setter under a scipy-openblas name (numpy's with the
    64-bit-integer suffix); other OpenBLAS builds under the plain one.
    """
    unpinned = []
    for module, names in (
        (_umath_linalg, ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")),
        (_flapack, ("scipy_openblas_set_num_threads", "openblas_set_num_threads")),
    ):
        setter = _library_symbol(module, names)
        if setter is None:
            unpinned.append(module.__name__)
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)
    if unpinned:
        warnings.warn(
            f"could not set the BLAS behind {', '.join(unpinned)} to one thread: "
            "eigenvalue bytes may then depend on the BLAS thread count",
            RuntimeWarning,
        )


_pin_blas_to_one_thread()


def _lapack_routine(name, argtypes):
    """scipy's own LAPACK routine ``name`` (LP64, gfortran calling convention,
    so each character argument adds a hidden length at the end), or None."""
    routine = _library_symbol(_flapack, (f"scipy_{name}_", f"{name}_"))
    if routine is not None:
        routine.argtypes = argtypes
        routine.restype = None
    return routine


_CHAR, _ARRAY, _LEN = ctypes.c_char_p, ctypes.c_void_p, ctypes.c_size_t
_INT, _DOUBLE = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)

# jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz,
# work, lwork, iwork, liwork, info
_dsyevr = _lapack_routine("dsyevr", [
    _CHAR, _CHAR, _CHAR, _INT, _ARRAY, _INT, _DOUBLE, _DOUBLE, _INT, _INT,
    _DOUBLE, _INT, _ARRAY, _ARRAY, _INT, _ARRAY, _ARRAY, _INT, _ARRAY, _INT,
    _INT, _LEN, _LEN, _LEN,
])
# range, order, n, vl, vu, il, iu, abstol, d, e, m, nsplit, w, iblock, isplit,
# work, iwork, info
_dstebz = _lapack_routine("dstebz", [
    _CHAR, _CHAR, _INT, _DOUBLE, _DOUBLE, _INT, _INT, _DOUBLE, _ARRAY, _ARRAY,
    _INT, _INT, _ARRAY, _ARRAY, _ARRAY, _ARRAY, _ARRAY, _INT, _LEN, _LEN,
])


def _int(value):
    """A Fortran INTEGER argument: a reference to a fresh C int."""
    return ctypes.byref(ctypes.c_int(value))


def _call_dsyevr(a, il, iu, w, work, lwork, iwork, liwork):
    """Eigenvalues il..iu (1-based) of the lower triangle of the Fortran-order
    matrix ``a`` into ``w``, without eigenvectors; returns (count, info).

    ``a`` is overwritten.  With ``lwork = liwork = -1`` this is the workspace
    query, which writes the sizes into ``work[0]`` and ``iwork[0]``.
    """
    n = a.shape[0]
    m, info = ctypes.c_int(), ctypes.c_int()
    zero = ctypes.byref(ctypes.c_double(0.0))
    # jobz 'N' reads neither z nor isuppz; they get the sizes LAPACK documents
    z, isuppz = np.empty(1), np.empty(2 * n, dtype=np.int32)
    _dsyevr(
        b"N", b"I", b"L", _int(n), a.ctypes.data, _int(n), zero, zero,
        _int(il), _int(iu), zero, ctypes.byref(m), w.ctypes.data,
        z.ctypes.data, _int(1), isuppz.ctypes.data, work.ctypes.data,
        _int(lwork), iwork.ctypes.data, _int(liwork), ctypes.byref(info), 1, 1, 1,
    )
    return m.value, info.value


@functools.cache
def _dsyevr_workspace(n):
    """(lwork, liwork) from dsyevr's workspace query at size n.

    These are the sizes scipy's wrapper passes, and they matter to the bits:
    dsytrd, inside dsyevr, picks its block size from lwork.
    """
    work, iwork = np.empty(1), np.empty(1, dtype=np.int32)
    _, info = _call_dsyevr(np.empty((n, n), order="F"), 1, n, np.empty(n),
                           work, -1, iwork, -1)
    if info != 0:
        raise NumericalError(f"dsyevr workspace query failed with info {info}")
    return int(work[0]), int(iwork[0])


# (n, lwork, liwork) -> free (a, work, iwork) triples: a Fortran-order (n, n)
# matrix buffer and dsyevr's workspace, kept across calls and thread pools
_dsyevr_pool = {}
_dsyevr_pool_lock = threading.Lock()


@contextlib.contextmanager
def _dsyevr_buffers(n):
    """Lend an (a, work, iwork) triple for one dsyevr call at size n.

    The pool is keyed by the workspace sizes as well as n, so a triple is only
    ever reused at the sizes ``_dsyevr_workspace(n)`` gives now.
    """
    key = (n, *_dsyevr_workspace(n))
    with _dsyevr_pool_lock:
        free = _dsyevr_pool.setdefault(key, [])
        buffers = free.pop() if free else None
    if buffers is None:
        _, lwork, liwork = key
        buffers = (np.empty((n, n), order="F"), np.empty(lwork),
                   np.empty(liwork, dtype=np.int32))
    try:
        yield buffers
    finally:
        with _dsyevr_pool_lock:
            _dsyevr_pool[key].append(buffers)


def _dsyevr_window(n, lo, hi, fill):
    """Eigenvalues lo..hi of the symmetric matrix whose lower triangle
    ``fill(a)`` writes into a pooled Fortran-order (n, n) buffer ``a``, from
    one dsyevr call.

    The routine, its library, its arguments and its workspace are those of
    ``scipy.linalg.eigvalsh(a, subset_by_index=(lo, hi))``, and so are the
    bits; but a ctypes call releases the GIL for the whole solve, so the
    solves of ``rng.trial_map``'s worker threads run at the same time.
    """
    w = np.empty(n)
    with _dsyevr_buffers(n) as (a, work, iwork):
        fill(a)
        m, info = _call_dsyevr(a, lo + 1, hi + 1, w, work, work.size, iwork, iwork.size)
    if info != 0:
        raise NumericalError(f"LAPACK dsyevr failed with info {info}")
    return w[:m]


def _dense_window(a, lo, hi):
    """Eigenvalues lo..hi of the dense symmetric matrix ``a``, copied into a
    pooled buffer."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if _dsyevr is None:
        return scipy.linalg.eigvalsh(a, subset_by_index=(lo, hi))

    def fill(buf):
        buf[...] = a

    return _dsyevr_window(a.shape[0], lo, hi, fill)


def _packed_window(n, values, select):
    """``eigenvalues_of(_symmetric_from_upper(n, values), select)`` without the
    (n, n) matrix: the packed upper triangle ``values`` is written straight
    into the lower triangle of a pooled Fortran-order buffer (the C-order
    upper triangle is the Fortran-order lower one), which is all that dsyevr
    reads.  Only the n(n+1)/2 packed values are checked for finiteness.
    """
    lo, hi = _index_window(select, n)
    if not np.isfinite(values).all():
        raise ValueError("matrix entries must be finite")
    if _dsyevr is None:
        return scipy.linalg.eigvalsh(_symmetric_from_upper(n, values),
                                     subset_by_index=(lo, hi))

    def fill(a):
        a.T[_upper_mask(n)] = values

    return _dsyevr_window(n, lo, hi, fill)


def _tridiagonal_window(t, lo, hi):
    """Eigenvalues lo..hi of a ``SymmetricTridiagonal`` from one dstebz call.

    The arguments (range 'I', order 'E', abstol 0) and the validation are
    those of ``scipy.linalg.eigvalsh_tridiagonal(d, e, select="i",
    select_range=(lo, hi))``, and so are the bits; but a ctypes call releases
    the GIL for the whole solve.
    """
    if _dstebz is None:
        return scipy.linalg.eigvalsh_tridiagonal(
            t.diag, t.offdiag, select="i", select_range=(lo, hi)
        )
    d = np.ascontiguousarray(t.diag, dtype=np.float64)
    e = np.ascontiguousarray(t.offdiag, dtype=np.float64)
    if d.ndim != 1 or e.ndim != 1:
        raise ValueError("expected a 1-D array")
    n = d.size
    if e.size != n - 1:
        raise ValueError(f"d ({n}) must have one more element than e ({e.size})")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    m, nsplit, info = ctypes.c_int(), ctypes.c_int(), ctypes.c_int()
    zero = ctypes.byref(ctypes.c_double(0.0))
    w, iblock, isplit = np.empty(n), np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int32)
    work, iwork = np.empty(4 * n), np.empty(3 * n, dtype=np.int32)
    _dstebz(
        b"I", b"E", _int(n), zero, zero, _int(lo + 1), _int(hi + 1), zero,
        d.ctypes.data, e.ctypes.data, ctypes.byref(m), ctypes.byref(nsplit),
        w.ctypes.data, iblock.ctypes.data, isplit.ctypes.data, work.ctypes.data,
        iwork.ctypes.data, ctypes.byref(info), 1, 1,
    )
    if info.value != 0:
        raise NumericalError(f"LAPACK dstebz failed with info {info.value}")
    return w[:m.value]


def _index_window(select, n):
    """``select`` as 0-based ints (lo, hi); ValueError unless 0 <= lo <= hi < n."""
    lo, hi = (int(k) for k in select)
    if not 0 <= lo <= hi < n:
        raise ValueError(f"select {select} outside indices 0..{n - 1}")
    return lo, hi


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues, orthonormal eigenvector columns, and the
    certified residual max_i ||A u_i - lambda_i u_i||_2."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float


def eigh(a):
    """Full decomposition of a real symmetric matrix, with accuracy audit.

    Raises NumericalError (carrying the achieved residual) if the backend
    output misses the residual or orthonormality contract.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be exactly symmetric")

    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc

    resid_cols = a @ u - u * w
    residual = float(np.sqrt((resid_cols ** 2).sum(axis=0)).max())
    scale = 1.0 + float(np.abs(w).max(initial=0.0))
    if residual > 1e-9 * scale:
        raise NumericalError(
            f"residual {residual:.3e} exceeds 1e-9 * (1 + max|lambda|)",
            residual=residual,
        )
    gram_defect = float(np.abs(u.T @ u - np.eye(a.shape[0])).max())
    if gram_defect > ORTHONORMALITY_TOL:
        raise NumericalError(
            f"orthonormality defect {gram_defect:.3e} exceeds {ORTHONORMALITY_TOL}",
            residual=residual,
        )
    return SpectralDecomposition(w, u, residual)


def eigenvalues_of(a, select=None):
    """Ascending eigenvalues only; the fast path for Monte Carlo loops.

    ``a`` is a dense symmetric array or a ``SymmetricTridiagonal``.  With
    ``select=(lo, hi)`` only eigenvalues lo..hi (0-based, inclusive) are
    computed and returned, as an array of length hi - lo + 1.  A window calls
    LAPACK directly and releases the GIL for the whole solve, so ``--threads``
    scales these solves.  A dense window copies ``a`` into a pooled
    Fortran-order buffer for one dsyevr call, with the bits of
    ``scipy.linalg.eigvalsh(a, subset_by_index=(lo, hi))``; a non-finite
    entry or a non-square ``a`` raises ValueError before LAPACK runs.  A
    tridiagonal window is one dstebz call, with the bits and the validation
    of ``scipy.linalg.eigvalsh_tridiagonal(diag, offdiag, select="i",
    select_range=(lo, hi))``.  A nonzero LAPACK ``info`` raises
    NumericalError.
    """
    tridiagonal = isinstance(a, SymmetricTridiagonal)
    if select is None:
        if tridiagonal:
            return scipy.linalg.eigvalsh_tridiagonal(a.diag, a.offdiag)
        return np.linalg.eigvalsh(a)
    lo, hi = _index_window(select, a.shape[0])
    if tridiagonal:
        return _tridiagonal_window(a, lo, hi)
    return _dense_window(a, lo, hi)


def stieltjes_empirical(spectrum, z):
    """m_N(z) = (1/N) sum_i 1/(lambda_i - z) for Im z > 0."""
    lam = np.asarray(spectrum, dtype=float)
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0):
        raise ValueError("Im z must be positive")
    return (1.0 / (lam - z[..., None])).mean(axis=-1)


def m_sc(z):
    """Semicircle Stieltjes transform: the root of m^2 + z m + 1 = 0 with
    Im m >= 0, i.e. the branch behaving like -1/z at infinity.

    Defined for Im z >= 0; on the real axis inside (-2, 2) it returns the
    boundary value (-E + i sqrt(4 - E^2))/2.
    """
    z = np.asarray(z, dtype=complex)
    # sqrt(z-2)*sqrt(z+2) with principal branches is continuous on the closed
    # upper half plane and asymptotic to z, which selects the right root.
    return 0.5 * (-z + np.sqrt(z - 2.0) * np.sqrt(z + 2.0))


def rho_sc(e):
    """Semicircle density (1/2pi) sqrt(4 - E^2) on [-2, 2], zero outside."""
    e = np.asarray(e, dtype=float)
    return np.sqrt(np.clip(4.0 - e * e, 0.0, None)) / (2.0 * np.pi)


def semicircle_cdf(e):
    """Closed-form semicircle CDF, evaluated via the stable arcsine form."""
    e = np.clip(np.asarray(e, dtype=float), -2.0, 2.0)
    return 0.5 + (e * np.sqrt(4.0 - e * e) / 4.0 + np.arcsin(e / 2.0)) / np.pi


def classical_location(i, n):
    """gamma_i with integral_{-inf}^{gamma_i} rho_sc = (i+1)/n, 0-based i.

    i is one index, giving a float, or an array of indices, giving an array.
    """
    idx = np.asarray(i)
    if np.any(idx < 0) or np.any(idx >= n):
        raise ValueError("indices must lie in [0, n-1]")
    if np.any(idx == n - 1):
        warnings.warn("classical location of the top index sits at the edge 2")
    target = (idx + 1.0) / n
    lo = np.full(target.shape, -2.0)
    hi = np.full(target.shape, 2.0)
    # 60 bisection steps shrink the bracket to 4*2^-60 < 1e-17
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = semicircle_cdf(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    gamma = 0.5 * (lo + hi)
    return float(gamma) if idx.ndim == 0 else gamma


def bulk_indices(n, kappa):
    """0-based indices of the bulk window [[kappa N, (1-kappa) N]]."""
    if not 0.0 < kappa < 0.5:
        raise ValueError(f"kappa must lie in (0, 1/2), got {kappa}")
    first = math.ceil(kappa * n)
    last = math.floor((1.0 - kappa) * n)
    return np.arange(first - 1, last)


@dataclass(frozen=True, eq=False)
class LocalLawReport:
    """Per-grid-point deviation |m_N - m_sc| against its envelope."""

    e: np.ndarray
    eta: np.ndarray
    deviation: np.ndarray
    bound: np.ndarray
    passed: np.ndarray

    def all_passed(self):
        return bool(self.passed.all())


def local_law_deviation(spectrum, grid, q, prefactor=LOCAL_LAW_PREFACTOR):
    """Compare m_N to m_sc on a grid of spectral points.

    ``grid`` is a sequence of complex points E + i eta with eta > 0; the
    envelope is prefactor * (1/q + 1/(N eta)).  For a GOE reference pass
    q = sqrt(N).
    """
    lam = np.asarray(spectrum, dtype=float)
    n = lam.shape[0]
    z = np.asarray(grid, dtype=complex).ravel()
    if np.any(z.imag <= 0):
        raise ValueError("grid points need Im z > 0")
    dev = np.abs(stieltjes_empirical(lam, z) - m_sc(z))
    bound = prefactor * (1.0 / q + 1.0 / (n * z.imag))
    return LocalLawReport(z.real, z.imag, dev, bound, dev <= bound)


@dataclass(frozen=True)
class DeformationSelector:
    """Entry position (a, b): 0-based row/column positions with a <= b."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < self.a:
            raise ValueError(f"need 0 <= a <= b, got a={self.a}, b={self.b}")


def _direction_overlaps(dec, i, sel):
    """w_j = u_i^T V u_j for the symmetric unit direction V at (a, b)."""
    u = dec.eigenvectors
    ua, ub = u[sel.a], u[sel.b]
    if sel.a == sel.b:
        return ua[i] * ua
    return ua[i] * ub + ub[i] * ua


def eigenvalue_derivatives(dec: SpectralDecomposition, i, sel: DeformationSelector, order):
    """d^k lambda_i / d eps^k for A + eps V, V the symmetric direction at (a, b).

    V carries ones at (a, b) and (b, a) (a single one at (a, a) when a = b).
    Closed forms:

        order 1:  u_i^T V u_i
        order 2:  2 sum_{j != i} (u_i^T V u_j)^2 / (lambda_i - lambda_j)
        order 3:  6 sum_{j1, j2 != i} (u_i^T V u_j1)(u_j1^T V u_j2)(u_j2^T V u_i)
                      / ((lambda_i - lambda_j1)(lambda_i - lambda_j2))
                  - 6 (u_i^T V u_i) sum_{j != i} (u_i^T V u_j)^2
                      / (lambda_i - lambda_j)^2

    Requires lambda_i simple: the closest neighbour must sit at least
    DEGENERACY_GAP away.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2 or 3, got {order}")
    lam = dec.eigenvalues
    n = lam.shape[0]
    if not 0 <= i < n:
        raise ValueError(f"index {i} outside spectrum of size {n}")
    if not (0 <= sel.a < n and sel.b < n):
        raise ValueError(f"selector ({sel.a}, {sel.b}) outside a {n}x{n} matrix")

    diff = lam - lam[i]
    others = np.arange(n) != i
    colliding = np.flatnonzero(others & (np.abs(diff) < DEGENERACY_GAP))
    if colliding.size:
        raise DegenerateSpectrumError(
            f"eigenvalue {i} is within {DEGENERACY_GAP} of indices "
            f"{colliding.tolist()}",
            indices=[i, *colliding.tolist()],
        )

    w = _direction_overlaps(dec, i, sel)
    if order == 1:
        return float(w[i])
    if order == 2:
        return float(2.0 * np.sum(w[others] ** 2 / -diff[others]))

    p = np.zeros(n)
    p[others] = w[others] / (-diff[others])  # (lambda_i - lambda_j) = -diff_j
    u = dec.eigenvectors
    alpha = float(u[sel.a] @ p)
    if sel.a == sel.b:
        quad = alpha * alpha
    else:
        quad = 2.0 * alpha * float(u[sel.b] @ p)
    corr = float(np.sum(w[others] ** 2 / diff[others] ** 2))
    return 6.0 * quad - 6.0 * float(w[i]) * corr

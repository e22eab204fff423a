"""Deterministic, splittable random streams for reproducible Monte Carlo.

Every experiment draws from streams addressed by ``(master_seed, stream_index)``.
Streams are backed by the counter-based Philox generator, so stream ``k`` is
derived arithmetically from its address: no jump-ahead, no dependence on which
worker thread ends up running trial ``k``.

A uniform is read straight off the stream's next raw 64-bit Philox word w as
((w >> 12) + 0.5) 2**-52: its top 52 bits, centred in their cell.  That is
bit for bit ``Generator.integers(0, 2**52)`` plus one half, scaled, since
Lemire's bounded-integer method never rejects a power-of-two range.

Normals come from one of two transforms of the same words:

- ``gaussian``, and the tridiagonal GOE model in ``ensembles``, take the
  inverse CDF (``ndtri``) of these uniforms, so a request for ``m`` values
  always consumes exactly ``m`` words.
- The flow noise and the dense GOE entries take numpy's ziggurat
  (``Generator.standard_normal``) on the stream's own Philox.  It reads one
  word for most values and more for a few, so its word count varies with the
  values drawn, but only inside the stream: another trial's stream, and so
  its bytes, never moves.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import ndtri

__all__ = ["RngStream", "derive_stream", "trial_map"]

_U64 = 1 << 64
# 52-bit uniforms: (k + 0.5) is exactly representable for k < 2**52, so the
# mapped value lies strictly inside (0, 1) and ndtri never sees 0 or 1.
_UNIFORM_BITS = 52
_UNIFORM_SHIFT = 64 - _UNIFORM_BITS
_UNIFORM_SCALE = 2.0 ** -_UNIFORM_BITS


class RngStream:
    """One independent random stream, addressed by (master_seed, stream_index).

    Identical addresses replay identical sequences.  Distinct stream indices
    select distinct Philox keys, whose keystreams do not overlap within 2**64
    draws.  A stream is cheap to create and safe to hand to another thread,
    but a single instance must not be shared by two threads at once.
    """

    def __init__(self, master_seed, stream_index):
        master_seed = int(master_seed)
        stream_index = int(stream_index)
        if not 0 <= master_seed < _U64:
            raise ValueError(f"master_seed must be a u64, got {master_seed}")
        if not 0 <= stream_index < _U64:
            raise ValueError(f"stream_index must be a u64, got {stream_index}")
        self.master_seed = master_seed
        self.stream_index = stream_index
        self._bits = np.random.Philox(
            key=np.array([master_seed, stream_index], dtype=np.uint64))
        # Ziggurat standard normals, read off the same Philox words.
        self._standard_normal = np.random.Generator(self._bits).standard_normal

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, stream_index={self.stream_index})"

    def uniform(self, size=None):
        """Uniforms strictly inside (0, 1), one 64-bit word per value."""
        w = self._bits.random_raw(size)
        if size is None:
            return np.float64(((w >> _UNIFORM_SHIFT) + 0.5) * _UNIFORM_SCALE)
        w >>= _UNIFORM_SHIFT
        u = w.view(np.int64) + 0.5
        u *= _UNIFORM_SCALE
        return u

    def gaussian(self, mean, variance, size=None):
        """mean + sqrt(variance) ndtri(uniform): Normal(mean, variance) draws,
        one uniform each.  Variance 0 returns the mean exactly (+0.0, not
        ndtri's sign, for a mean of 0.0), since the mean goes on after the
        scaling.

        ``mean`` and ``variance`` may be arrays, broadcast against ``size``;
        each mean must be finite and each variance finite and nonnegative.
        """
        mean = np.asarray(mean, dtype=float)
        variance = np.asarray(variance, dtype=float)
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean must be finite")
        if not np.all(np.isfinite(variance) & (variance >= 0.0)):
            raise ValueError("variance must be finite and nonnegative")
        x = ndtri(self.uniform(size))
        x *= np.sqrt(variance)
        x += mean
        return x

    def bernoulli(self, prob, size=None):
        """0/1 draws with P(1) = prob; prob 0 and 1 are exact."""
        prob = float(prob)
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"prob must lie in [0, 1], got {prob}")
        u = self.uniform(size)
        if size is None:
            return int(u < prob)
        return (u < prob).astype(np.int64)


def derive_stream(master_seed, stream_index):
    """Stream for the given address; a pure function of both arguments."""
    return RngStream(master_seed, stream_index)


def trial_map(fn, n_trials, threads=1):
    """Run ``fn(trial)`` for trial = 0..n_trials-1, returning results in trial order.

    With threads > 1 the trials run on a thread pool (a lone trial runs
    inline, where a pool would only add a thread), but the result list is
    always assembled by trial index, so downstream reductions see the same
    sequence no matter how the scheduler interleaved the work.  An exception
    propagates as the same object, type and payload intact, with the offending
    trial index attached (see ``_attach_trial``).
    """
    if n_trials < 0:
        raise ValueError("n_trials must be nonnegative")

    def run_one(k):
        try:
            return fn(k)
        except Exception as exc:
            _attach_trial(exc, k)
            raise

    if min(threads, n_trials) <= 1:
        return [run_one(k) for k in range(n_trials)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run_one, range(n_trials)))


def _attach_trial(exc, k):
    """Name trial k on exc: as a note where exceptions take notes (3.11+),
    else as a prefix of a lone string message."""
    label = f"trial {k}"
    if hasattr(exc, "add_note"):
        exc.add_note(label)
    elif len(exc.args) == 1 and isinstance(exc.args[0], str):
        exc.args = (f"{label}: {exc.args[0]}",)

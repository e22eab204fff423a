"""Reproducibility: every number is a pure function of (config, master seed).

Streams are addressed by (master_seed, stream_index); trial k always reads
stream k, so a thread pool can run trials in any order without changing the
result.  The same property makes coupled comparisons exact: at t = 0 the flow
returns its input bit for bit.
"""

import sys

import numpy as np

from rmtlab import derive_stream, trial_map
from rmtlab.ensembles import EnsembleSpec, sample_matrix
from rmtlab.spectral import eigenvalues_of

SEED = 20250808
spec = EnsembleSpec(n=120, kind="erdos_renyi", q_exponent=0.4)


def trial(k):
    lam = eigenvalues_of(sample_matrix(spec, derive_stream(SEED, k)))
    return lam[60] - lam[59]  # one bulk gap per trial


serial = np.array(trial_map(trial, 24, threads=1))
pooled = np.array(trial_map(trial, 24, threads=4))
identical = np.array_equal(serial, pooled)
print("24 trials, serial vs 4 worker threads:")
print(f"  identical results: {identical}")

print("\nsame address, same draws:")
a = derive_stream(SEED, 7).gaussian(0.0, 1.0, 4)
b = derive_stream(SEED, 7).gaussian(0.0, 1.0, 4)
equal = np.array_equal(a, b)
print(f"  stream (seed={SEED}, index=7) twice -> equal: {equal}")

c = derive_stream(SEED, 8).gaussian(0.0, 1.0, 4)
different = not np.array_equal(a, c)
print(f"  index 8 instead -> different: {different}")

if not (identical and equal and different):
    sys.exit("a reproducibility claim above is False")

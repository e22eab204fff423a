"""Bulk gap universality: sparse matrices share the GOE spacing law.

Collects normalized bulk gaps N rho_sc(gamma_i)(lambda_{i+1} - lambda_i) from
a sparse ensemble and from the GOE, compares the two samples by KS distance,
and writes histogram data next to the Wigner surmise curve.
"""

import numpy as np

from rmtlab import EnsembleSpec, ks_distance, sample_spectra
from rmtlab.experiments import emit_histogram
from rmtlab.statistics import bulk_gaps

SEED = 20250808
N, TRIALS, KAPPA = 600, 60, 0.25


def collect(spec, base):
    spectra = sample_spectra(spec, TRIALS, SEED, stream_base=base)
    return np.concatenate([bulk_gaps(lam, KAPPA) for lam in spectra])


sparse = collect(EnsembleSpec(n=N, kind="erdos_renyi", q_exponent=0.4), 0)
goe = collect(EnsembleSpec(n=N, kind="goe"), 10_000)

print(f"bulk gaps per ensemble: {sparse.size}")
print(f"means: sparse {sparse.mean():.4f}, GOE {goe.mean():.4f} (both ~ 1)")
print(f"KS distance between the two gap samples: {ks_distance(sparse, goe):.4f}")


def surmise(s):
    return 0.5 * np.pi * s * np.exp(-0.25 * np.pi * s * s)


with open("gap_hist.csv", "w") as fh:
    fh.write("bin_left,bin_right,sparse_density,goe_density,wigner_surmise\n")
    rows_s = emit_histogram(sparse, bins=40, value_range=(0.0, 4.0))
    rows_g = emit_histogram(goe, bins=40, value_range=(0.0, 4.0))
    for (left, right, _, ds), (_, _, _, dg) in zip(rows_s, rows_g):
        mid = 0.5 * (left + right)
        fh.write(f"{left},{right},{ds},{dg},{surmise(mid)}\n")
print("wrote gap_hist.csv (the surmise is the 2x2 reference curve, not exact)")

"""Global spectral density of a sparse matrix vs the semicircle law.

Samples a handful of sparse matrices near the dense end of the admissible
sparsity range, pools their spectra (dropping the rank-one mean outlier), and
compares the empirical CDF against the semicircle CDF.  Writes histogram data
to semicircle_hist.csv for external plotting.
"""

import numpy as np

from rmtlab import EnsembleSpec, derive_stream, ks_distance_to_cdf
from rmtlab.ensembles import sample_matrix
from rmtlab.experiments import emit_histogram
from rmtlab.spectral import eigenvalues_of, rho_sc, semicircle_cdf

SEED = 20250808
N = 1500
TRIALS = 6

spec = EnsembleSpec(n=N, kind="erdos_renyi", q_exponent=0.45)
print(f"Erdos-Renyi: N={N}, q={spec.q:.1f} (edge probability {spec.q**2/N:.3f})")
print(f"rank-one mean coefficient gamma*q = {spec.rank_one_mean:.2f}")

pooled = []
for k in range(TRIALS):
    lam = eigenvalues_of(sample_matrix(spec, derive_stream(SEED, k)))
    print(f"  trial {k}: bulk in [{lam[0]:+.3f}, {lam[-2]:+.3f}], "
          f"outlier lambda_N = {lam[-1]:.2f}")
    pooled.append(lam[:-1])  # the outlier tracks the mean, not the bulk law

pooled = np.concatenate(pooled)
ks = ks_distance_to_cdf(pooled, semicircle_cdf)
print(f"\nKS distance versus the semicircle CDF over {pooled.size} eigenvalues: "
      f"{ks:.4f}")

rows = emit_histogram(pooled, bins=60, value_range=(-2.5, 2.5))
with open("semicircle_hist.csv", "w") as fh:
    fh.write("bin_left,bin_right,count,density,rho_sc\n")
    for left, right, count, density in rows:
        mid = 0.5 * (left + right)
        fh.write(f"{left},{right},{count},{density},{rho_sc(mid)}\n")
print("wrote semicircle_hist.csv (empirical density next to rho_sc)")

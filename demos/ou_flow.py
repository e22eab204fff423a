"""The matrix Ornstein-Uhlenbeck flow and its Gaussian-divisible split.

The flow is sampled exactly from its transition law, so entry means and
variances are preserved at every time.  The same endpoint law factors as
H_t = H_t^(1) + theta_t G with an independent GOE part G; this script checks
both facts numerically and prints theta_t across time.
"""

import sys

import numpy as np

from rmtlab import EnsembleSpec, FlowParams, decompose_sample, derive_stream, evolve, theta_t
from rmtlab.ensembles import sample_matrix, upper_triangle

SEED = 20250808
N = 300

spec = EnsembleSpec(n=N, kind="erdos_renyi", q_exponent=0.4)
h0 = sample_matrix(spec, derive_stream(SEED, 0))
f = spec.entry_mean
iu = upper_triangle(N)

print(f"{'t':>8}  {'theta_t':>8}  {'mean drift':>11}  {'var / (1/N)':>11}")
for k, t in enumerate((0.0, 0.01, 0.1, 0.5, 2.0, 10.0)):
    params = FlowParams(n=N, t=t, mean=f)
    ht = evolve(h0, params, derive_stream(SEED, 1 + k))
    c = ht[iu] - f
    print(f"{t:8.2f}  {params.theta:8.4f}  {c.mean():+11.2e}  "
          f"{c.var() * N:11.4f}")

print("\nGaussian-divisible split at t = 0.5:")
params = FlowParams(n=N, t=0.5, mean=f)
fs = decompose_sample(h0, params, derive_stream(SEED, 99))
recon = np.abs(fs.h_t - (fs.h_t1 + fs.theta * fs.goe_part)).max()
print(f"  theta_t = {fs.theta:.6f} (formula {theta_t(0.5, params.r):.6f})")
print(f"  reconstruction |H_t - (H_t1 + theta G)|_max = {recon:.2e}")
print(f"  GOE part entry variance * N: "
      f"{fs.goe_part[np.triu_indices(N, 1)].var() * N:.4f} (expect ~1)")

if recon != 0.0:
    sys.exit("the split H_t = H_t1 + theta G is not exact")

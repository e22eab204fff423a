"""How closely the empirical Stieltjes transform tracks m_sc at small scales.

The deviation |m_N(E + i eta) - m_sc(E + i eta)| should stay below a constant
times 1/q + 1/(N eta) all the way down to eta ~ 1/N.  This script tabulates
the deviation and the envelope across a ladder of resolutions.
"""

import numpy as np

from rmtlab import EnsembleSpec, derive_stream
from rmtlab.ensembles import sample_matrix
from rmtlab.spectral import eigenvalues_of, local_law_deviation

SEED = 20250808
N = 1000

spec = EnsembleSpec(n=N, kind="erdos_renyi", q_exponent=0.4)
lam = eigenvalues_of(sample_matrix(spec, derive_stream(SEED, 0)))
print(f"one sparse draw: N={N}, q={spec.q:.2f}, 1/q={1/spec.q:.4f}\n")

etas = [10.0, 1.0, 0.1, N ** -0.5, 10.0 / N, 2.0 / N]
print(f"{'eta':>10}  {'|m_N - m_sc|':>14}  {'5(1/q + 1/N eta)':>18}  pass")
for eta in etas:
    grid = np.array([0.0 + 1j * eta, 0.7 + 1j * eta, -1.2 + 1j * eta])
    rep = local_law_deviation(lam, grid, q=spec.q)
    worst = rep.deviation.max()
    print(f"{eta:10.4f}  {worst:14.5f}  {rep.bound[0]:18.5f}  "
          f"{'yes' if rep.all_passed() else 'no'}")

print("\nThe envelope loosens as eta shrinks: below eta ~ 1/N the empirical")
print("transform resolves single eigenvalues and no longer averages.")

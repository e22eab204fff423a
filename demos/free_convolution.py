"""Free convolution: deforming a spectrum by an independent GOE of scale theta.

Three bases show the range of behaviour: the analytic semicircle (which stays
a semicircle with a larger variance), a single atom (which spreads into a
radius-2theta semicircle), and an empirical GOE spectrum.  Densities come from
the self-consistent Stieltjes solver; classical locations are its quantiles.
"""

import numpy as np

from rmtlab import EnsembleSpec, FreeConvInput, classical_location_t, derive_stream
from rmtlab.ensembles import sample_goe
from rmtlab.free_conv import density_profile
from rmtlab.spectral import classical_location, eigenvalues_of

SEED = 20250808

print("semicircle base, theta^2 = 0.25: still a semicircle, variance 1.25")
inp = FreeConvInput(theta_sq=0.25)
grid = np.linspace(-3.0, 3.0, 13)
rho = density_profile(inp, grid, eta=1e-5)
scale = np.sqrt(1.25)
for e, r in zip(grid, rho):
    inside = abs(e) < 2 * scale
    exact = np.sqrt(max(4 * 1.25 - e * e, 0.0)) / (2 * np.pi * 1.25)
    print(f"  E={e:+.2f}  rho_t={r:.5f}  scaled semicircle={exact:.5f}"
          + ("" if inside else "  (outside support)"))

print("\natom at 0, theta^2 = 1: the radius-2 semicircle")
atom = FreeConvInput(theta_sq=1.0, eigenvalues=np.zeros(1))
energies = (0.0, 1.0, 1.9, 2.5)
for e, r in zip(energies, density_profile(atom, energies, eta=1e-6)):
    exact = np.sqrt(max(4.0 - e * e, 0.0)) / (2 * np.pi)
    print(f"  E={e:+.2f}  rho_t={r:.5f}  exact={exact:.5f}")

print("\nempirical GOE base, theta^2 = 0.1: classical locations barely move")
n = 400
lam = eigenvalues_of(sample_goe(n, derive_stream(SEED, 0)))
emp = FreeConvInput(theta_sq=0.1, eigenvalues=lam)
indices = np.array([100, 199, 300])
for i, gt in zip(indices, classical_location_t(indices, n, emp)):
    g0 = classical_location(i, n)
    print(f"  i={i:3d}  gamma_i={g0:+.4f}  gamma_i,t={gt:+.4f}  "
          f"shift={gt - g0:+.4f}")

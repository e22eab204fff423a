import numpy as np
import pytest

from rmtlab.ensembles import sample_goe
from rmtlab.errors import AccuracyError
from rmtlab.free_conv import (
    DensityProfile,
    FreeConvInput,
    classical_location_t,
    density_from_stieltjes,
    density_on_support,
    density_profile,
    deviation_report,
    solve_m_t,
)
from rmtlab.rng import derive_stream
from rmtlab.spectral import (
    classical_location,
    classical_locations,
    eigenvalues_of,
    m_sc,
)


def test_zero_theta_returns_base_transform():
    lam = np.array([-1.0, 0.0, 2.0])
    inp = FreeConvInput(theta_sq=0.0, eigenvalues=lam)
    z = 0.4 + 0.3j
    assert solve_m_t(z, inp) == pytest.approx(np.mean(1.0 / (lam - z)))
    semicircle = FreeConvInput(theta_sq=0.0)
    assert solve_m_t(z, semicircle) == pytest.approx(complex(m_sc(z)))


def test_semicircle_base_scaling_oracle():
    # semicircle (+) theta-semicircle is the semicircle of variance 1+theta^2,
    # so the oracle is m(z) = m_sc(z/s)/s with s = sqrt(1.25).  Validate the
    # oracle against the defining equation before using it.
    inp = FreeConvInput(theta_sq=0.25)
    s = np.sqrt(1.25)
    z = 0.3 + 0.05j
    oracle = complex(m_sc(z / s)) / s
    assert abs(oracle - m_sc(z + 0.25 * oracle)) <= 1e-12
    assert abs(solve_m_t(z, inp) - oracle) <= 1e-8


def test_atom_base_closed_form():
    # atom at 0 (+) theta-semicircle: theta^2 m^2 + z m + 1 = 0
    inp = FreeConvInput(theta_sq=0.5, eigenvalues=np.zeros(3))
    for z in (0.1 + 0.2j, -1.0 + 0.05j, 1.5 + 1.0j):
        m = solve_m_t(z, inp)
        assert abs(0.5 * m * m + z * m + 1.0) <= 1e-11
        assert m.imag >= 0


def test_solver_residual_certificate():
    lam = eigenvalues_of(sample_goe(300, derive_stream(41, 0)))
    inp = FreeConvInput(theta_sq=0.1, eigenvalues=lam)
    for z in (0.0 + 0.01j, 1.2 + 0.001j, -1.9 + 0.05j):
        m = solve_m_t(z, inp)
        assert abs(m - inp.m0(z + 0.1 * m)) <= 1e-12


def test_herglotz_and_self_improving_bound():
    lam = eigenvalues_of(sample_goe(200, derive_stream(41, 1)))
    theta_sq = 0.2
    inp = FreeConvInput(theta_sq=theta_sq, eigenvalues=lam)
    rng = derive_stream(41, 2)
    es = -3.0 + 6.0 * rng.uniform(50)
    etas = 10.0 ** (-4 + 3 * rng.uniform(50))
    for e, eta in zip(es, etas):
        m = solve_m_t(complex(e, eta), inp)
        assert m.imag > 0
        # |theta^2 m| <= theta, i.e. |m| <= 1/theta
        assert abs(m) <= 1.0 / np.sqrt(theta_sq) + 1e-9


def test_density_semicircle_values():
    semicircle = FreeConvInput(theta_sq=0.0)
    assert density_from_stieltjes(semicircle, 0.0, 1e-6) == pytest.approx(
        1.0 / np.pi, abs=1e-5
    )
    assert density_from_stieltjes(semicircle, 3.0, 1e-6) <= 1e-5


def test_density_atom_radius_two_semicircle():
    atom = FreeConvInput(theta_sq=1.0, eigenvalues=np.zeros(1))
    assert density_from_stieltjes(atom, 0.0, 1e-6) == pytest.approx(
        1.0 / np.pi, abs=1e-4
    )


def test_classical_location_t_reduces_to_semicircle():
    inp = FreeConvInput(theta_sq=0.0)
    for i, n in ((0, 4), (249, 500), (100, 300)):
        assert classical_location_t(i, n, inp) == pytest.approx(
            classical_location(i, n), abs=1e-6
        )


def test_classical_location_t_symmetric_base_center():
    base = np.concatenate([-np.linspace(0.1, 1.5, 40), np.linspace(0.1, 1.5, 40)])
    inp = FreeConvInput(theta_sq=0.3, eigenvalues=base)
    assert classical_location_t(39, 80, inp) == pytest.approx(0.0, abs=1e-6)


def test_classical_location_t_goe_base_near_classical():
    n = 500
    lam = eigenvalues_of(sample_goe(n, derive_stream(43, 0)))
    inp = FreeConvInput(theta_sq=0.1, eigenvalues=lam)
    for i in (200, 249, 300):
        assert abs(classical_location_t(i, n, inp) - classical_location(i, n)) <= 0.05


def test_classical_location_t_pinned_quantile():
    # pinned exactly: the grid and CDF arithmetic must not drift
    lam = eigenvalues_of(sample_goe(200, derive_stream(11, 0)))
    inp = FreeConvInput(theta_sq=0.25, eigenvalues=lam)
    assert classical_location_t(60, 200, inp, grid_points=801) == -0.7084750805216922


def test_classical_location_t_mass_deficit_error():
    # a huge inversion eta leaks mass far outside the support window
    inp = FreeConvInput(theta_sq=0.25)
    with pytest.raises(AccuracyError):
        classical_location_t(10, 100, inp, eta=1.0)


def test_deviation_report_classical_grid():
    # base = exact classical locations: the empirical transform is a
    # midpoint-quantile quadrature of the semicircle integral
    n = 2000
    gamma = classical_locations(np.arange(n - 1), n)
    inp = FreeConvInput(theta_sq=0.0, eigenvalues=gamma)
    rep = deviation_report(inp, np.linspace(-1.5, 1.5, 31), eta=0.01)
    assert rep.dev_m.max() <= 0.01


def test_deviation_report_shrinks_with_n():
    devs = {}
    for n, idx in ((500, 0), (2000, 1)):
        lam = eigenvalues_of(sample_goe(n, derive_stream(47, idx)))
        inp = FreeConvInput(theta_sq=float(n) ** -0.2, eigenvalues=lam)
        rep = deviation_report(inp, np.linspace(-1.0, 1.0, 21), eta=0.05)
        devs[n] = rep.dev_m.max()
    assert devs[2000] < devs[500]


def test_deviation_report_atom_base_is_diagnostic_only():
    inp = FreeConvInput(theta_sq=0.04, eigenvalues=np.zeros(4))
    rep = deviation_report(inp, np.array([0.0, 0.5]), eta=0.05)
    assert rep.dev_rho.max() > 0.1  # far from semicircle, but no failure


def test_stieltjes_inversion_consistency():
    # integrating the recovered density against 1/(x - z) reproduces m_t
    lam = eigenvalues_of(sample_goe(150, derive_stream(53, 0)))
    inp = FreeConvInput(theta_sq=0.2, eigenvalues=lam)
    lo, hi = inp.support_window()
    grid = np.linspace(lo, hi, 2001)
    rho = density_profile(inp, grid, eta=1e-4)
    z = 0.4 + 0.1j
    recon = np.trapezoid(rho / (grid - z), grid)
    assert abs(recon - solve_m_t(z, inp)) <= 1e-3


def test_density_on_support_mass_certificate():
    profile = density_on_support(FreeConvInput(theta_sq=0.25), points=801)
    assert np.all(profile.rho >= 0)
    assert profile.mass() == pytest.approx(1.0, abs=1e-3)


def test_density_profile_type_rejects_bad_data():
    grid = np.linspace(-1, 1, 11)
    with pytest.raises(ValueError):
        DensityProfile(grid, np.full(11, -0.1), eta=1e-4)
    with pytest.raises(AccuracyError):
        DensityProfile(grid, np.zeros(11), eta=1e-4)  # zero mass


def test_input_validation():
    with pytest.raises(ValueError):
        FreeConvInput(theta_sq=-0.1)
    with pytest.raises(ValueError):
        FreeConvInput(theta_sq=0.1, eigenvalues=np.array([]))
    with pytest.raises(ValueError):
        FreeConvInput(theta_sq=0.1, eigenvalues=np.array([np.inf]))
    with pytest.raises(ValueError):
        solve_m_t(1.0 - 0.1j, FreeConvInput(theta_sq=0.1))
    with pytest.raises(ValueError):
        density_from_stieltjes(FreeConvInput(theta_sq=0.1), 0.0, -1e-3)

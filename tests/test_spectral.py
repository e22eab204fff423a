import ctypes
import json
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.linalg import _umath_linalg
from scipy.integrate import quad
from scipy.linalg import _flapack

import rmtlab.spectral as spectral
from rmtlab.ensembles import (
    EnsembleSpec,
    SymmetricTridiagonal,
    _sample_upper,
    _symmetric_from_upper,
    _upper_mask,
    sample_goe,
    sample_goe_tridiagonal,
    sample_matrix,
)
from rmtlab.cli import main as cli_main
from rmtlab.errors import DegenerateSpectrumError, NumericalError
from rmtlab.rng import derive_stream, trial_map
from rmtlab.spectral import (
    DeformationSelector,
    bulk_indices,
    classical_location,
    eigenvalue_derivatives,
    eigenvalues_of,
    eigh,
    local_law_deviation,
    m_sc,
    rho_sc,
    semicircle_cdf,
    stieltjes_empirical,
)

# independently computed quantile of rho_sc at level 1/4 (quadrature + brentq)
GAMMA_QUARTER = -0.8079455065990347


def test_eigh_two_by_two_closed_form():
    dec = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert dec.eigenvalues == pytest.approx([-1.0, 1.0])
    s = 1.0 / np.sqrt(2.0)
    assert np.abs(dec.eigenvectors[:, 0]) == pytest.approx([s, s])
    assert np.abs(dec.eigenvectors[:, 1]) == pytest.approx([s, s])
    assert np.sign(dec.eigenvectors[0, 0]) != np.sign(dec.eigenvectors[1, 0])


def test_eigh_diagonal_permutation():
    dec = eigh(np.diag([3.0, 1.0, 2.0]))
    assert dec.eigenvalues == pytest.approx([1.0, 2.0, 3.0])
    assert np.abs(dec.eigenvectors) == pytest.approx(
        np.eye(3)[:, [1, 2, 0]], abs=1e-12
    )


def test_eigh_reconstruction_goe():
    a = sample_goe(100, derive_stream(1, 0))
    dec = eigh(a)
    recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
    assert np.abs(a - recon).max() <= 1e-10
    assert dec.residual <= 1e-9 * (1 + np.abs(dec.eigenvalues).max())


def test_eigh_rejects_asymmetric_and_nonfinite():
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        eigh(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def _dense(t):
    return np.diag(t.diag) + np.diag(t.offdiag, 1) + np.diag(t.offdiag, -1)


@pytest.mark.parametrize("window", [(0, 0), (29, 30), (10, 17), (58, 59), (0, 59)])
def test_windowed_eigenvalues_match_the_full_solve(window):
    lo, hi = window
    tri = sample_goe_tridiagonal(60, derive_stream(12, 1))
    for a in (sample_goe(60, derive_stream(12, 0)), tri, _dense(tri)):
        full = eigenvalues_of(a)
        part = eigenvalues_of(a, select=window)
        assert part.shape == (hi - lo + 1,)
        np.testing.assert_allclose(part, full[lo:hi + 1], rtol=0.0, atol=1e-12)
    # the banded and dense solves of one tridiagonal matrix agree too
    np.testing.assert_allclose(eigenvalues_of(tri), eigenvalues_of(_dense(tri)),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("window", [(-1, 2), (3, 2), (0, 60)])
def test_windowed_eigenvalues_reject_bad_windows(window):
    a = sample_goe(60, derive_stream(12, 0))
    for m in (a, sample_goe_tridiagonal(60, derive_stream(12, 1))):
        with pytest.raises(ValueError, match="select"):
            eigenvalues_of(m, select=window)


@st.composite
def dense_windows(draw):
    n = draw(st.integers(2, 64))
    kind = draw(st.sampled_from(("erdos_renyi", "sparse_generic", "goe")))
    h = sample_matrix(EnsembleSpec(n=n, kind=kind),
                      derive_stream(draw(st.integers(0, 2 ** 64 - 1)), 0))
    lo = draw(st.integers(0, n - 1))
    return h, (lo, draw(st.integers(lo, n - 1)))


def _scipy_window(h, window):
    return scipy.linalg.eigvalsh(h, subset_by_index=window)


@settings(max_examples=60, deadline=None)
@given(dense_windows())
def test_dense_windows_have_the_bytes_of_scipys_eigvalsh(case):
    h, window = case
    assert eigenvalues_of(h, select=window).tobytes() == _scipy_window(h, window).tobytes()


@pytest.mark.parametrize("n", [500, 1000])
def test_central_dense_windows_have_the_bytes_of_scipys_eigvalsh(n):
    window = (n // 2 - 1, n // 2)
    h = sample_matrix(EnsembleSpec(n=n, kind="erdos_renyi"), derive_stream(1729, n))
    assert eigenvalues_of(h, select=window).tobytes() == _scipy_window(h, window).tobytes()


def test_dense_windows_call_lapack_directly_on_the_wheels():
    # scipy's PyPI wheels export their OpenBLAS's dsyevr as scipy_dsyevr_
    assert spectral._dsyevr is not None


def test_dense_windows_fall_back_to_scipy_with_the_same_bytes(monkeypatch):
    values = _sample_upper(EnsembleSpec(n=80, kind="erdos_renyi"), derive_stream(5, 0))
    h = _symmetric_from_upper(80, values)
    direct = eigenvalues_of(h, select=(39, 40))
    monkeypatch.setattr(spectral, "_dsyevr", None)
    assert eigenvalues_of(h, select=(39, 40)).tobytes() == direct.tobytes()
    assert spectral._packed_window(80, values, (39, 40)).tobytes() == direct.tobytes()


def _lapack_must_not_run(*args):
    raise AssertionError("LAPACK was reached")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dense_window_rejects_non_finite_entries_before_lapack(monkeypatch, bad):
    monkeypatch.setattr(spectral, "_call_dsyevr", _lapack_must_not_run)
    h = sample_goe(10, derive_stream(6, 0))
    h[3, 7] = h[7, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        eigenvalues_of(h, select=(4, 5))
    with pytest.raises(ValueError, match="finite"):
        spectral._packed_window(10, h[_upper_mask(10)], (4, 5))


def test_dense_window_rejects_a_non_square_matrix_before_lapack(monkeypatch):
    monkeypatch.setattr(spectral, "_call_dsyevr", _lapack_must_not_run)
    with pytest.raises(ValueError, match="square"):
        eigenvalues_of(np.zeros((6, 5)), select=(0, 1))


def test_dense_window_lapack_failure_names_info_and_exits_3(monkeypatch, tmp_path, capsys):
    # a one-entry workspace is illegal argument 18 (lwork), so dsyevr sets info -18
    monkeypatch.setattr(spectral, "_dsyevr_workspace", lambda n: (1, 1))
    h = sample_goe(10, derive_stream(6, 0))
    with pytest.raises(NumericalError, match="info -18"):
        eigenvalues_of(h, select=(4, 5))
    config = tmp_path / "repulsion.json"
    config.write_text(json.dumps({"experiment": "repulsion", "trials": 2,
                                  "ensemble": {"n": 20, "kind": "erdos_renyi"},
                                  "stats": {"tau": 0.2}}))
    assert cli_main(["repulsion", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 3
    assert "info -18" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["erdos_renyi", "sparse_generic"])
def test_packed_windows_have_the_bytes_of_the_filled_matrix(kind):
    for n in (2, 37, 64):
        values = _sample_upper(EnsembleSpec(n=n, kind=kind), derive_stream(9, n))
        h = _symmetric_from_upper(n, values)
        for window in ((0, n - 1), (n // 2 - 1, n // 2), (n - 1, n - 1)):
            got = spectral._packed_window(n, values, window)
            assert got.tobytes() == _scipy_window(h, window).tobytes()


def test_pooled_windows_of_two_sizes_on_three_threads_equal_the_serial_loop():
    specs = [EnsembleSpec(n=40, kind="erdos_renyi"),
             EnsembleSpec(n=64, kind="sparse_generic")]

    def draw(k):
        spec = specs[k % 2]
        n = spec.n
        return n, _sample_upper(spec, derive_stream(8, k)), (n // 2 - 1, n // 2 + 2)

    def one(k):
        n, values, window = draw(k)
        dense = eigenvalues_of(_symmetric_from_upper(n, values), select=window)
        return dense.tobytes(), spectral._packed_window(n, values, window).tobytes()

    expect = []
    for k in range(24):
        n, values, window = draw(k)
        ref = _scipy_window(_symmetric_from_upper(n, values), window).tobytes()
        expect.append((ref, ref))
    # more threads than cores, switching often: two solves sharing one pooled
    # buffer would corrupt each other's window
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert trial_map(one, 24, threads=3) == expect
    finally:
        sys.setswitchinterval(interval)


def test_the_pool_still_solves_after_a_failed_solve(monkeypatch):
    values = _sample_upper(EnsembleSpec(n=10, kind="erdos_renyi"), derive_stream(6, 0))
    h = _symmetric_from_upper(10, values)
    monkeypatch.setattr(spectral, "_dsyevr_workspace", lambda n: (1, 1))
    for solve in (lambda: eigenvalues_of(h, select=(4, 5)),
                  lambda: spectral._packed_window(10, values, (4, 5))):
        with pytest.raises(NumericalError, match="info -18"):
            solve()
    monkeypatch.undo()
    ref = _scipy_window(h, (4, 5)).tobytes()
    assert eigenvalues_of(h, select=(4, 5)).tobytes() == ref
    assert spectral._packed_window(10, values, (4, 5)).tobytes() == ref


def test_tridiagonal_windows_call_lapack_directly_on_the_wheels():
    # scipy's PyPI wheels export their OpenBLAS's dstebz as scipy_dstebz_
    assert spectral._dstebz is not None


@st.composite
def tridiagonal_windows(draw):
    n = draw(st.integers(1, 64))
    band = st.floats(-1e3, 1e3)
    d = draw(hnp.arrays(np.float64, n, elements=band))
    e = draw(hnp.arrays(np.float64, n - 1, elements=band))
    lo = draw(st.integers(0, n - 1))
    return SymmetricTridiagonal(d, e), (lo, draw(st.integers(lo, n - 1)))


def _scipy_tridiagonal_window(t, window):
    return scipy.linalg.eigvalsh_tridiagonal(t.diag, t.offdiag, select="i",
                                             select_range=window)


@settings(max_examples=80, deadline=None)
@given(tridiagonal_windows())
def test_tridiagonal_windows_have_the_bytes_of_scipys_eigvalsh_tridiagonal(case):
    t, window = case
    expect = _scipy_tridiagonal_window(t, window)
    assert eigenvalues_of(t, select=window).tobytes() == expect.tobytes()


def test_tridiagonal_windows_fall_back_to_scipy_with_the_same_bytes(monkeypatch):
    t = sample_goe_tridiagonal(300, derive_stream(5, 0))
    direct = eigenvalues_of(t, select=(149, 150))
    monkeypatch.setattr(spectral, "_dstebz", None)
    assert eigenvalues_of(t, select=(149, 150)).tobytes() == direct.tobytes()
    assert direct.tobytes() == _scipy_tridiagonal_window(t, (149, 150)).tobytes()


@pytest.mark.parametrize("band", ["diag", "offdiag"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tridiagonal_window_rejects_non_finite_bands_before_lapack(monkeypatch, band, bad):
    monkeypatch.setattr(spectral, "_dstebz", _lapack_must_not_run)
    t = sample_goe_tridiagonal(10, derive_stream(6, 0))
    getattr(t, band)[3] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        eigenvalues_of(t, select=(4, 5))


@pytest.mark.parametrize("length", [8, 10])
def test_tridiagonal_window_rejects_a_wrong_offdiag_length_before_lapack(monkeypatch,
                                                                        length):
    monkeypatch.setattr(spectral, "_dstebz", _lapack_must_not_run)
    t = SymmetricTridiagonal(np.zeros(10), np.ones(length))
    with pytest.raises(ValueError, match="one more element"):
        eigenvalues_of(t, select=(4, 5))


def test_stieltjes_two_point():
    assert stieltjes_empirical(np.array([-1.0, 1.0]), 1j) == pytest.approx(0.5j)


def test_stieltjes_atom():
    assert stieltjes_empirical(np.zeros(5), 1j) == pytest.approx(1j)


def test_stieltjes_matches_semicircle_for_goe():
    lam = eigenvalues_of(sample_goe(2000, derive_stream(2, 0)))
    z = 0.5 + 0.05j
    assert abs(stieltjes_empirical(lam, z) - m_sc(z)) <= 0.05


def test_m_sc_golden_ratio_point():
    assert m_sc(1j) == pytest.approx(1j * (np.sqrt(5) - 1) / 2)


def test_m_sc_at_origin_boundary():
    assert m_sc(1e-300j) == pytest.approx(1j)


def test_m_sc_defining_equation_residual_on_grid():
    rng = derive_stream(3, 0)
    e = -5.0 + 10.0 * rng.uniform(10_000)
    eta = 10.0 * rng.uniform(10_000)
    z = e + 1j * eta
    m = m_sc(z)
    assert np.abs(m * m + z * m + 1.0).max() <= 1e-12


def test_m_sc_herglotz():
    rng = derive_stream(3, 1)
    z = (-4 + 8 * rng.uniform(1000)) + 1j * 5 * rng.uniform(1000)
    assert np.all(m_sc(z).imag > 0)


def test_m_sc_stability_inequality_sampled():
    rng = derive_stream(3, 2)
    z = (-4 + 8 * rng.uniform(2000)) + 1j * 3 * rng.uniform(2000)
    dz = rng.uniform(2000) * np.exp(1j * np.pi * rng.uniform(2000))
    lhs = np.abs(m_sc(z + dz) - m_sc(z))
    assert np.all(lhs <= 2.0 * np.sqrt(np.abs(dz)))


def test_rho_sc_values():
    assert rho_sc(0.0) == pytest.approx(1.0 / np.pi)
    assert rho_sc(2.0) == 0.0
    assert rho_sc(-3.0) == 0.0


def test_rho_sc_quadrature_mass():
    mass, err = quad(rho_sc, -2, 2, limit=200, epsabs=1e-13)
    assert err < 1e-8
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_classical_location_center_symmetry():
    n = 1000
    assert classical_location(n // 2 - 1, n) == pytest.approx(0.0, abs=1e-10)


def test_classical_location_quarter_quantile_oracle():
    assert classical_location(0, 4) == pytest.approx(GAMMA_QUARTER, abs=1e-9)


def test_classical_location_strictly_monotone():
    gamma = classical_location(np.arange(0, 199), 200)
    assert np.all(np.diff(gamma) > 0)
    # an index array gives each index the bits it gets alone
    assert gamma.tolist() == [classical_location(int(i), 200) for i in range(199)]


def test_classical_location_cdf_duality():
    n = 500
    idx = np.arange(0, n - 1)
    gamma = classical_location(idx, n)
    assert np.abs(semicircle_cdf(gamma) - (idx + 1) / n).max() <= 1e-9


def test_classical_location_flags_edge_index():
    with pytest.warns(UserWarning):
        edge = classical_location(499, 500)
    assert edge == pytest.approx(2.0, abs=1e-9)
    with pytest.warns(UserWarning):
        assert classical_location(np.array([0, 499]), 500)[1] == edge
    with pytest.raises(ValueError):
        classical_location(np.array([0, 500]), 500)


def test_bulk_indices_window():
    idx = bulk_indices(1000, 0.25)
    assert idx[0] == 249 and idx[-1] == 749


def test_local_law_coarse_resolution_forces_closeness():
    # integral bound: at eta = 10 any probability measure on [-3, 3] has
    # |m - m_sc| <= 0.4
    lam = np.linspace(-3, 3, 500)
    rep = local_law_deviation(lam, [0.0 + 10.0j, 1.0 + 10.0j], q=10.0)
    assert np.all(rep.deviation <= 0.4)
    assert rep.all_passed()


def test_local_law_goe_monte_carlo():
    n, trials = 1000, 50
    z = np.array([0.0 + 0.1j])
    hits = 0
    for k in range(trials):
        lam = eigenvalues_of(sample_goe(n, derive_stream(17, k)))
        rep = local_law_deviation(lam, z, q=np.sqrt(n))
        hits += int(rep.all_passed())
    assert hits >= 0.95 * trials


def test_local_law_sparse_monte_carlo():
    n, trials = 1000, 50
    spec = EnsembleSpec(n=n, kind="erdos_renyi", q_exponent=0.4)
    z = np.array([0.5 + 0.05j])
    hits = 0
    for k in range(trials):
        lam = eigenvalues_of(sample_matrix(spec, derive_stream(18, k)))
        rep = local_law_deviation(lam, z, q=spec.q)
        hits += int(rep.all_passed())
    assert hits >= 0.95 * trials


def test_stieltjes_positivity():
    lam = eigenvalues_of(sample_goe(100, derive_stream(18, 999)))
    rng = derive_stream(18, 1000)
    z = (-3 + 6 * rng.uniform(200)) + 1j * 10.0 ** (-3 + 4 * rng.uniform(200))
    assert np.all(stieltjes_empirical(lam, z).imag > 0)


def test_delocalization_flat_vector_exact():
    n = 64
    a = np.full((n, n), 1.0 / n)
    dec = eigh(a)
    top = np.abs(dec.eigenvectors[:, -1]) ** 2
    assert top == pytest.approx(np.full(n, 1.0 / n), abs=1e-12)


def test_eigenvalue_derivative_first_order_two_by_two():
    dec = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    val = eigenvalue_derivatives(dec, 1, DeformationSelector(0, 1), 1)
    assert val == pytest.approx(1.0)
    # Hellmann-Feynman: equals 2 u(a) u(b) read off the decomposition
    u = dec.eigenvectors[:, 1]
    assert val == pytest.approx(2 * u[0] * u[1])


def test_eigenvalue_derivative_second_order_two_by_two():
    dec = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert eigenvalue_derivatives(dec, 1, DeformationSelector(0, 1), 2) == (
        pytest.approx(0.0, abs=1e-14)
    )


def test_eigenvalue_derivative_second_order_sign():
    # diag(0, 1) perturbed at (0, 1): lambda_pm = (1 -+ sqrt(1+4e^2))/2, so
    # the second derivative is -2 for the bottom eigenvalue, +2 for the top
    dec = eigh(np.diag([0.0, 1.0]))
    assert eigenvalue_derivatives(dec, 0, DeformationSelector(0, 1), 2) == (
        pytest.approx(-2.0)
    )
    assert eigenvalue_derivatives(dec, 1, DeformationSelector(0, 1), 2) == (
        pytest.approx(2.0)
    )


def _well_spaced_matrix(n, stream):
    spacings = 0.02 + 0.02 * stream.uniform(n - 1)
    lam = np.concatenate([[0.0], np.cumsum(spacings)])
    lam -= lam.mean()
    q, _ = np.linalg.qr(stream.gaussian(0.0, 1.0, size=(n, n)))
    a = q @ np.diag(lam) @ q.T
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("order,eps,tol", [
    (1, 1e-6, 1e-6),
    (2, 5e-5, 1e-4),
    (3, 2.5e-4, 1e-2),
])
def test_eigenvalue_derivatives_match_finite_differences(order, eps, tol):
    a = _well_spaced_matrix(20, derive_stream(31, order))
    dec = eigh(a)
    rng = derive_stream(31, 10 + order)

    def lam_of(sel, e):
        b = a.copy()
        b[sel.a, sel.b] += e
        if sel.a != sel.b:
            b[sel.b, sel.a] += e
        return eigenvalues_of(b)

    for _ in range(25):
        i = int(rng.uniform() * 20)
        aa, bb = sorted((int(rng.uniform() * 20), int(rng.uniform() * 20)))
        sel = DeformationSelector(aa, bb)
        if order == 1:
            fd = (lam_of(sel, eps)[i] - lam_of(sel, -eps)[i]) / (2 * eps)
        elif order == 2:
            fd = (lam_of(sel, eps)[i] - 2 * dec.eigenvalues[i]
                  + lam_of(sel, -eps)[i]) / eps ** 2
        else:
            fd = (lam_of(sel, 2 * eps)[i] - 2 * lam_of(sel, eps)[i]
                  + 2 * lam_of(sel, -eps)[i] - lam_of(sel, -2 * eps)[i]) / (
                2 * eps ** 3
            )
        exact = eigenvalue_derivatives(dec, i, sel, order)
        assert abs(exact - fd) <= tol * max(abs(exact), abs(fd), 1e-12)


def test_eigenvalue_derivatives_degenerate_error_names_indices():
    dec = eigh(np.diag([1.0, 1.0, 2.0]))
    with pytest.raises(DegenerateSpectrumError) as err:
        eigenvalue_derivatives(dec, 0, DeformationSelector(0, 2), 1)
    assert 0 in err.value.indices and 1 in err.value.indices


def test_import_sets_both_openblas_libraries_to_one_thread():
    for module, getter in ((_umath_linalg, "scipy_openblas_get_num_threads64_"),
                           (_flapack, "scipy_openblas_get_num_threads")):
        get_num_threads = getattr(ctypes.CDLL(module.__file__), getter)
        get_num_threads.argtypes = []
        get_num_threads.restype = ctypes.c_int
        assert get_num_threads() == 1, getter


def test_blas_pin_warns_once_when_no_thread_setter_resolves(monkeypatch):
    monkeypatch.setattr(spectral.ctypes, "CDLL", lambda path: object())
    with pytest.warns(RuntimeWarning,
                      match="may then depend on the BLAS thread count") as record:
        spectral._pin_blas_to_one_thread()
    assert len(record) == 1
    assert "_umath_linalg" in str(record[0].message)
    assert "_flapack" in str(record[0].message)

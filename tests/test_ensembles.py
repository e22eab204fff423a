import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlab.ensembles import (
    EnsembleSpec,
    alternating_profile,
    sample_goe,
    sample_goe_tridiagonal,
    sample_matrix,
    upper_triangle,
)
from rmtlab.rng import RngStream, derive_stream
from rmtlab.spectral import eigenvalues_of
from rmtlab.statistics import bulk_gaps, ks_distance


def upper(h):
    return h[upper_triangle(h.shape[0])]


def pooled_abs_moments(samples, k, mean):
    """E|h_ij - mean|^k per upper entry over the samples, then pooled off the
    diagonal and on it."""
    iu = upper_triangle(samples[0].shape[0])
    per_entry = np.mean([np.abs(h[iu] - mean) ** k for h in samples], axis=0)
    off = iu[0] != iu[1]
    return float(per_entry[off].mean()), float(per_entry[~off].mean())


def test_erdos_renyi_centered_variance_is_one_over_n():
    # Var(h_ij) = gamma^2 (q^2/N)(1 - q^2/N)/q^2 = 1/N holds exactly in law;
    # the pooled Monte Carlo estimate must sit within 4 standard errors.
    spec = EnsembleSpec(n=1000, kind="erdos_renyi", q_exponent=0.4)
    b = upper(sample_matrix(spec, derive_stream(8, 0)) - spec.entry_mean)
    m2 = np.mean(b * b)
    m4 = np.mean(b ** 4)
    se = np.sqrt((m4 - m2 * m2) / b.size)
    assert abs(m2 - 1.0 / spec.n) <= 4 * se


def test_erdos_renyi_entry_mean_is_gamma_q_over_n():
    spec = EnsembleSpec(n=1000, kind="erdos_renyi", q_exponent=0.4)
    h = sample_matrix(spec, derive_stream(8, 1))
    x = upper(h)
    se = x.std() / np.sqrt(x.size)
    assert spec.rank_one_mean == spec.gamma * spec.q
    assert abs(x.mean() - spec.entry_mean) <= 4 * se


def test_erdos_renyi_third_moment_bound():
    # Monte Carlo check of E|b|^3 <= C^3/(N q) with C = 2 over 1e6 entries.
    spec = EnsembleSpec(n=1000, kind="erdos_renyi", q_exponent=0.4)
    samples = [
        sample_matrix(spec, derive_stream(8, 2 + k)) for k in range(2)
    ]
    off, diag = pooled_abs_moments(samples, 3, spec.entry_mean)
    assert max(off, diag) <= 8.0 / (1000 * spec.q)


def test_erdos_renyi_rejects_dense_boundary():
    with pytest.raises(ValueError, match="q\\^2"):
        EnsembleSpec(n=100, kind="erdos_renyi", q_exponent=0.5)


def test_goe_entry_variances():
    # Monte Carlo bands, 4 sigma: offdiag 0.1 +- 0.005, diag 0.2 +- 0.01 at N=10
    n, trials = 10, 100_000
    rng = derive_stream(13, 0)
    corner = np.array([sample_goe(n, rng)[0, :2] for _ in range(trials)])
    assert abs(corner[:, 1].var() - 0.1) <= 0.005  # entry (0, 1)
    assert abs(corner[:, 0].var() - 0.2) <= 0.01   # entry (0, 0)


def test_goe_matrix_is_exactly_symmetric_and_finite():
    h = sample_goe(200, derive_stream(13, 1))
    assert np.array_equal(h, h.T)
    assert np.all(np.isfinite(h))


def test_sparse_generic_uniform_profile_matches_centered_erdos_renyi():
    # With s_ij = 1/N and f = 0 the construction literally reduces to the
    # centered Erdos-Renyi entry law, bernoulli draw for bernoulli draw.
    er = EnsembleSpec(n=300, kind="erdos_renyi", q_exponent=0.4)
    sg = EnsembleSpec(n=300, kind="sparse_generic", q_exponent=0.4)
    b_er = sample_matrix(er, derive_stream(77, 5)) - er.entry_mean
    b_sg = sample_matrix(sg, derive_stream(77, 5))
    assert np.allclose(b_er, b_sg, rtol=0, atol=1e-15)


def test_sparse_generic_alternating_profile_variances():
    n = 100
    profile = alternating_profile(n, 0.8, 1.2)
    spec = EnsembleSpec(n=n, kind="sparse_generic", q_exponent=0.4,
                        profile=profile)
    iu = upper_triangle(n)
    lo_mask = profile[iu] < 1.0 / n
    acc = np.zeros(iu[0].size)
    trials = 400
    for k in range(trials):
        b = upper(sample_matrix(spec, derive_stream(99, k)))
        acc += b * b
    per_entry = acc / trials
    # pooled per class: >= 1e5 draws each, so 5% is comfortably 4 sigma
    assert np.mean(per_entry[lo_mask]) == pytest.approx(0.8 / n, rel=0.05)
    assert np.mean(per_entry[~lo_mask]) == pytest.approx(1.2 / n, rel=0.05)


def test_sparse_generic_mean():
    spec = EnsembleSpec(n=200, kind="sparse_generic", q_exponent=0.4, mean_f=0.5)
    vals = np.concatenate([
        upper(sample_matrix(spec, derive_stream(31, k))) for k in range(50)
    ])
    se = vals.std() / np.sqrt(vals.size)
    assert abs(vals.mean() - 0.5 / 200) <= 4 * se


def test_profile_bounds_enforced():
    n = 50
    bad = np.full((n, n), 100.0 / n)
    with pytest.raises(ValueError, match="profile"):
        EnsembleSpec(n=n, kind="sparse_generic", profile=bad)


def test_moment_report_second_moment_erdos_renyi():
    spec = EnsembleSpec(n=1000, kind="erdos_renyi", q_exponent=0.4)
    samples = [sample_matrix(spec, derive_stream(55, k)) for k in range(2)]
    off, _ = pooled_abs_moments(samples, 2, spec.entry_mean)
    assert off == pytest.approx(1.0 / 1000, rel=0.01)


def test_moment_report_goe_fourth_moment():
    # Gaussian fourth-moment oracle: E b^4 = 3 (1/N)^2 off the diagonal
    samples = [sample_goe(10, derive_stream(56, k)) for k in range(20_000)]
    off, _ = pooled_abs_moments(samples, 4, 0.0)
    assert off == pytest.approx(3.0 / 100, rel=0.10)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 120), seed=st.integers(0, 2 ** 64 - 1),
       index=st.integers(0, 2 ** 64 - 1))
def test_tridiagonal_goe_consumes_exactly_2n_minus_1_uniforms(n, seed, index):
    stream = RngStream(seed, index)
    t = sample_goe_tridiagonal(n, stream)
    assert t.shape == (n, n)
    assert t.diag.shape == (n,) and t.offdiag.shape == (n - 1,)
    assert np.all(np.isfinite(t.diag)) and np.all(t.offdiag > 0.0)
    fresh = RngStream(seed, index)
    fresh.uniform(2 * n - 1)
    assert np.array_equal(stream.uniform(4), fresh.uniform(4))


def dense_vs_tridiagonal_ks(n, trials, seed):
    """Two-sample KS distances between ``trials`` dense and ``trials``
    tridiagonal GOE spectra from disjoint streams: of the pooled eigenvalues,
    of the bulk gaps at kappa = 0.25, and of the central gap."""
    dense = [eigenvalues_of(sample_goe(n, derive_stream(seed, k)))
             for k in range(trials)]
    tri = [eigenvalues_of(sample_goe_tridiagonal(n, derive_stream(seed, trials + k)))
           for k in range(trials)]
    pooled = [np.concatenate(s) for s in (dense, tri)]
    gaps = [np.concatenate([bulk_gaps(lam, 0.25) for lam in s]) for s in (dense, tri)]
    c = n // 2 - 1
    central = [np.array([lam[c + 1] - lam[c] for lam in s]) for s in (dense, tri)]
    return ks_distance(*pooled), ks_distance(*gaps), ks_distance(*central)


# The central gaps are iid across trials: bound 1.949 sqrt(2/trials), the
# critical value at level 0.001.  Pooled eigenvalues and bulk gaps are
# correlated within a spectrum, which the iid value ignores; their pinned
# bounds are about 3x what a seed sweep gives, and chi degrees of freedom off
# by one already break both at n = 200.
def test_tridiagonal_goe_has_the_dense_goe_eigenvalue_law():
    trials = 1000
    pooled, gaps, central = dense_vs_tridiagonal_ks(200, trials, 31)
    assert pooled <= 0.0015
    assert gaps <= 0.008
    assert central <= 1.949 * np.sqrt(2.0 / trials)


def test_tridiagonal_goe_has_the_dense_goe_eigenvalue_law_at_n_1000():
    # The size of criteria 3 and 4, whose GOE spectra sample_spectra draws
    # tridiagonally.  Seeds 31-38 gave pooled 0.0005-0.0007 and bulk gaps
    # 0.004-0.009; a diagonal variance off by a factor of 2 gives gaps above
    # 0.03.  A chi degree of freedom off by one needs the n = 200 test.
    trials = 60
    pooled, gaps, central = dense_vs_tridiagonal_ks(1000, trials, 31)
    assert pooled <= 0.002
    assert gaps <= 0.02
    assert central <= 1.949 * np.sqrt(2.0 / trials)


def test_editing_the_callers_profile_leaves_the_samples_alone():
    n = 12
    profile = alternating_profile(n, 0.8, 1.2)
    spec = EnsembleSpec(n=n, kind="sparse_generic", profile=profile)
    want = sample_matrix(spec, derive_stream(11, 0)).tobytes()
    profile[0, 1] = profile[1, 0] = 100.0 / n  # outside the admissible bounds
    profile *= 1.5
    assert sample_matrix(spec, derive_stream(11, 0)).tobytes() == want
    with pytest.raises(ValueError):
        spec.profile[0, 0] = 1.0

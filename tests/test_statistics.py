import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlab import statistics
from rmtlab.ensembles import (
    EnsembleSpec,
    alternating_profile,
    sample_goe,
    sample_goe_tridiagonal,
    sample_matrix,
)
from rmtlab.flow import FlowParams
from rmtlab.rng import derive_stream
from rmtlab.spectral import bulk_indices, classical_location, eigenvalues_of, rho_sc
from rmtlab.statistics import (
    CutoffSpec,
    ObservableSpec,
    bulk_gaps,
    chi_m,
    chi_q_flow_comparison,
    correlation_average,
    green_trace_comparison,
    ks_distance,
    ks_distance_to_cdf,
    level_repulsion_probability,
    q_statistic,
    sample_spectra,
    wilson_interval,
)

# quadrature oracles for the integrals of the unit bump and of its square
# over its support
BUMP_INTEGRAL = 1.2069003224378743
BUMP_SQUARE_INTEGRAL = 0.9833808129127263

# Maxima of the first three derivatives of chi_M's unit-width quintic blend.
CHI_DERIVATIVE_BOUNDS = (1.512, 3.941, 36.0)


def classical_spectrum(n):
    """Every classical location of n, the top one (at the edge 2) included."""
    with pytest.warns(UserWarning, match="edge"):
        return classical_location(np.arange(n), n)


# -- empirical distributions and KS --------------------------------------


def test_empirical_distribution_validation():
    with pytest.raises(ValueError):
        ks_distance([], [1.0])
    with pytest.raises(ValueError):
        ks_distance_to_cdf([np.nan], lambda v: v)


def test_ks_identical_samples_is_zero():
    x = derive_stream(1, 0).uniform(500)
    assert ks_distance(x, x) == 0.0


def test_ks_disjoint_atoms_is_one():
    assert ks_distance([0.0], [1.0]) == 1.0


def test_ks_uniform_resample():
    a = derive_stream(1, 1).uniform(10_000)
    b = derive_stream(1, 2).uniform(10_000)
    assert ks_distance(a, b) <= 0.03


def test_ks_against_analytic_cdf():
    x = derive_stream(1, 3).uniform(20_000)
    assert ks_distance_to_cdf(x, lambda v: np.clip(v, 0, 1)) <= 0.015


# -- cutoff ----------------------------------------------------------------


def test_chi_identity_region():
    cut = CutoffSpec(m=10.0)
    assert chi_m(0.0, cut) == 0.0
    assert chi_m(5.0, cut) == 5.0
    assert chi_m(9.0, cut) == 9.0


def test_chi_saturation():
    cut = CutoffSpec(m=10.0)
    assert chi_m(15.0, cut) == 10.0
    assert chi_m(10.0, cut) == 10.0
    assert chi_m(np.inf, cut) == 10.0


def chi_derivatives(x, cut, h):
    """Central finite differences of orders 1, 2 and 3 of chi_m at x."""
    f = {k: chi_m(x + k * h, cut) for k in (-2, -1, 0, 1, 2)}
    return (
        (f[1] - f[-1]) / (2 * h),
        (f[1] - 2 * f[0] + f[-1]) / h ** 2,
        (f[2] - 2 * f[1] + 2 * f[-1] - f[-2]) / (2 * h ** 3),
    )


def test_chi_blend_endpoint_conditions():
    # the blend meets the identity at M-1 and the constant M at M with
    # matching values, slopes and vanishing second derivatives
    cut = CutoffSpec(m=7.0)
    assert chi_m(6.0, cut) == pytest.approx(6.0)
    assert chi_m(7.0, cut) == 7.0
    d1, d2, _ = chi_derivatives(np.array([6.0, 7.0]), cut, 1e-4)
    assert d1 == pytest.approx([1.0, 0.0], abs=1e-6)
    assert d2 == pytest.approx([0.0, 0.0], abs=1e-3)


def test_chi_stays_within_one_of_identity():
    cut = CutoffSpec(m=25.0)
    x = np.linspace(0.0, 25.0, 20_001)
    assert np.abs(chi_m(x, cut) - x).max() <= 1.0


def test_chi_is_monotone():
    cut = CutoffSpec(m=4.0)
    x = np.linspace(0.0, 6.0, 10_001)
    assert np.all(np.diff(chi_m(x, cut)) >= -1e-15)


def test_chi_derivative_bounds_match_audited_constants():
    # finite differences over the blend [M-1, M] at M = 3, the stencil kept
    # inside it; outside it chi' is 1 or 0 and the others vanish.  The third
    # derivative peaks at 36 as x tends to M, where the stencil cannot reach.
    cut, h = CutoffSpec(m=3.0), 1e-4
    x = np.linspace(2.0 + 2 * h, 3.0 - 2 * h, 20_001)
    peaks = [float(np.abs(d).max()) for d in chi_derivatives(x, cut, h)]
    assert all(p <= bound for p, bound in zip(peaks, CHI_DERIVATIVE_BOUNDS))
    assert peaks[:2] == pytest.approx(CHI_DERIVATIVE_BOUNDS[:2], abs=1e-3)
    assert peaks[2] >= 35.9
    # the first two derivatives meet the nominal bound of 10; the third
    # peaks at 36 for this unit-width quintic blend
    assert max(peaks[:2]) <= 10.0


def test_chi_derivatives_match_finite_differences():
    # the closed-form derivatives of the blend M-1+s+s^3(4-7s+3s^2), s = x-(M-1)
    cut = CutoffSpec(m=5.0)
    xs = np.linspace(4.05, 4.95, 19)
    s = xs - 4.0
    d1, d2, d3 = chi_derivatives(xs, cut, 1e-3)
    assert d1 == pytest.approx(1.0 + s * s * (12.0 - 28.0 * s + 15.0 * s * s), abs=1e-5)
    assert d2 == pytest.approx(s * (24.0 - 84.0 * s + 60.0 * s * s), abs=1e-4)
    assert d3 == pytest.approx(24.0 - 168.0 * s + 180.0 * s * s, abs=1e-3)


def test_chi_rejects_negative_and_bad_m():
    for bad in (-0.5, -np.inf, np.nan, np.array([1.0, np.nan]),
                np.array([np.inf, -np.inf])):
        with pytest.raises(ValueError, match="x >= 0"):
            chi_m(bad, CutoffSpec(m=3.0))
    with pytest.raises(ValueError):
        CutoffSpec(m=1.0)


# -- bulk gaps ---------------------------------------------------------------


def test_bulk_gaps_at_classical_locations_are_near_one():
    n = 2000
    gaps = bulk_gaps(classical_spectrum(n), kappa=0.25)
    assert np.abs(gaps - 1.0).max() <= 0.05


def test_bulk_gaps_nonnegative():
    lam = np.sort(derive_stream(2, 0).gaussian(0.0, 1.0, size=400))
    assert np.all(bulk_gaps(lam, 0.1) >= 0.0)


def test_bulk_gaps_rejects_a_window_without_a_gap():
    assert bulk_indices(9, 0.4667).size == 0
    with pytest.raises(ValueError, match=r"kappa = 0\.4667 .* n = 9"):
        bulk_gaps(np.linspace(-2.0, 2.0, 9), 0.4667)


def test_bulk_gaps_goe_mean_is_one():
    spectra = sample_spectra(EnsembleSpec(n=1000, kind="goe"), 100, 2, stream_base=10)
    mean_gap = np.concatenate([bulk_gaps(lam, 0.25) for lam in spectra]).mean()
    assert mean_gap == pytest.approx(1.0, abs=0.02)


# -- Q statistic --------------------------------------------------------------


def test_q_statistic_three_point_spectrum():
    lam = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0])
    assert q_statistic(lam, 1) == pytest.approx(2.0)


def test_q_statistic_two_point_spectrum():
    assert q_statistic(np.array([0.0, 1.0]), 0) == pytest.approx(0.25)


def test_q_statistic_equally_spaced_partial_sum_oracle():
    n, i = 2000, 999
    lam = np.arange(n) / n
    # enumeration oracle: Q_i = sum_{k=1}^{i} k^-2 + sum_{k=1}^{n-1-i} k^-2
    ks = np.arange(1, n)
    inv_sq = 1.0 / (ks * ks)
    oracle = inv_sq[:i].sum() + inv_sq[: n - 1 - i].sum()
    assert q_statistic(lam, i) == pytest.approx(oracle, rel=1e-12)
    assert abs(q_statistic(lam, i) - np.pi ** 2 / 3) <= 0.01


def test_q_statistic_degenerate_sentinel_and_chi():
    lam = np.array([0.0, 0.0, 1.0])
    assert q_statistic(lam, 0) == math.inf
    assert chi_m(q_statistic(lam, 0), CutoffSpec(m=9.0)) == 9.0


def test_q_statistic_lower_bound_from_min_gap():
    lam = eigenvalues_of(sample_goe(100, derive_stream(3, 0)))
    for i in (30, 50, 70):
        d = np.delete(lam - lam[i], i)
        assert q_statistic(lam, i) >= 1.0 / (100 ** 2 * np.min(d * d)) - 1e-15


# -- repulsion ----------------------------------------------------------------


def test_wilson_interval_contains_point_estimate():
    lo, hi = wilson_interval(10, 100)
    assert lo <= 0.1 <= hi
    assert wilson_interval(0, 50)[0] == pytest.approx(0.0, abs=1e-12)


def test_wilson_interval_rejects_successes_outside_the_trials():
    for successes in (-1, 11):
        with pytest.raises(ValueError, match=rf"successes={successes}, trials=10"):
            wilson_interval(successes, 10)
    assert wilson_interval(10, 10)[1] == pytest.approx(1.0)  # the bounds are valid


def test_level_repulsion_threshold_extremes():
    # GOE gaps are almost surely positive and far below 10, so the two
    # thresholds bracket the whole gap law
    spec = EnsembleSpec(n=40, kind="goe")
    wide = level_repulsion_probability(spec, 19, 30, seed=5, threshold=10.0)
    none = level_repulsion_probability(spec, 19, 30, seed=5, threshold=0.0)
    assert (wide.frequency, none.frequency) == (1.0, 0.0)


def test_level_repulsion_envelope_sparse():
    spec = EnsembleSpec(n=200, kind="erdos_renyi", q_exponent=0.4)
    est = level_repulsion_probability(spec, 99, 200, seed=5, tau=0.2)
    assert est.frequency <= 200 ** -0.1
    assert est.wilson_low <= est.frequency <= est.wilson_high


# -- observables ---------------------------------------------------------------


def gap_observable_mean(spec, obs, i, trials, seed, threads=1):
    """Monte Carlo E[obs(N rho_sc(gamma_i) (lambda_i - lambda_{i+1}))] and
    its standard error."""
    scale = spec.n * rho_sc(classical_location(i, spec.n))
    lam = sample_spectra(spec, trials, seed, threads=threads, select=(i, i + 1))
    vals = obs(scale * (lam[:, 0] - lam[:, 1]))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials))


def test_observable_bump_support_and_smoothness():
    obs = ObservableSpec(center=0.0, width=2.0)
    assert obs(np.array([2.0]))[0] == 0.0
    assert obs(np.array([0.0]))[0] == pytest.approx(1.0)
    assert obs(np.array([1.999999]))[0] <= 1e-10  # flat at the boundary


def test_gap_observable_same_law_different_seeds():
    spec = EnsembleSpec(n=300, kind="goe")
    obs = ObservableSpec(center=-1.0, width=2.0)
    a, a_se = gap_observable_mean(spec, obs, 149, 80, seed=7)
    b, b_se = gap_observable_mean(spec, obs, 149, 80, seed=8)
    assert abs(a - b) <= 3 * math.hypot(a_se, b_se)


def test_gap_observable_universality_sparse_vs_goe():
    # desk-scale single-gap universality: the expectations differ by at most
    # max(3 combined SE, 0.02)
    n, trials, threads = 1000, 300, 2
    obs = ObservableSpec(center=-1.0, width=2.0)
    sparse, sparse_se = gap_observable_mean(
        EnsembleSpec(n=n, kind="erdos_renyi", q_exponent=0.4), obs, n // 2 - 1,
        trials, seed=101, threads=threads,
    )
    goe, goe_se = gap_observable_mean(
        EnsembleSpec(n=n, kind="goe"), obs, n // 2 - 1, trials, seed=202,
        threads=threads,
    )
    tol = max(3 * math.hypot(sparse_se, goe_se), 0.02)
    assert abs(sparse - goe) <= tol


def test_correlation_average_unit_density_oracle():
    # spectra at the classical locations have unit local density in scaled
    # coordinates, so the sum over ordered distinct pairs,
    # (sum_i O(x_i))^2 - sum_i O(x_i)^2, equals (integral O)^2 - integral O^2
    n = 2000
    gamma = classical_spectrum(n)
    width = 3.0
    obs = ObservableSpec(center=0.0, width=width)
    est = correlation_average([gamma], 0.0, b=0.002, obs=obs)
    target = (width * BUMP_INTEGRAL) ** 2 - width * BUMP_SQUARE_INTEGRAL
    assert target == pytest.approx(10.159, abs=1e-3)
    assert est.value == pytest.approx(target, rel=0.02)


def test_correlation_average_rejects_bad_input():
    obs = ObservableSpec()
    with pytest.raises(ValueError, match="at least one spectrum"):
        correlation_average([], 0.0, 0.01, obs)
    with pytest.raises(ValueError, match="b must be positive"):
        correlation_average([np.zeros(3)], 0.0, 0.0, obs)
    with pytest.raises(ValueError, match="equal length"):
        correlation_average([np.zeros(3), np.zeros(4)], 0.0, 0.01, obs)
    with pytest.raises(ValueError, match="inside the bulk"):
        correlation_average([np.zeros(3)], 2.0, 0.01, obs)
    with pytest.raises(ValueError, match="width must be positive"):
        ObservableSpec(width=0.0)


def test_correlation_average_pair_estimator_runs():
    lam = [eigenvalues_of(sample_goe(400, derive_stream(9, k))) for k in range(4)]
    obs = ObservableSpec(center=0.0, width=4.0)
    est = correlation_average(lam, 0.0, b=400 ** -0.9, obs=obs)
    assert est.value > 0.0
    assert 0.0 < est.se < math.inf


# -- coupled comparisons --------------------------------------------------------


def flow(spec, t):
    """The flow that keeps ``spec``'s uniform-profile law stationary."""
    return FlowParams(n=spec.n, t=t, mean=spec.entry_mean)


def test_chi_q_flow_comparison_zero_time_is_exactly_zero():
    spec = EnsembleSpec(n=80, kind="erdos_renyi", q_exponent=0.4)
    cut = CutoffSpec.from_n_tau(80, 0.2)
    [cmp] = chi_q_flow_comparison(spec, [flow(spec, 0.0)], 39, cut, 20, seed=11)
    assert cmp.diff == 0.0
    assert cmp.e0 == cmp.et


def test_chi_q_flow_comparison_small_t_drift():
    spec = EnsembleSpec(n=60, kind="erdos_renyi", q_exponent=0.4)
    cut = CutoffSpec.from_n_tau(60, 0.2)
    [cmp] = chi_q_flow_comparison(spec, [flow(spec, 1e-4)], 29, cut, 60, seed=11)
    assert abs(cmp.diff) <= 5 * cmp.se + 0.05


def test_chi_q_flow_comparison_goe_is_stationary():
    # the GOE law is bulk-invariant under the flow (the diagonal variance
    # convention differs, but that is invisible to Q_i at this precision)
    spec = EnsembleSpec(n=150, kind="goe")
    cut = CutoffSpec.from_n_tau(150, 0.2)
    [cmp] = chi_q_flow_comparison(spec, [flow(spec, 0.5)], 74, cut, 200, seed=314)
    assert abs(cmp.diff) <= 3 * cmp.se


def test_green_trace_comparison_zero_time_is_exactly_zero():
    spec = EnsembleSpec(n=100, kind="erdos_renyi", q_exponent=0.4)
    z = [0.0 + 1j / 100, 0.5 + 1j / 120]
    [cmp] = green_trace_comparison(spec, [flow(spec, 0.0)], z, "im", 15, seed=12)
    assert np.all(cmp.diff == 0.0)


def test_green_trace_comparison_scaling_bound():
    n = 200
    spec = EnsembleSpec(n=n, kind="erdos_renyi", q_exponent=0.4)
    t = float(n) ** -0.9
    z = [0.0 + 1j / n]
    [cmp] = green_trace_comparison(spec, [flow(spec, t)], z, "im", 60, seed=12)
    assert abs(cmp.diff[0]) <= 3 * cmp.se[0] + 0.1 * t * n


def test_green_trace_comparison_shrinks_with_t():
    n = 150
    spec = EnsembleSpec(n=n, kind="erdos_renyi", q_exponent=0.4)
    z = [0.2 + 1j / n]
    small, large = green_trace_comparison(
        spec, [flow(spec, 1e-3), flow(spec, 1e-2)], z, "im", 80, seed=13)
    se = math.hypot(small.se[0], large.se[0])
    assert abs(small.diff[0]) <= abs(large.diff[0]) + 3 * se


def test_green_trace_comparison_window_validation():
    spec = EnsembleSpec(n=100, kind="erdos_renyi", q_exponent=0.4)
    with pytest.raises(ValueError):
        green_trace_comparison(spec, [flow(spec, 0.1)], [2.5 + 1j / 100], "im", 5, seed=1)
    with pytest.raises(ValueError):
        green_trace_comparison(spec, [flow(spec, 0.1)], [0.0 + 0.5j], "im", 5, seed=1)
    with pytest.raises(ValueError):
        green_trace_comparison(spec, [flow(spec, 0.1)], [0.0 + 1j / 100], "abs", 5, seed=1)


@pytest.mark.parametrize("flows, message", [
    ([FlowParams(n=40, t=0.1), FlowParams(n=41, t=0.1)], "does not match"),
    ([], "at least one flow"),
])
def test_coupled_comparisons_reject_mismatched_flow(flows, message, monkeypatch):
    samples = []
    sample = statistics.sample_matrix
    monkeypatch.setattr(statistics, "sample_matrix",
                        lambda *args: samples.append(args) or sample(*args))
    spec = EnsembleSpec(n=40, kind="goe")
    cut = CutoffSpec.from_n_tau(40, 0.2)
    with pytest.raises(ValueError, match=message):
        chi_q_flow_comparison(spec, flows, 19, cut, 3, seed=1)
    with pytest.raises(ValueError, match=message):
        green_trace_comparison(spec, flows, [0.0 + 1j / 40], "im", 3, seed=1)
    assert samples == []


def test_chi_q_flow_comparison_follows_the_flow_profile():
    # a profiled ensemble flowed under its own profile and under the uniform
    # one shares H_0 but not H_t
    n = 40
    spec = EnsembleSpec(n=n, kind="sparse_generic", q_exponent=0.4,
                        profile=alternating_profile(n, 0.2, 5.0))
    cut = CutoffSpec.from_n_tau(n, 0.2)
    own, uniform = chi_q_flow_comparison(
        spec, [FlowParams(n=n, t=0.5, profile=spec.profile), flow(spec, 0.5)],
        19, cut, 8, seed=2)
    assert own.e0 == uniform.e0
    assert own.et != uniform.et


def test_one_multi_flow_call_equals_one_flow_calls():
    spec = EnsembleSpec(n=60, kind="erdos_renyi", q_exponent=0.4)
    cut = CutoffSpec.from_n_tau(60, 0.2)
    flows = [flow(spec, t) for t in (0.0, 1e-3, 0.1)]
    zs = [0.0 + 1j / 60, 0.4 + 1j / 70]
    chi = chi_q_flow_comparison(spec, flows, 29, cut, 9, seed=5, stream_base=17,
                                threads=2)
    green = green_trace_comparison(spec, flows, zs, "re", 9, seed=5,
                                   stream_base=17, threads=2)
    assert len(chi) == len(green) == len(flows)
    for params, c, g in zip(flows, chi, green):
        [alone] = chi_q_flow_comparison(spec, [params], 29, cut, 9, seed=5,
                                        stream_base=17)
        assert vars(c) == vars(alone)
        [alone] = green_trace_comparison(spec, [params], zs, "re", 9, seed=5,
                                         stream_base=17)
        for field in ("z", "diff", "se"):
            assert getattr(g, field).tobytes() == getattr(alone, field).tobytes()


def counting(monkeypatch, name):
    """Count the calls of ``statistics.<name>``; returns the growing list."""
    calls = []
    original = getattr(statistics, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(statistics, name, counted)
    return calls


COUPLED = {
    "chi": lambda spec, flows, trials: chi_q_flow_comparison(
        spec, flows, spec.n // 2, CutoffSpec.from_n_tau(spec.n, 0.2), trials, seed=3),
    "green": lambda spec, flows, trials: green_trace_comparison(
        spec, flows, [0.0 + 1j / spec.n], "im", trials, seed=3),
}


@pytest.mark.parametrize("comparison", sorted(COUPLED))
def test_each_coupled_trial_samples_and_solves_h0_once(monkeypatch, comparison):
    # t = 0 goes through evolve and its own solve like every other time
    samples = counting(monkeypatch, "sample_matrix")
    solves = counting(monkeypatch, "eigenvalues_of")
    spec = EnsembleSpec(n=30, kind="erdos_renyi", q_exponent=0.4)
    flows = [flow(spec, t) for t in (0.0, 1e-4, 1e-2)]
    assert len(COUPLED[comparison](spec, flows, 5)) == len(flows)
    assert len(samples) == 5
    assert len(solves) == 5 * (1 + len(flows))


@pytest.mark.parametrize("i", [-1, 300])
def test_chi_q_flow_comparison_rejects_a_bad_index_before_sampling(monkeypatch, i):
    samples = counting(monkeypatch, "sample_matrix")
    spec = EnsembleSpec(n=300, kind="erdos_renyi", q_exponent=0.4)
    with pytest.raises(ValueError, match="outside spectrum"):
        chi_q_flow_comparison(spec, [flow(spec, 0.1)], i,
                              CutoffSpec.from_n_tau(300, 0.2), 40, seed=1)
    assert samples == []


@pytest.mark.parametrize("trials", [0, 1])
@pytest.mark.parametrize("comparison", sorted(COUPLED))
def test_coupled_comparisons_need_two_trials_before_sampling(monkeypatch,
                                                             comparison, trials):
    # one trial has no standard error
    samples = counting(monkeypatch, "sample_matrix")
    spec = EnsembleSpec(n=30, kind="erdos_renyi", q_exponent=0.4)
    with pytest.raises(ValueError, match="trials >= 2"):
        COUPLED[comparison](spec, [flow(spec, 0.1)], trials)
    assert samples == []


# -- the trial pipeline --------------------------------------------------------


_PIPELINE_SPECS = {
    "erdos_renyi": lambda n: EnsembleSpec(n=n, kind="erdos_renyi", q_exponent=0.4),
    "sparse_generic": lambda n: EnsembleSpec(
        n=n, kind="sparse_generic", q_exponent=0.4,
        profile=alternating_profile(n, 0.8, 1.2)),
    "goe": lambda n: EnsembleSpec(n=n, kind="goe"),
}


@pytest.mark.parametrize("kind", sorted(_PIPELINE_SPECS))
@settings(max_examples=8, deadline=None)
@given(n=st.integers(8, 40), trials=st.integers(1, 6),
       seed=st.integers(0, 2 ** 64 - 1), base=st.integers(0, 2 ** 40))
def test_sample_spectra_equals_the_serial_reference_loop(kind, n, trials, seed,
                                                         base):
    spec = _PIPELINE_SPECS[kind](n)
    if kind == "goe":
        def draw(stream):
            return sample_goe_tridiagonal(n, stream)
    else:
        def draw(stream):
            return sample_matrix(spec, stream)
    for select in (None, (n // 2 - 1, n // 2 + 1)):
        expect = np.array([
            eigenvalues_of(draw(derive_stream(seed, base + k)), select=select)
            for k in range(trials)
        ])
        for threads in (1, 3):
            got = sample_spectra(spec, trials, seed, stream_base=base,
                                 threads=threads, select=select)
            assert got.shape == (trials, n if select is None else 3)
            assert np.array_equal(got, expect)


@pytest.mark.parametrize("kind", sorted(_PIPELINE_SPECS))
@pytest.mark.parametrize("window", [(-1, 2), (3, 2), (0, 30)])
def test_sample_spectra_rejects_a_bad_window_before_sampling(monkeypatch, kind, window):
    streams = counting(monkeypatch, "derive_stream")
    with pytest.raises(ValueError, match="select"):
        sample_spectra(_PIPELINE_SPECS[kind](30), 4, 1, threads=2, select=window)
    assert streams == []


@settings(max_examples=4, deadline=None)
@given(kind=st.sampled_from(sorted(_PIPELINE_SPECS)), n=st.integers(8, 24),
       trials=st.integers(2, 5), seed=st.integers(0, 2 ** 64 - 1),
       t=st.floats(1e-4, 1.0))
def test_coupled_comparisons_do_not_depend_on_thread_count(kind, n, trials, seed, t):
    spec = _PIPELINE_SPECS[kind](n)
    flows = [FlowParams(n=n, t=time, profile=spec.profile, mean=spec.entry_mean)
             for time in (t, t / 2)]
    cut = CutoffSpec.from_n_tau(n, 0.2)
    zs = [0.0 + 1j / n, 0.3 + 1j / n]
    chi = [chi_q_flow_comparison(spec, flows, n // 2 - 1, cut, trials, seed,
                                 threads=threads)
           for threads in (1, 3)]
    green = [green_trace_comparison(spec, flows, zs, "im", trials, seed,
                                    threads=threads)
             for threads in (1, 3)]
    assert [vars(c) for c in chi[0]] == [vars(c) for c in chi[1]]
    for one, three in zip(*green):
        for field in ("z", "diff", "se"):
            assert getattr(one, field).tobytes() == getattr(three, field).tobytes()

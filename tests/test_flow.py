import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from rmtlab.ensembles import (EnsembleSpec, _sample_goe_upper, _sample_upper,
                              _symmetric_from_upper, _upper_mask, alternating_profile,
                              sample_matrix, upper_triangle)
from rmtlab.errors import InfeasibleDecompositionError
from rmtlab.flow import FlowParams, _evolve_upper, decompose_sample, evolve, theta_t
from rmtlab.rng import derive_stream, trial_map
from rmtlab.spectral import eigenvalues_of
from rmtlab.statistics import ks_distance


def upper(h):
    return h[upper_triangle(h.shape[0])]


def test_theta_t_zero_time():
    assert theta_t(0.0, 1.0) == 0.0


def test_theta_t_long_time_limit():
    assert theta_t(1e9, 1.0) == pytest.approx(np.sqrt(0.5))


def test_theta_t_small_time_series():
    # theta^2 = (t - t^2/(2r) + ...)/2, so sqrt(t/2) is accurate to O(t)
    t = 1e-8
    assert theta_t(t, 1.0) == pytest.approx(np.sqrt(t / 2), rel=1e-6)


def test_theta_t_monotone_and_capped():
    ts = np.linspace(0, 20, 50)
    vals = [theta_t(t, 2.0) for t in ts]
    assert all(np.diff(vals) >= 0)
    assert vals[-1] <= np.sqrt(1.0)


def test_theta_t_validation():
    with pytest.raises(ValueError):
        theta_t(-1.0, 1.0)
    with pytest.raises(ValueError):
        theta_t(1.0, 0.0)


@pytest.mark.parametrize("t, r", [
    (float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0), (1.0, float("inf")),
])
def test_theta_t_rejects_a_non_finite_time_or_scale(t, r):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            theta_t(t, r)


def test_evolve_time_zero_is_identity():
    spec = EnsembleSpec(n=50, kind="erdos_renyi", q_exponent=0.4)
    h0 = sample_matrix(spec, derive_stream(1, 0))
    params = FlowParams(n=50, t=0.0, mean=spec.entry_mean)
    assert np.array_equal(evolve(h0, params, derive_stream(1, 1)), h0)


def test_evolve_at_time_zero_mirrors_the_upper_triangle():
    # a non-symmetric H_0 shows which triangle t = 0 reads; nothing is drawn
    n = 9
    h0 = derive_stream(1, 2).gaussian(0.0, 1.0, n * n).reshape(n, n)
    params = FlowParams(n=n, t=0.0)
    mirrored = _symmetric_from_upper(n, h0[_upper_mask(n)]).tobytes()
    rng = derive_stream(1, 3)
    assert evolve(h0, params, rng).tobytes() == mirrored
    assert rng.uniform(4).tobytes() == derive_stream(1, 3).uniform(4).tobytes()
    assert decompose_sample(h0, params, derive_stream(1, 4)).h_t1.tobytes() == mirrored


def test_evolve_rejects_negative_time():
    with pytest.raises(ValueError):
        FlowParams(n=10, t=-0.5)


@pytest.mark.parametrize("make, field, bad, good", [
    (lambda **kw: EnsembleSpec(kind="goe", **kw), "n", 2.5, np.int64(20)),
    (lambda **kw: EnsembleSpec(kind="goe", **kw), "n", True, np.int32(20)),
    (lambda **kw: FlowParams(t=0.1, **kw), "n", 2.5, np.int64(20)),
    (lambda **kw: FlowParams(t=0.1, **kw), "n", True, np.int32(20)),
    (lambda **kw: FlowParams(n=20, t=0.5, **kw), "mean", float("nan"), 0.5),
    (lambda **kw: FlowParams(n=20, t=0.5, **kw), "mean", float("inf"), 0.5),
], ids=["ensemble-n-float", "ensemble-n-bool", "flow-n-float", "flow-n-bool",
        "flow-mean-nan", "flow-mean-inf"])
def test_constructors_reject_a_malformed_dimension_or_mean(make, field, bad, good):
    rule = "an integer" if field == "n" else "finite"
    with pytest.raises(ValueError, match=f"^{field} must be {rule}, got"):
        make(**{field: bad})
    make(**{field: good})


def test_evolve_preserves_mean_and_variance():
    # stationarity of the entry law: E = f, Var = s_ij at every t (4 sigma)
    spec = EnsembleSpec(n=100, kind="erdos_renyi", q_exponent=0.4)
    f = spec.entry_mean
    for t, base in ((0.1, 100), (1.0, 5000)):
        params = FlowParams(n=100, t=t, mean=f)
        vals = []
        for k in range(60):
            h0 = sample_matrix(spec, derive_stream(2, base + 2 * k))
            ht = evolve(h0, params, derive_stream(2, base + 2 * k + 1))
            vals.append(upper(ht))
        x = np.concatenate(vals)
        c = x - f
        se_mean = x.std() / np.sqrt(x.size)
        assert abs(x.mean() - f) <= 4 * se_mean
        m2 = np.mean(c * c)
        se_var = np.sqrt((np.mean(c ** 4) - m2 * m2) / x.size)
        assert abs(m2 - 0.01) <= 4 * se_var


def test_evolve_entry_mean_and_variance_match_the_closed_form():
    # given H_0: E h_ij(t) = f + e^{-t/(2 n s_ij)} (h_ij(0) - f) and
    # Var h_ij(t) = s_ij (1 - e^{-t/(n s_ij)}); 400 flows of one H_0, pooled
    # over each profile value, within 4 standard errors
    n, t, trials = 30, 0.4, 400
    profile = alternating_profile(n, 0.8, 1.2)
    spec = EnsembleSpec(n=n, kind="sparse_generic", profile=profile, mean_f=0.5)
    params = FlowParams(n=n, t=t, profile=profile, mean=spec.entry_mean)
    h0 = sample_matrix(spec, derive_stream(14, 0))
    ht = np.stack([upper(evolve(h0, params, derive_stream(14, 1 + k))) for k in range(trials)])
    s, f = upper(profile), spec.entry_mean
    centered = ht - (f + np.exp(-t / (2 * n * s)) * (upper(h0) - f))
    for s_ij in np.unique(s):
        x = centered[:, s == s_ij]
        var = s_ij * -np.expm1(-t / (n * s_ij))
        assert abs(x.mean()) <= 4 * np.sqrt(var / x.size)
        assert abs(np.mean(x * x) - var) <= 4 * var * np.sqrt(2.0 / x.size)


# One-sample KS of 20100 packed n = 200 values against N(0, 1): 0.019 is the
# critical value at level 1e-6; seeds 0..1999 peaked at 0.0148 (GOE entries)
# and 0.0153 (evolve's noise, alternating profile, f = 0.5/n, t in [0.05, 5)).
_KS_BOUND = 0.019


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), t=st.floats(0.05, 5.0),
       mean_f=st.floats(0.0, 1.0), profiled=st.booleans())
def test_goe_entries_and_evolve_noise_standardise_to_the_normal_law(seed, t, mean_f, profiled):
    n = 200
    rows, cols = upper_triangle(n)
    goe_sd = np.sqrt(np.where(rows == cols, 2.0, 1.0) / n)
    goe = _sample_goe_upper(n, derive_stream(seed, 0)) / goe_sd
    profile = alternating_profile(n, 0.8, 1.2) if profiled else None
    spec = EnsembleSpec(n=n, kind="sparse_generic", profile=profile, mean_f=mean_f)
    params = FlowParams(n=n, t=t, profile=profile, mean=spec.entry_mean)
    h0 = _sample_upper(spec, derive_stream(seed, 1))
    ht = _evolve_upper(h0.copy(), params, derive_stream(seed, 2))
    s = 1.0 / n if profile is None else profile[rows, cols]
    decay, sd = np.exp(-t / (2 * n * s)), np.sqrt(s * -np.expm1(-t / (n * s)))
    noise = (ht - decay * h0 - (1.0 - decay) * spec.entry_mean) / sd
    for z in (goe, noise):
        assert kstest(z, "norm").statistic <= _KS_BOUND


def test_evolve_long_time_reaches_stationary_gaussian():
    # at t = 50 the decay factor is ~0, so entries are f + N(0, 1/n)
    n = 200
    spec = EnsembleSpec(n=n, kind="erdos_renyi", q_exponent=0.4)
    params = FlowParams(n=n, t=50.0, mean=spec.entry_mean)
    vals = []
    for k in range(10):
        h0 = sample_matrix(spec, derive_stream(3, 2 * k))
        vals.append(upper(evolve(h0, params, derive_stream(3, 2 * k + 1))))
    x = np.concatenate(vals) - spec.entry_mean
    assert x.size >= 100_000
    assert np.mean(x * x) == pytest.approx(1.0 / n, rel=0.02)


def test_evolve_semigroup_in_law():
    # evolve(evolve(., s), t) and evolve(., s + t) share first and second
    # entry moments within Monte Carlo error
    n, s, t = 100, 0.3, 0.4
    spec = EnsembleSpec(n=n, kind="erdos_renyi", q_exponent=0.4)
    f = spec.entry_mean
    two_step, one_step = [], []
    for k in range(100):
        h0 = sample_matrix(spec, derive_stream(4, 4 * k))
        a = evolve(h0, FlowParams(n=n, t=s, mean=f), derive_stream(4, 4 * k + 1))
        a = evolve(a, FlowParams(n=n, t=t, mean=f), derive_stream(4, 4 * k + 2))
        b = evolve(h0, FlowParams(n=n, t=s + t, mean=f), derive_stream(4, 4 * k + 3))
        two_step.append(upper(a))
        one_step.append(upper(b))
    x, y = np.concatenate(two_step), np.concatenate(one_step)
    se = np.hypot(x.std() / np.sqrt(x.size), y.std() / np.sqrt(y.size))
    assert abs(x.mean() - y.mean()) <= 4 * se
    vx, vy = np.var(x - f), np.var(y - f)
    se_v = np.hypot(vx, vy) * np.sqrt(2.0 / x.size)
    assert abs(vx - vy) <= 4 * se_v + 1e-12


def test_decompose_reconstruction_identity():
    spec = EnsembleSpec(n=80, kind="erdos_renyi", q_exponent=0.4)
    h0 = sample_matrix(spec, derive_stream(5, 0))
    params = FlowParams(n=80, t=0.7, mean=spec.entry_mean)
    fs = decompose_sample(h0, params, derive_stream(5, 1))
    assert np.abs(fs.h_t - (fs.h_t1 + fs.theta * fs.goe_part)).max() <= 1e-12
    assert fs.theta == pytest.approx(theta_t(0.7, params.r))


def test_decompose_time_zero():
    spec = EnsembleSpec(n=40, kind="erdos_renyi", q_exponent=0.4)
    h0 = sample_matrix(spec, derive_stream(5, 2))
    fs = decompose_sample(h0, FlowParams(n=40, t=0.0), derive_stream(5, 3))
    assert np.array_equal(fs.h_t1, h0)
    assert np.array_equal(fs.h_t, h0)
    assert fs.theta == 0.0


def test_decompose_matches_evolve_moments():
    # law equivalence of the two sampling routes: pooled entry mean and
    # variance agree within 4 combined standard errors
    n, t = 100, 0.5
    spec = EnsembleSpec(n=n, kind="erdos_renyi", q_exponent=0.4)
    f = spec.entry_mean
    params = FlowParams(n=n, t=t, mean=f)
    ev, de = [], []
    for k in range(400):
        h_e = evolve(
            sample_matrix(spec, derive_stream(6, 4 * k)),
            params, derive_stream(6, 4 * k + 1),
        )
        h_d = decompose_sample(
            sample_matrix(spec, derive_stream(6, 4 * k + 2)),
            params, derive_stream(6, 4 * k + 3),
        ).h_t
        ev.append(upper(h_e))
        de.append(upper(h_d))
    x, y = np.concatenate(ev), np.concatenate(de)
    se = np.hypot(x.std() / np.sqrt(x.size), y.std() / np.sqrt(y.size))
    assert abs(x.mean() - y.mean()) <= 4 * se
    cx, cy = x - f, y - f
    vx, vy = np.mean(cx * cx), np.mean(cy * cy)
    se_v = np.hypot(
        np.sqrt((np.mean(cx ** 4) - vx * vx) / x.size),
        np.sqrt((np.mean(cy ** 4) - vy * vy) / y.size),
    )
    assert abs(vx - vy) <= 4 * se_v


def test_decompose_matches_evolve_spectra():
    # Gaussian-divisibility consistency: the two sampling routes must give
    # the same spectral law, KS <= 0.02 over pooled N = 200 spectra
    n, t, trials = 200, 0.5, 200
    spec = EnsembleSpec(n=n, kind="erdos_renyi", q_exponent=0.4)
    params = FlowParams(n=n, t=t, mean=spec.entry_mean)
    ev, de = [], []
    for k in range(trials):
        h_e = evolve(
            sample_matrix(spec, derive_stream(7, 4 * k)),
            params, derive_stream(7, 4 * k + 1),
        )
        h_d = decompose_sample(
            sample_matrix(spec, derive_stream(7, 4 * k + 2)),
            params, derive_stream(7, 4 * k + 3),
        ).h_t
        ev.append(eigenvalues_of(h_e))
        de.append(eigenvalues_of(h_d))
    ks = ks_distance(np.concatenate(ev), np.concatenate(de))
    assert ks <= 0.02


def test_flow_params_profile_r():
    n = 10
    profile = np.full((n, n), 2.0 / n)
    profile[0, 1] = profile[1, 0] = 0.5 / n
    params = FlowParams(n=n, t=1.0, profile=profile)
    assert params.r == pytest.approx(0.5)


def test_list_profile_samples_and_flows_like_the_array():
    n = 6
    profile = alternating_profile(n, 0.5, 2.0)
    outputs = []
    for given_profile in (profile, profile.tolist()):
        spec = EnsembleSpec(n=n, kind="sparse_generic", profile=given_profile)
        params = FlowParams(n=n, t=0.3, profile=given_profile)
        h0 = sample_matrix(spec, derive_stream(5, 0))
        outputs.append((h0, evolve(h0, params, derive_stream(5, 1)),
                        decompose_sample(h0, params, derive_stream(5, 2)).h_t))
    for from_array, from_list in zip(*outputs):
        assert np.array_equal(from_array, from_list)


def _scatter_fill(n, vals):
    rows, cols = np.triu_indices(n)
    out = np.empty((n, n))
    out[rows, cols] = vals
    out[cols, rows] = vals
    return out


def _ziggurat(seed, index):
    """numpy's ziggurat standard normals on the Philox key of stream
    (seed, index)."""
    return np.random.Generator(np.random.Philox(key=[seed, index])).standard_normal


def _fancy_index_kernel(h0, params, s, variance, normals):
    """The flow kernel as fancy-index gathers and scatters with a temporary
    per step, the formula the in-place kernel must reproduce bit for bit."""
    n = params.n
    rows, cols = np.triu_indices(n)
    decay = np.exp(-params.t / (2.0 * n * s))
    vals = decay * h0[rows, cols] + (1.0 - decay) * params.mean
    vals = vals + np.sqrt(variance) * normals(rows.size)
    return _scatter_fill(n, vals)


def _fancy_index_flow(h0, params, normals):
    """(evolve, decompose_sample) outputs of the fancy-index formula; each
    path reads its own standard normals of ``normals``."""
    n, t = params.n, params.t
    rows, cols = np.triu_indices(n)
    s = 1.0 / n if params.profile is None else params.profile[rows, cols]
    evolved = (h0.copy() if t == 0 else
               _fancy_index_kernel(h0, params, s, s * -np.expm1(-t / (n * s)), normals[0]))
    r = float(n * np.min(s))
    w = np.where(rows == cols, 1.0, 0.5)
    resid = np.clip(s * -np.expm1(-t / (n * s)) - w * (r / n) * -np.expm1(-t / r), 0.0, None)
    h1 = _fancy_index_kernel(h0, params, s, resid, normals[1])
    if t == 0:
        h1 = h0.copy()
    theta = theta_t(t, r)
    goe = _scatter_fill(n, np.sqrt((2.0 / n) * w) * normals[1](rows.size))
    return evolved, (h1 + theta * goe, h1, goe, theta)


@pytest.mark.parametrize("t", [0.0, 0.5])
@pytest.mark.parametrize("spec", [
    EnsembleSpec(n=37, kind="erdos_renyi", q_exponent=0.4),
    EnsembleSpec(n=37, kind="sparse_generic", profile=alternating_profile(37, 0.8, 1.2),
                 mean_f=0.5),
], ids=["erdos_renyi", "sparse_generic-alternating"])
def test_in_place_flow_gives_the_bytes_of_the_fancy_index_formula(spec, t):
    params = FlowParams(n=spec.n, t=t, profile=spec.profile, mean=spec.entry_mean)
    h0 = sample_matrix(spec, derive_stream(6, 0))
    evolved, (h_t, h1, goe, theta) = _fancy_index_flow(
        h0, params, (_ziggurat(6, 1), _ziggurat(6, 2)))
    assert evolve(h0, params, derive_stream(6, 1)).tobytes() == evolved.tobytes()
    fs = decompose_sample(h0, params, derive_stream(6, 2))
    assert fs.theta == theta
    for got, want in ((fs.h_t, h_t), (fs.h_t1, h1), (fs.goe_part, goe)):
        assert got.tobytes() == want.tobytes()
    assert fs.h_t.tobytes() == (fs.h_t1 + fs.theta * fs.goe_part).tobytes()


def test_infeasible_split_raises_on_every_call(monkeypatch):
    # r above n min s_ij = 0.8 drives the residual variance of the 0.8/n
    # diagonal negative; the coefficient is never cached, so both calls raise
    n = 12
    spec = EnsembleSpec(n=n, kind="sparse_generic", profile=alternating_profile(n, 0.8, 1.2))
    params = FlowParams(n=n, t=0.5, profile=spec.profile)
    h0 = sample_matrix(spec, derive_stream(8, 0))
    monkeypatch.setattr(FlowParams, "r", property(lambda self: 1.0))
    for _ in range(2):
        with pytest.raises(InfeasibleDecompositionError, match="negative residual variance"):
            decompose_sample(h0, params, derive_stream(8, 1))


def _flow_bytes(h0, params):
    fs = decompose_sample(h0, params, derive_stream(9, 2))
    return [evolve(h0, params, derive_stream(9, 1)).tobytes(),
            fs.h_t.tobytes(), fs.h_t1.tobytes(), fs.goe_part.tobytes()]


def test_editing_the_callers_profile_leaves_the_flow_bytes_alone():
    n = 12
    profile = alternating_profile(n, 0.8, 1.2)
    spec = EnsembleSpec(n=n, kind="sparse_generic", profile=profile.copy())
    h0 = sample_matrix(spec, derive_stream(9, 0))
    want = _flow_bytes(h0, FlowParams(n=n, t=0.4, profile=profile.copy()))
    params = FlowParams(n=n, t=0.4, profile=profile)
    profile[0, 1] = profile[1, 0] = 0.5 / n  # before any coefficient is computed
    assert _flow_bytes(h0, params) == want
    profile *= 1.5  # after they are computed
    assert _flow_bytes(h0, params) == want
    with pytest.raises(ValueError):
        params.profile[0, 0] = 1.0


def test_threads_reaching_a_fresh_params_at_once_see_its_one_set_of_coefficients():
    # eight threads on two cores first touch the lazily computed coefficients
    # together, with the interpreter switching threads as often as it can
    n = 30
    spec = EnsembleSpec(n=n, kind="sparse_generic", profile=alternating_profile(n, 0.8, 1.2))

    def run(threads):
        params = FlowParams(n=n, t=0.3, profile=spec.profile)

        def one(k):
            h0 = sample_matrix(spec, derive_stream(10, 3 * k))
            fs = decompose_sample(h0, params, derive_stream(10, 3 * k + 1))
            return evolve(h0, params, derive_stream(10, 3 * k + 2)).tobytes() + fs.h_t.tobytes()

        return trial_map(one, 32, threads)

    want = run(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run(8)
    finally:
        sys.setswitchinterval(interval)
    assert got == want

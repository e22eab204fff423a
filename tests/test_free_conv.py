import warnings
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rmtlab.free_conv as free_conv
from rmtlab.ensembles import (EnsembleSpec, _symmetric_from_upper, sample_goe, sample_matrix,
                              upper_triangle)
from rmtlab.errors import AccuracyError, BranchError, FixedPointError
from rmtlab.experiments import ExperimentConfig, run
from rmtlab.free_conv import (
    MAX_FIXED_POINT,
    MAX_NEWTON,
    RESIDUAL_TOL,
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
    eigenvalues_of,
    m_sc,
)


def damped_oracle_m_t(z, inp, tol=RESIDUAL_TOL):
    """The law oracle: damped fixed-point steps from the semicircle
    initializer, then scalar Newton steps where damping stalls, one point at a
    time.  This is the solver solve_m_t ran before its guarded Newton steps;
    returns (m_t(z), Newton steps taken)."""
    lam, v = inp.eigenvalues, inp.theta_sq

    def m0(w):
        return m_sc(w) if lam is None else np.mean(1.0 / (lam - w))

    def m0_prime(w):
        if lam is None:
            m = m_sc(w)
            return m * m / (1.0 - m * m)
        return np.mean(1.0 / (lam - w) ** 2)

    def residual(m):
        return abs(m - m0(z + v * m))

    def branch_checked(m):
        if m.imag < 0:
            raise BranchError("solution drifted below the real axis")
        return m

    z = complex(z)
    if v == 0.0:
        return complex(m0(z)), 0
    m = complex(m_sc(z))
    for _ in range(MAX_FIXED_POINT):
        nxt = 0.5 * m + 0.5 * m0(z + v * m)
        if abs(nxt - m) < 0.25 * tol and residual(nxt) <= tol:
            return branch_checked(nxt), 0
        m = nxt
    if residual(m) <= tol:
        return branch_checked(m), 0
    steps = 0
    for _ in range(MAX_NEWTON):
        w = z + v * m
        f = m - m0(w)
        if abs(f) <= tol:
            return branch_checked(m), steps
        fp = 1.0 - v * m0_prime(w)
        if fp == 0:
            break
        m = m - f / fp
        steps += 1
        if m.imag < 0:
            raise BranchError("Newton iterate left the upper half plane")
    if residual(m) <= tol:
        return branch_checked(m), steps
    raise FixedPointError("no convergence", residual=residual(m))


def reference_solve_m_t(z, inp):
    """The block solver one point at a time: returns (m_t(z), the stage that
    certified it: "start", "halley", "guarded", "restarted", "damped" or
    "newton")."""
    lam, v, tol = inp.eigenvalues, inp.theta_sq, free_conv.RESIDUAL_TOL

    def moments(w, order=1):
        # m0 and its first order derivatives on one-element arrays, as the
        # block solver evaluates a lone point: the complex pass q = 1/(lam - w)
        # for m0 and m0' at theta^2 = 0 and on a short base, else real sums
        # over d = lam - x and r = 1/(d^2 + y^2) at w = x + iy
        w = np.array([w])
        if lam is None:
            m = m_sc(w)
            return m[0], (m * m / (1.0 - m * m))[0]
        n, y = lam.size, w.imag
        if v == 0.0 or n < free_conv.REAL_SUMS_MIN_N:
            q = 1.0 / (lam - w[:, None])
            return (q.sum(axis=-1) / n)[0], (np.einsum("ij,ij->i", q, q) / n)[0]
        d = lam - w.real[:, None]
        r = 1.0 / (d * d + (y * y)[:, None])
        dr = d * r
        s_d, s_r = dr.sum(axis=-1), r.sum(axis=-1)
        s_drr, s_rr = np.einsum("ij,ij->i", dr, r), np.einsum("ij,ij->i", r, r)
        m0 = (s_d + 1j * (y * s_r)) / n
        mp = ((s_r - 2.0 * y * y * s_rr) + 1j * (2.0 * y * s_drr)) / n
        if order == 1:
            return m0[0], mp[0]
        s_drrr, s_rrr = np.einsum("ij,ij->i", dr, r * r), np.einsum("ij,ij->i", r, r * r)
        mpp = (2.0 * (s_drr - 4.0 * y * y * s_drrr)
               + 1j * (2.0 * y * (3.0 * s_rr - 4.0 * y * y * s_rrr))) / n
        return m0[0], mp[0], mpp[0]

    def newton(m, f, fp):
        with np.errstate(all="ignore"):
            return m - (m - f) / (1.0 - v * fp)

    # numpy scalars: a complex quotient of two numpy values rounds as the block
    # solver's array arithmetic does, one of two Python complex values need
    # not; a product of two complex values is taken on one-element arrays,
    # since numpy's scalar product can round differently from its array one
    z = np.complex128(z)
    if v == 0.0:
        return complex(moments(z)[0]), "start"
    real_sums = lam is not None and lam.size >= free_conv.REAL_SUMS_MIN_N
    guarded = free_conv.MAX_GUARDED
    stages = (["halley" if real_sums else "guarded"] + ["guarded"] * (guarded - 1)
              + ["restarted"] * (1 + guarded)
              + ["damped"] * MAX_FIXED_POINT + ["newton"] * MAX_NEWTON)
    s = np.sqrt(1.0 + v)
    stage, m = "start", (m_sc(np.array([z]) / s) / s)[0]
    if real_sums:
        f, fp, fpp = moments(z + v * m, 2)
        # the slope that turns the first guarded step's Newton candidate into
        # the Halley step
        with np.errstate(all="ignore"):
            fp = (fp - 0.5 * v * (m - f) * np.array([fpp]) / (1.0 - v * fp))[0]
    else:
        f, fp = moments(z + v * m)
    for step in range(len(stages) + 1):
        if m.imag < 0:
            raise BranchError("Newton iterate left the upper half plane")
        res = abs(m - f)
        if res <= tol:
            return m, stage
        if step == len(stages):
            raise FixedPointError("no convergence", residual=res)
        stage = stages[step]
        if step == guarded:
            m = m_sc(np.array([z]))[0]
        elif stage in ("halley", "guarded", "restarted"):
            c = newton(m, f, fp)
            if np.isfinite(c) and c.imag > 0:
                fc, fpc = moments(z + v * c)
                if abs(c - fc) < res:
                    m, f, fp = c, fc, fpc
                    continue
            m = 0.5 * m + 0.5 * f
        elif stage == "damped":
            m = 0.5 * m + 0.5 * f
        else:
            c = newton(m, f, fp)
            m = c if np.isfinite(c) else m
        f, fp = moments(z + v * m)


def bits(values):
    return np.asarray(values, dtype=complex).tobytes()


# Base [-2.14, 0.06] at theta^2 = 1.449 and z = -4.076 + 1e-4i, near the
# lower edge of the deformed support: neither the guarded steps from either
# start nor the damped ones certify the point, and plain Newton steps finish it.
NEWTON_BASE, NEWTON_THETA_SQ, NEWTON_Z = [-2.14, 0.06], 1.449, -4.076 + 1e-4j

# Two values that each leave residual <= tol differ by at most
# 2 tol/|1 - theta^2 m0'(w)| to first order, so the law bound is that with
# LAW_C = 2.  The largest ratio |m - oracle| |1 - theta^2 m0'(w)| / tol seen
# was 1.49: 2100 random bases of 1-12 atoms (theta^2 in [1e-3, 2], eta in
# [1e-5, 1], seeds 0-6) and 24 ER (q = n^0.3) and GOE grids at n = 500 and
# 1000, theta^2 in {0.25, 4}.
LAW_C = 2.0


def assert_certified_and_law_equal(z, inp, got):
    """Every value has residual <= tol and Im >= 0, and lies within the law
    bound of the damped oracle."""
    f, fp = inp.m0(z + inp.theta_sq * got)
    assert np.all(got.imag >= 0)
    assert np.all(np.abs(got - f) <= RESIDUAL_TOL)
    oracle = np.array([damped_oracle_m_t(zk, inp)[0] for zk in z])
    slope = np.abs(1.0 - inp.theta_sq * fp)
    assert np.all(np.abs(got - oracle) * slope <= LAW_C * RESIDUAL_TOL)


@cache
def sample_spectrum(n, kind, seed=59):
    spec = EnsembleSpec(n=n, kind=kind, q_exponent=0.3) if kind == "erdos_renyi" \
        else EnsembleSpec(n=n, kind=kind)
    return eigenvalues_of(sample_matrix(spec, derive_stream(seed, n)))


def ndtri_goe_spectrum(n, stream):
    """Eigenvalues of a dense GOE matrix of ``RngStream.gaussian`` entries,
    one ``ndtri`` uniform each.  The pinned cases below were found on these
    bytes, which ``sample_goe``'s ziggurat normals no longer give."""
    rows, cols = upper_triangle(n)
    variance = (2.0 / n) * np.where(rows == cols, 1.0, 0.5)
    return eigenvalues_of(_symmetric_from_upper(n, stream.gaussian(0.0, variance, variance.size)))


# One point certified in each stage of the block loop.  The semicircle base
# starts at its exact law and certifies before any step, so every case has an
# eigenvalue base.  Only a base long enough for the real sums takes the Halley
# step, which certifies where the start is already close to the law: here
# outside the support of a 300-eigenvalue ER base.
STAGE_CASES = {
    "halley": (0.25, sample_spectrum(300, "erdos_renyi"), -3.0 + 1e-4j),
    "guarded": (NEWTON_THETA_SQ, NEWTON_BASE, 0.3 + 0.05j),
    "restarted": (NEWTON_THETA_SQ, NEWTON_BASE, -3.815 + 1e-5j),
    "damped": (NEWTON_THETA_SQ, NEWTON_BASE, -3.871 + 1e-5j),
    "newton": (NEWTON_THETA_SQ, NEWTON_BASE, NEWTON_Z),
}


@pytest.mark.parametrize("stage", sorted(STAGE_CASES))
def test_each_stage_certifies_its_case(stage):
    theta_sq, base, z = STAGE_CASES[stage]
    inp = FreeConvInput(theta_sq, eigenvalues=None if base is None else np.array(base))
    m, got = reference_solve_m_t(z, inp)
    assert got == stage
    assert bits([solve_m_t(z, inp)]) == bits([m])
    assert_certified_and_law_equal(np.array([z]), inp, np.array([m]))


@settings(max_examples=50, deadline=None)
@given(
    # None is the semicircle base, where the oracle iterates from m_sc(z)
    # while the solver starts at the exact law
    base=st.one_of(st.none(), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12)),
    theta_sq=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
    eta=st.floats(1e-5, 1.0),
    energies=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=40),
)
@example(base=NEWTON_BASE, theta_sq=NEWTON_THETA_SQ, eta=NEWTON_Z.imag,
         energies=[-1.0, NEWTON_Z.real, 2.0])
@example(base=None, theta_sq=1.0, eta=1e-4, energies=[-2.81, 0.3, 2.83])
def test_guarded_solver_has_the_damped_oracles_law(base, theta_sq, eta, energies):
    inp = FreeConvInput(theta_sq, eigenvalues=None if base is None else np.array(base))
    z = np.array([complex(e, eta) for e in energies])
    assert_certified_and_law_equal(z, inp, solve_m_t(z, inp))


@pytest.mark.parametrize("theta_sq", [0.25, 4.0])
@pytest.mark.parametrize("kind", ["erdos_renyi", "goe"])
@pytest.mark.parametrize("n", [500, 1000])
def test_guarded_solver_has_the_damped_oracles_law_on_sampled_spectra(n, kind, theta_sq):
    inp = FreeConvInput(theta_sq, eigenvalues=sample_spectrum(n, kind))
    lo, hi = inp.support_window()
    z = np.linspace(lo, hi, 201) + 1e-4j
    assert_certified_and_law_equal(z, inp, solve_m_t(z, inp))


@pytest.mark.parametrize("eta", [1e-6, 1e-4])
@pytest.mark.parametrize("theta_sq", [0.5, 4.0])
@pytest.mark.parametrize("kind", ["erdos_renyi", "goe"])
def test_guarded_newton_stays_in_the_upper_half_plane(kind, theta_sq, eta):
    # Unguarded Newton over a whole grid after damped steps reached
    # Im m = -0.105 at n = 1000; the guard accepts no iterate with Im m <= 0.
    # A point left unconverged would raise FixedPointError.
    inp = FreeConvInput(theta_sq, eigenvalues=sample_spectrum(1000, kind))
    lo, hi = inp.support_window()
    z = np.linspace(lo, hi, 2001) + 1j * eta
    m = solve_m_t(z, inp)
    assert np.all(m.imag >= 0)
    for k in range(0, z.size, 500):
        part = slice(k, k + 500)
        assert np.all(np.abs(m[part] - inp.m0(z[part] + theta_sq * m[part])[0])
                      <= RESIDUAL_TOL)


def counting_input(theta_sq, eigenvalues=None):
    """A FreeConvInput and the list of point counts of its evaluations: the
    m0 calls and the start's m0_jet calls."""
    calls = []

    class CountingInput(FreeConvInput):
        def m0(self, w):
            calls.append(w.size)
            return super().m0(w)

        def m0_jet(self, w):
            calls.append(w.size)
            return super().m0_jet(w)

    return CountingInput(theta_sq, eigenvalues=eigenvalues), calls


@pytest.mark.parametrize("eta", [1e-6, 1e-4, 0.1])
@pytest.mark.parametrize("theta_sq", [0.25, 1.0, 4.0])
def test_semicircle_base_certifies_at_its_start(theta_sq, eta):
    # the start m_sc(z/s)/s is the law on this base, so the evaluation that
    # certifies it is the only one
    inp, calls = counting_input(theta_sq)
    lo, hi = inp.support_window()
    z = np.linspace(lo, hi, 2001) + 1j * eta
    solve_m_t(z, inp)
    assert sum(calls) == z.size


def test_theta_aware_start_takes_few_evaluations_per_point():
    # From m_sc(z), which ignores theta^2, such a grid took 22.8 evaluations
    # per point on the derive_stream(1729, 1000) spectrum.  From m_sc(z/s)/s
    # the mean over 2001 points was at most 3.35 on the GOE n=1000 spectra of
    # derive_stream(seed, 1000), seeds 1-40, 59 and 1729.
    inp, calls = counting_input(4.0, sample_spectrum(1000, "goe"))
    lo, hi = inp.support_window()
    z = np.linspace(lo, hi, 2001) + 1e-6j
    solve_m_t(z, inp)
    assert sum(calls) / z.size <= 3.5


# Spectra whose 2001-point support grids at theta^2 4 and eta 1e-6 must each
# certify, with the mean m0 evaluations per point bounded per kind.  Measured:
# 4.61-4.92 on ER (q = n^0.3, n = 500) and 3.01-3.29 on GOE (n = 1000).
ROBUSTNESS_SWEEP = ([("erdos_renyi", 500, seed, 5.5) for seed in range(1, 11)]
                    + [("goe", 1000, seed, 3.5) for seed in (1, 2, 3, 14, 1729)])


@pytest.mark.parametrize("kind, n, seed, max_evals", ROBUSTNESS_SWEEP,
                         ids=[f"{k}-n{n}-seed{s}" for k, n, s, _ in ROBUSTNESS_SWEEP])
def test_sampled_support_grids_certify_at_large_theta_and_small_eta(kind, n, seed,
                                                                   max_evals):
    lam = sample_spectrum(n, kind, seed)
    inp, calls = counting_input(4.0, lam)
    lo, hi = inp.support_window()
    z = np.linspace(lo, hi, 2001) + 1e-6j
    m = solve_m_t(z, inp)
    assert sum(calls) / z.size <= max_evals
    assert np.all(m.imag >= 0)
    plain = FreeConvInput(4.0, eigenvalues=lam)
    for k in range(0, z.size, 500):
        part = slice(k, k + 500)
        assert np.all(np.abs(m[part] - plain.m0(z[part] + 4.0 * m[part])[0])
                      <= RESIDUAL_TOL)


def test_restart_certifies_a_point_the_first_start_leaves_past_the_fold():
    # Just inside the lower edge of this spectrum's deformed support the start
    # m_sc(z/s)/s lies past the fold of the law.  Without the restart at
    # m_sc(z), the guarded steps stalled there and a plain Newton step left
    # the upper half plane (BranchError).
    lam = ndtri_goe_spectrum(1000, derive_stream(14, 1000))
    inp = FreeConvInput(4.0, eigenvalues=lam)
    z = np.array([-4.470648162806048 + 1e-6j])
    assert reference_solve_m_t(z[0], inp)[1] == "restarted"
    assert_certified_and_law_equal(z, inp, solve_m_t(z, inp))


@settings(max_examples=40, deadline=None)
@given(
    base=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12),
    theta_sq=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
    eta=st.floats(1e-5, 1.0),
    energies=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=40),
    block_points=st.integers(1, 50),
)
@example(base=NEWTON_BASE, theta_sq=NEWTON_THETA_SQ, eta=NEWTON_Z.imag,
         energies=[-1.0, NEWTON_Z.real, 2.0], block_points=2)
# one atom: a one-point solve works on one-element arrays, which numpy can
# round differently from longer ones
@example(base=[-1.6], theta_sq=0.1, eta=1e-4, energies=[-1.0, -2.2, 2.0], block_points=2)
# a base long enough for the real sums
@example(base=list(sample_spectrum(300, "erdos_renyi")), theta_sq=0.25, eta=1e-4,
         energies=[-2.6, -2.0, -0.3, 0.0, 1.9, 2.6], block_points=2)
def test_block_solver_matches_the_point_solver_bit_for_bit(base, theta_sq, eta,
                                                           energies, block_points):
    inp = FreeConvInput(theta_sq, eigenvalues=np.array(base))
    z = np.array([complex(e, eta) for e in energies])
    expected = [reference_solve_m_t(zk, inp)[0] for zk in z]
    with pytest.MonkeyPatch.context() as mp:
        # blocks of block_points points, so that block edges fall inside z
        mp.setattr(free_conv, "BLOCK_BYTES", 16 * len(base) * block_points)
        got = solve_m_t(z, inp)
    assert bits(got) == bits(expected)
    assert bits([solve_m_t(zk, inp) for zk in z]) == bits(expected)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 700), points=st.integers(2, 140),
       theta_sq=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2 ** 32 - 1))
@example(n=500, points=131, theta_sq=0.5, seed=7)
@example(n=2, points=131, theta_sq=0.5, seed=7)
def test_m0_gives_each_point_of_a_block_the_bits_of_a_lone_call(n, points, theta_sq,
                                                                seed):
    # Every sum is a row reduction; a BLAS row sum such as r @ ones can add a
    # row of a block in another order than the same row alone.
    rng = np.random.default_rng(seed)
    inp = FreeConvInput(theta_sq, eigenvalues=rng.normal(size=n))
    w = rng.uniform(-3.0, 3.0, points) + 1j * 10.0 ** rng.uniform(-6.0, 0.0, points)
    # a solve evaluates m0_jet only at theta^2 > 0
    for evaluate in (inp.m0, inp.m0_jet) if theta_sq > 0 else (inp.m0,):
        block = evaluate(w)
        lone = [evaluate(w[k:k + 1]) for k in range(points)]
        for j, values in enumerate(block):
            assert bits(values) == bits([one[j][0] for one in lone])


def test_block_convergence_test_reads_the_modulus_of_one_value():
    # np.abs on a complex array can differ from abs() of one value in the last
    # bit, which could move a point's exit step by one iteration
    d = np.random.default_rng(5).normal(size=(20_000, 2)) @ np.array([1.0, 1j]) * 1e-13
    assert free_conv._modulus(d).tolist() == [abs(x) for x in d]


@settings(max_examples=5, deadline=None)
@given(theta_sq=st.floats(1e-3, 2.0), eta=st.floats(1e-5, 1.0),
       energies=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=20))
@example(theta_sq=1.0, eta=1e-4, energies=[-1.0, -2.81, 2.0])
def test_block_solver_on_the_semicircle_base_matches_the_point_solver(theta_sq, eta,
                                                                      energies):
    inp = FreeConvInput(theta_sq)
    z = np.array([complex(e, eta) for e in energies])
    assert bits(solve_m_t(z, inp)) == bits([reference_solve_m_t(zk, inp)[0] for zk in z])


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(0.05, 1.5), energies=st.lists(st.floats(-4.0, 4.0), min_size=1,
                                                     max_size=20),
       eta=st.floats(0.01, 1.0))
def test_semicircle_base_deforms_to_the_scaled_semicircle(theta, energies, eta):
    # semicircle (+) theta-semicircle is the semicircle of variance 1 + theta^2
    s = np.sqrt(1.0 + theta * theta)
    z = np.array([complex(e, eta) for e in energies])
    oracle = np.array([complex(m_sc(zk / s)) / s for zk in z])
    got = solve_m_t(z, FreeConvInput(theta * theta))
    assert np.max(np.abs(got - oracle)) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(0.05, 1.5), energies=st.lists(st.floats(-4.0, 4.0), min_size=1,
                                                     max_size=20),
       eta=st.floats(0.01, 1.0))
def test_atom_deforms_to_the_radius_two_theta_semicircle(theta, energies, eta):
    z = np.array([complex(e, eta) for e in energies])
    oracle = np.array([complex(m_sc(zk / theta)) / theta for zk in z])
    got = solve_m_t(z, FreeConvInput(theta * theta, eigenvalues=np.zeros(1)))
    assert np.max(np.abs(got - oracle)) <= 1e-8


def biane_density(lam, t, u):
    """Biane's eta = 0 law of the empirical measure of lam convolved with a
    semicircle of variance t: returns (psi_t(u), density at psi_t(u)).

    v_t(u) >= 0 solves mean(1/((u - lam)^2 + v^2)) = 1/t (bisection on
    [0, sqrt(t)], where the mean is at most 1/t), psi_t(u) = u +
    t mean((u - lam)/((u - lam)^2 + v^2)), and the density is v/(pi t).
    """
    d = u[:, None] - lam
    d2 = d * d
    lo, hi = np.zeros(u.size), np.full(u.size, np.sqrt(t))
    for _ in range(60):
        v = 0.5 * (lo + hi)
        above = np.mean(1.0 / (d2 + (v * v)[:, None]), axis=1) > 1.0 / t
        lo, hi = np.where(above, v, lo), np.where(above, hi, v)
    v = 0.5 * (lo + hi)
    return u + t * np.mean(d / (d2 + (v * v)[:, None]), axis=1), v / (np.pi * t)


# Largest deviation over ER n=500 spectra (derive_stream(seed, 500), seeds
# 1-30 and 59): 1.54e-5 at theta^2 = 0.25 and 3.19e-6 at 4, nearly the same
# at every seed, since it is the smoothing of inversion at eta = 1e-4.
@pytest.mark.parametrize("theta_sq, bound", [(0.25, 2e-5), (4.0, 5e-6)])
def test_density_profile_has_bianes_eta_zero_law_in_the_bulk(theta_sq, bound):
    lam = sample_spectrum(500, "erdos_renyi")
    psi, rho = biane_density(lam, theta_sq, np.linspace(-1.5, 1.5, 201))
    got = density_profile(FreeConvInput(theta_sq, eigenvalues=lam), psi, eta=1e-4)
    assert np.max(np.abs(got - rho)) <= bound


def reference_grid_solve(z, inp):
    """The per-point loop the grid callers ran before solve_m_t took arrays."""
    z = np.asarray(z)
    return np.array([reference_solve_m_t(zk, inp)[0] for zk in z.reshape(-1)]
                    ).reshape(z.shape)


@pytest.mark.parametrize("theta_sq", [0.25, 1.0])
@pytest.mark.parametrize("base", ["atom", "sample", "semicircle"])
def test_free_conv_artifacts_match_the_per_point_solver_byte_for_byte(tmp_path, monkeypatch,
                                                                     base, theta_sq):
    # The same config run twice in one process, so that the comparison holds
    # on any machine: once as it stands, once with the grid solve replaced by
    # the per-point reference.
    stats = {"theta_sq": theta_sq, "base": base, "grid_points": 201, "dev_points": 41}
    cfg = {"experiment": "free-conv", "seed": 5, "stats": stats}
    if base == "sample":
        cfg["ensemble"] = {"n": 100, "kind": "erdos_renyi", "q_exponent": 0.4}

    def artifacts(solver, out):
        monkeypatch.setattr(free_conv, "solve_m_t", solver)
        run(ExperimentConfig.from_dict({**cfg, "out_dir": str(out)}))
        return [(out / name).read_bytes() for name in ("density.csv", "deviation.csv")]

    assert artifacts(solve_m_t, tmp_path / "block") == \
        artifacts(reference_grid_solve, tmp_path / "point")


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
    z = np.array([0.0 + 0.01j, 1.2 + 0.001j, -1.9 + 0.05j])
    m = solve_m_t(z, inp)
    assert np.all(np.abs(m - inp.m0(z + 0.1 * m)[0]) <= 1e-12)


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
    indices = np.array([0, 100, 249])
    assert classical_location_t(indices, 500, inp).tolist() == [
        classical_location_t(int(i), 500, inp) for i in indices]


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
    lam = ndtri_goe_spectrum(200, derive_stream(11, 0))
    inp = FreeConvInput(theta_sq=0.25, eigenvalues=lam)
    assert classical_location_t(60, 200, inp, grid_points=801) == -0.7084750805217556
    # an index array reads every quantile off one density, with the same bits
    indices = np.array([0, 60, 199])
    got = classical_location_t(indices, 200, inp, grid_points=801)
    assert got.tolist() == [classical_location_t(int(i), 200, inp, grid_points=801)
                            for i in indices]
    with pytest.raises(ValueError):
        classical_location_t(np.array([0, 200]), 200, inp)


def test_classical_location_t_mass_deficit_error():
    # a huge inversion eta leaks mass far outside the support window
    inp = FreeConvInput(theta_sq=0.25)
    with pytest.raises(AccuracyError):
        classical_location_t(10, 100, inp, eta=1.0)


def test_deviation_report_classical_grid():
    # base = exact classical locations: the empirical transform is a
    # midpoint-quantile quadrature of the semicircle integral
    n = 2000
    gamma = classical_location(np.arange(n - 1), n)
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
        solve_m_t(np.array([0.1j, 1.0 - 0.1j]), FreeConvInput(theta_sq=0.1))
    with pytest.raises(ValueError):
        density_from_stieltjes(FreeConvInput(theta_sq=0.1), 0.0, -1e-3)
    with pytest.raises(ValueError):
        density_profile(FreeConvInput(theta_sq=0.1), [0.0], eta=0.0)


NON_FINITE = [complex(np.nan, 0.1), complex(0.1, np.nan), complex(np.inf, 0.1),
              complex(-np.inf, 0.1), complex(0.1, np.inf)]


@pytest.mark.parametrize("z", NON_FINITE, ids=str)
def test_non_finite_z_is_rejected_before_any_step(z):
    # no step is taken, so neither a RuntimeWarning nor FixedPointError
    inp = FreeConvInput(0.5, eigenvalues=np.array(NEWTON_BASE))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for points in (z, np.array([0.1j, z])):
            with pytest.raises(ValueError, match="finite"):
                solve_m_t(points, inp)


def test_grid_callers_reject_a_nan_energy_or_eta():
    inp = FreeConvInput(0.5, eigenvalues=np.array(NEWTON_BASE))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            density_profile(inp, [0.0, 1.0], eta=np.nan)
        with pytest.raises(ValueError, match="finite"):
            deviation_report(inp, np.array([0.0, np.nan]), eta=0.1)


def test_array_solve_raises_the_first_failing_points_error(monkeypatch):
    # tol = 0 cannot be certified at 0.3 + 0.05i or at 0.5 + 0.05i (at many
    # points it can: a Newton step may leave residual exactly 0, as it does at
    # NEWTON_Z), so both fail in the Newton stage, in one block, and the first
    # of them raises
    monkeypatch.setattr(free_conv, "RESIDUAL_TOL", 0.0)
    inp = FreeConvInput(NEWTON_THETA_SQ, eigenvalues=np.array(NEWTON_BASE))
    with pytest.raises(FixedPointError, match=r"z = \(0\.3\+0\.05j\)") as err:
        solve_m_t(np.array([0.3 + 0.05j, NEWTON_Z, 0.5 + 0.05j]), inp)
    assert err.value.residual > 0

import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from rmtlab.errors import DegenerateSpectrumError, NumericalError
from rmtlab.rng import RngStream, derive_stream, trial_map


def test_same_address_replays_identically():
    a = derive_stream(42, 0).uniform(1000)
    b = derive_stream(42, 0).uniform(1000)
    assert np.array_equal(a, b)


def test_distinct_stream_index_differs():
    a = derive_stream(42, 0).uniform(100)
    b = derive_stream(42, 1).uniform(100)
    assert not np.array_equal(a, b)


def test_distinct_master_seed_differs():
    a = derive_stream(42, 0).uniform(100)
    b = derive_stream(43, 0).uniform(100)
    assert not np.array_equal(a, b)


def test_gaussian_zero_variance_is_exact():
    s = derive_stream(7, 0)
    assert s.gaussian(3.5, 0.0) == 3.5
    assert np.all(s.gaussian(3.5, 0.0, size=10) == 3.5)


def test_gaussian_moments_standard():
    # 4-sigma bands: SE(mean) = 1e-3, SE(var) ~ sqrt(2)*1e-3
    x = derive_stream(11, 0).gaussian(0.0, 1.0, size=1_000_000)
    assert abs(x.mean()) <= 0.005
    assert abs(x.var() - 1.0) <= 0.01


def test_gaussian_moments_shifted():
    x = derive_stream(11, 1).gaussian(2.0, 4.0, size=1_000_000)
    assert abs(x.mean() - 2.0) <= 0.008


def test_gaussian_rejects_negative_variance():
    with pytest.raises(ValueError):
        derive_stream(0, 0).gaussian(0.0, -1.0)


@pytest.mark.parametrize("mean, variance", [
    (0.0, np.nan), (0.0, np.inf), (0.0, [1.0, np.nan]), (np.nan, 1.0), (-np.inf, 1.0),
], ids=["variance-nan", "variance-inf", "variance-array-nan", "mean-nan", "mean-inf"])
def test_gaussian_rejects_a_non_finite_mean_or_variance(mean, variance):
    with pytest.raises(ValueError, match="must be finite"):
        derive_stream(0, 0).gaussian(mean, variance, size=2)


def test_ziggurat_tail_beyond_the_base_strip_has_the_normal_law():
    # numpy's ziggurat draws |x| > r only through its tail branch.  Mass
    # 2 Phi(-r) ~ 2.6e-4 of 1e7 draws within 5 binomial sd; mean of |x| given
    # |x| > r, phi(r)/Phi(-r), within 5 standard errors.
    r, draws, chunk = 3.6541528853610088, 10_000_000, 1_000_000
    stream = derive_stream(13, 0)
    chunks = (np.abs(stream._standard_normal(chunk)) for _ in range(draws // chunk))
    tail = np.concatenate([x[x > r] for x in chunks])
    p = 2.0 * ndtr(-r)
    assert abs(tail.size - draws * p) <= 5 * np.sqrt(draws * p * (1 - p))
    hazard = np.exp(-0.5 * r * r) / np.sqrt(2 * np.pi) / ndtr(-r)
    sd = np.sqrt(1.0 + r * hazard - hazard * hazard)
    assert abs(tail.mean() - hazard) <= 5 * sd / np.sqrt(tail.size)


def test_bernoulli_endpoints_exact():
    s = derive_stream(3, 0)
    assert np.all(s.bernoulli(0.0, size=1000) == 0)
    assert np.all(s.bernoulli(1.0, size=1000) == 1)


def test_bernoulli_frequency():
    # binomial 4-sigma: 4*sqrt(0.3*0.7/1e6) = 0.00183
    x = derive_stream(5, 0).bernoulli(0.3, size=1_000_000)
    assert abs(x.mean() - 0.3) <= 0.002


def test_bernoulli_rejects_bad_prob():
    with pytest.raises(ValueError):
        derive_stream(0, 0).bernoulli(1.5)
    with pytest.raises(ValueError):
        derive_stream(0, 0).bernoulli(-0.1)


def test_uniforms_strictly_inside_unit_interval():
    u = derive_stream(9, 0).uniform(100_000)
    assert u.min() > 0.0 and u.max() < 1.0


def test_paired_streams_uncorrelated():
    n = 100_000
    for k in (1, 2, 17):
        a = derive_stream(123, 0).uniform(n)
        b = derive_stream(123, k).uniform(n)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 0.01


def test_seed_validation():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(0, 1 << 64)


def test_trial_map_order_and_thread_invariance():
    def work(k):
        return derive_stream(21, k).uniform(10).sum()

    seq = trial_map(work, 16, threads=1)
    par = trial_map(work, 16, threads=4)
    assert seq == par


def test_trial_map_attaches_trial_index():
    def work(k):
        if k == 3:
            raise ValueError("boom")
        return k

    with pytest.raises(ValueError, match="trial 3"):
        trial_map(work, 5)


@pytest.mark.parametrize("threads", [1, 3])
def test_trial_map_keeps_exception_payload(threads):
    def work(k):
        if k == 2:
            raise NumericalError("residual too large", residual=0.25)
        if k == 4:
            raise DegenerateSpectrumError("collision", indices=[7, 8])
        return k

    with pytest.raises(NumericalError, match="trial 2") as info:
        trial_map(work, 3, threads)
    assert info.value.residual == 0.25

    with pytest.raises(DegenerateSpectrumError, match="trial 4") as info:
        trial_map(lambda k: work(k) if k != 2 else k, 5, threads)
    assert info.value.indices == (7, 8)


def test_trial_map_reraises_the_original_exception_object():
    # CalledProcessError's constructor takes (returncode, cmd): rebuilding it
    # from a message would raise TypeError instead.
    original = subprocess.CalledProcessError(9, ["solver", "--fast"])

    def work(k):
        if k == 1:
            raise original
        return k

    with pytest.raises(subprocess.CalledProcessError) as info:
        trial_map(work, 3, threads=2)
    assert info.value is original
    assert info.value.returncode == 9
    assert info.value.cmd == ["solver", "--fast"]


@pytest.mark.parametrize("size", [None, 1, 1000])
def test_uniform_matches_the_offset_integer_formula(size):
    # the Philox keystream of the stream's address, read as 52-bit integers
    twin = np.random.Generator(np.random.Philox(key=np.array([5, 9], dtype=np.uint64)))
    stream = RngStream(5, 9)
    for _ in range(3):
        k = twin.integers(0, 1 << 52, size=size, dtype=np.int64)
        u = stream.uniform(size)
        assert np.asarray(u).tobytes() == np.asarray((k + 0.5) * 2.0 ** -52).tobytes()


@pytest.mark.parametrize("size", [None, 1, 1000])
@pytest.mark.parametrize("array_variance", [False, True])
def test_gaussian_matches_mean_plus_root_variance_times_ndtri(size, array_variance):
    variance = 0.7
    if array_variance:
        variance = np.array(1.5) if size is None else np.linspace(0.0, 3.0, size)
    stream, twin = RngStream(8, 2), RngStream(8, 2)
    for mean in (0.0, -1.25):
        x = stream.gaussian(mean, variance, size=size)
        ref = mean + np.sqrt(variance) * ndtri(twin.uniform(size))
        assert np.shape(x) == np.shape(ref)
        assert np.asarray(x).tobytes() == np.asarray(ref).tobytes()


_SIZES = st.one_of(st.none(), st.integers(0, 300),
                   st.tuples(st.integers(0, 12), st.integers(0, 12)))


@settings(max_examples=80, deadline=None)
@given(master_seed=st.integers(0, 2 ** 64 - 1), stream_index=st.integers(0, 2 ** 64 - 1),
       sizes=st.lists(_SIZES, min_size=1, max_size=4))
def test_uniform_from_raw_words_is_the_bounded_integer_draw(master_seed, stream_index, sizes):
    # integers(0, 2**52) never rejects a word, so it is the word's top 52 bits
    key = np.array([master_seed, stream_index], dtype=np.uint64)
    twin = np.random.Generator(np.random.Philox(key=key))
    stream = RngStream(master_seed, stream_index)
    for size in sizes:
        want = twin.integers(0, 1 << 52, size=size, dtype=np.int64) + 0.5
        want *= 2.0 ** -52
        got = stream.uniform(size)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

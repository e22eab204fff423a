"""Properties every sampler and flow output must have, for any input.

Exact symmetry, the t = 0 identity of the flow, and a fixed count of uniforms
per call: the count is what keeps stream addressing, and so every artifact,
independent of the values drawn.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlab.ensembles import KINDS, EnsembleSpec, alternating_profile, sample_matrix
from rmtlab.flow import FlowParams, decompose_sample, evolve
from rmtlab.rng import RngStream

SETTINGS = settings(max_examples=10, deadline=None)
SEED = st.integers(0, 2 ** 64 - 1)
TIME = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))


class CountingStream(RngStream):
    """RngStream that counts the uniforms it hands out; gaussian and
    bernoulli draws are made of uniforms, so they count too."""

    def __init__(self, master_seed, stream_index):
        super().__init__(master_seed, stream_index)
        self.drawn = 0

    def uniform(self, size=None):
        u = super().uniform(size)
        self.drawn += np.size(u)
        return u


@st.composite
def specs(draw):
    n = draw(st.integers(2, 30))
    kind = draw(st.sampled_from(KINDS))
    profile = None
    if kind == "sparse_generic" and draw(st.booleans()):
        profile = alternating_profile(n, 0.8, 1.2)
    return EnsembleSpec(n=n, kind=kind, profile=profile)


def flow_for(spec, t):
    return FlowParams(n=spec.n, t=t, profile=spec.profile, mean=spec.entry_mean)


def is_symmetric(h):
    return np.array_equal(h, h.T)


def upper_size(n):
    return n * (n + 1) // 2


@SETTINGS
@given(spec=specs(), seed=SEED)
def test_dense_samplers_are_symmetric_and_draw_one_uniform_per_upper_entry(spec, seed):
    stream = CountingStream(seed, 0)
    h = sample_matrix(spec, stream)
    assert h.shape == (spec.n, spec.n) and is_symmetric(h)
    assert stream.drawn == upper_size(spec.n)


@SETTINGS
@given(spec=specs(), seed=SEED, t=TIME)
def test_evolve_is_symmetric_draws_per_upper_entry_and_is_identity_at_t0(spec, seed, t):
    h0 = sample_matrix(spec, RngStream(seed, 0))
    stream = CountingStream(seed, 1)
    ht = evolve(h0, flow_for(spec, t), stream)
    assert is_symmetric(ht)
    if t == 0:
        assert ht.tobytes() == h0.tobytes()
        assert stream.drawn == 0
    else:
        assert stream.drawn == upper_size(spec.n)


@SETTINGS
@given(spec=specs(), seed=SEED, t=TIME)
def test_decompose_sample_is_symmetric_draws_twice_and_is_identity_at_t0(spec, seed, t):
    h0 = sample_matrix(spec, RngStream(seed, 0))
    stream = CountingStream(seed, 1)
    fs = decompose_sample(h0, flow_for(spec, t), stream)
    assert all(is_symmetric(h) for h in (fs.h_t, fs.h_t1, fs.goe_part))
    assert stream.drawn == 2 * upper_size(spec.n)
    if t == 0:
        assert fs.h_t.tobytes() == h0.tobytes()

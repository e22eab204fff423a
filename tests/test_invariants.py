"""Properties every sampler and flow output must have, for any input.

Exact symmetry, the t = 0 identity of the flow, and a fixed draw per call:
the sparse kinds take one uniform per upper-triangle entry, while the GOE
entries and the flow noise take one ziggurat standard normal each, after which
the stream sits exactly where numpy's ``standard_normal`` of that size leaves
a twin stream.  That position is what keeps stream addressing, and so every
artifact, independent of the values drawn.  ``decompose_sample``'s GOE part
reads the same stretch of the stream at every t.  The packed samplers and flow
give the dense upper triangle byte for byte and leave the stream where the
dense path does.  The uniform profile, held as the scalar 1/n, gives the bytes
of the explicit 1/n matrix, and the cached packed layout is never shared with
a caller.  The cached upper-triangle mask fills, gathers and lists the packed
order exactly as ``triu_indices`` does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlab.ensembles import (
    KINDS,
    EnsembleSpec,
    _sample_upper,
    _symmetric_from_upper,
    _upper_mask,
    alternating_profile,
    sample_matrix,
    upper_triangle,
)
from rmtlab.flow import FlowParams, _decompose_upper, _evolve_upper, decompose_sample, evolve
from rmtlab.rng import RngStream

SETTINGS = settings(max_examples=10, deadline=None)
SEED = st.integers(0, 2 ** 64 - 1)
TIME = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))


class CountingStream(RngStream):
    """RngStream that counts the uniforms and the ziggurat standard normals it
    hands out; gaussian and bernoulli draws are made of uniforms, so they
    count as uniforms."""

    def __init__(self, master_seed, stream_index):
        super().__init__(master_seed, stream_index)
        self.drawn = {"uniforms": 0, "normals": 0}
        normals = self._standard_normal

        def counted(size=None):
            z = normals(size)
            self.drawn["normals"] += np.size(z)
            return z

        self._standard_normal = counted

    def uniform(self, size=None):
        u = super().uniform(size)
        self.drawn["uniforms"] += np.size(u)
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


def draws(uniforms=0, normals=0):
    return {"uniforms": uniforms, "normals": normals}


def sample_draws(spec):
    """What one sample of ``spec`` draws: a ziggurat normal per GOE entry, a
    uniform per sparse entry."""
    m = upper_size(spec.n)
    return draws(normals=m) if spec.kind == "goe" else draws(uniforms=m)


def next_uniform(stream, skip=0):
    stream.uniform(skip)
    return stream.uniform()


def twin_after(seed, index, drawn):
    """A fresh stream (seed, index) moved past ``drawn``: its uniforms, then
    numpy's ziggurat ``standard_normal`` of its normals' size on its words."""
    twin = RngStream(seed, index)
    twin.uniform(drawn["uniforms"])
    np.random.Generator(twin._bits).standard_normal(drawn["normals"])
    return twin


def sits_after(stream, seed, index, drawn):
    return next_uniform(stream) == next_uniform(twin_after(seed, index, drawn))


@SETTINGS
@given(spec=specs(), seed=SEED)
def test_dense_samplers_are_symmetric_and_draw_one_value_per_upper_entry(spec, seed):
    stream = CountingStream(seed, 0)
    h = sample_matrix(spec, stream)
    assert h.shape == (spec.n, spec.n) and is_symmetric(h)
    assert stream.drawn == sample_draws(spec)
    assert sits_after(stream, seed, 0, sample_draws(spec))


@SETTINGS
@given(spec=specs(), seed=SEED, t=TIME)
def test_evolve_is_symmetric_draws_per_upper_entry_and_is_identity_at_t0(spec, seed, t):
    h0 = sample_matrix(spec, RngStream(seed, 0))
    stream = CountingStream(seed, 1)
    ht = evolve(h0, flow_for(spec, t), stream)
    assert is_symmetric(ht)
    drawn = draws(normals=0 if t == 0 else upper_size(spec.n))
    assert stream.drawn == drawn
    assert sits_after(stream, seed, 1, drawn)
    if t == 0:
        assert ht.tobytes() == h0.tobytes()


@SETTINGS
@given(spec=specs(), seed=SEED, t=TIME)
def test_decompose_sample_is_symmetric_draws_twice_and_is_identity_at_t0(spec, seed, t):
    h0 = sample_matrix(spec, RngStream(seed, 0))
    stream = CountingStream(seed, 1)
    fs = decompose_sample(h0, flow_for(spec, t), stream)
    assert all(is_symmetric(h) for h in (fs.h_t, fs.h_t1, fs.goe_part))
    drawn = draws(normals=2 * upper_size(spec.n))
    assert stream.drawn == drawn
    assert sits_after(stream, seed, 1, drawn)
    if t == 0:
        assert fs.h_t.tobytes() == h0.tobytes()


@SETTINGS
@given(spec=specs(), seed=SEED, t=st.floats(1e-6, 10.0))
def test_decompose_sample_reads_the_same_goe_part_at_t0_and_later(spec, seed, t):
    h0 = sample_matrix(spec, RngStream(seed, 0))
    parts = [decompose_sample(h0, flow_for(spec, time), RngStream(seed, 1)).goe_part
             for time in (0.0, t)]
    assert parts[0].tobytes() == parts[1].tobytes()


@st.composite
def packed_specs(draw):
    """ER, GOE, or sparse_generic with both a profile and a mean."""
    n = draw(st.integers(2, 30))
    kind = draw(st.sampled_from(KINDS))
    if kind != "sparse_generic":
        return EnsembleSpec(n=n, kind=kind)
    return EnsembleSpec(n=n, kind=kind, profile=alternating_profile(n, 0.8, 1.2),
                        mean_f=draw(st.floats(0.0, 1.0)))


@SETTINGS
@given(spec=packed_specs(), seed=SEED, t=st.floats(1e-6, 10.0))
def test_packed_sample_and_flow_are_the_dense_upper_triangle(spec, seed, t):
    n, mask = spec.n, _upper_mask(spec.n)
    dense_stream, packed_stream = RngStream(seed, 0), RngStream(seed, 0)
    h0 = sample_matrix(spec, dense_stream)
    x0 = _sample_upper(spec, packed_stream)
    assert x0.tobytes() == h0[mask].tobytes()
    after = next_uniform(twin_after(seed, 0, sample_draws(spec)))
    assert next_uniform(packed_stream) == next_uniform(dense_stream) == after
    for params in (flow_for(spec, 0.0), flow_for(spec, t)):
        legs = (
            (evolve, _evolve_upper, 0 if params.t == 0 else upper_size(n)),
            (lambda *a: decompose_sample(*a).h_t, _decompose_upper, 2 * upper_size(n)),
        )
        for dense, packed, normals in legs:
            dense_stream, packed_stream = RngStream(seed, 1), RngStream(seed, 1)
            want = dense(h0, params, dense_stream)[mask]
            assert packed(x0.copy(), params, packed_stream).tobytes() == want.tobytes()
            after = next_uniform(twin_after(seed, 1, draws(normals=normals)))
            assert next_uniform(packed_stream) == next_uniform(dense_stream) == after


@SETTINGS
@given(n=st.integers(2, 30), seed=SEED, t=TIME)
def test_uniform_profile_gives_the_bytes_of_the_explicit_one_over_n_profile(n, seed, t):
    outputs = []
    for profile in (None, np.full((n, n), 1.0 / n)):
        spec = EnsembleSpec(n=n, kind="sparse_generic", profile=profile)
        params = FlowParams(n=n, t=t, profile=profile, mean=spec.entry_mean)
        h0 = sample_matrix(spec, RngStream(seed, 0))
        ht = evolve(h0, params, RngStream(seed, 1))
        fs = decompose_sample(h0, params, RngStream(seed, 2))
        arrays = (h0, ht, fs.h_t, fs.h_t1, fs.goe_part)
        outputs.append(([a.tobytes() for a in arrays], fs.theta, params.r))
    assert outputs[0] == outputs[1]


@SETTINGS
@given(spec=specs(), seed=SEED)
def test_packed_layout_is_read_only_and_never_shared_with_a_draw(spec, seed):
    rows, cols = upper_triangle(spec.n)
    with pytest.raises(ValueError):
        rows[0] = 1
    with pytest.raises(ValueError):
        cols[-1] = 0
    h = sample_matrix(spec, RngStream(seed, 0))
    first = h.tobytes()
    h.fill(np.nan)
    assert sample_matrix(spec, RngStream(seed, 0)).tobytes() == first


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 64), seed=SEED)
def test_mask_fill_is_the_packed_scatter_exactly_symmetric_and_gathers_back(n, seed):
    # random 64-bit patterns: every float64 value, NaN and infinities included,
    # must be copied as is
    bits = np.random.default_rng(seed).integers(0, 2 ** 64, upper_size(n), dtype=np.uint64)
    values = bits.view(np.float64)
    rows, cols = np.triu_indices(n)
    scatter = np.empty((n, n))
    scatter[rows, cols] = values
    scatter[cols, rows] = values
    h = _symmetric_from_upper(n, values)
    assert h.tobytes() == scatter.tobytes()
    assert h.tobytes() == h.T.tobytes()
    assert h[_upper_mask(n)].tobytes() == values.tobytes()
    listed = upper_triangle(n)
    assert listed[0].tobytes() == rows.tobytes() and listed[1].tobytes() == cols.tobytes()
    with pytest.raises(ValueError):
        _upper_mask(n)[-1, 0] = True

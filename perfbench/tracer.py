"""Span tracer for the benchmark's traced run.

Tracing never edits rmtlab: ``Tracer.installed()`` rebinds the names that
rmtlab's modules (and the benchmark's ops) look up at call time, so that every
call into a layer's public functions runs inside a span, and restores every
binding on exit.  Random streams and free-convolution inputs are traced through
subclasses of ``RngStream`` and ``FreeConvInput`` that count as they go.

Spans are aggregated as they close rather than stored: per layer, the self
time (span time minus child spans); per span name, self and inclusive time and
a call count.  Inside a ``trial_map`` fan-out each trial's spans are weighted by
1/lanes (lanes = worker threads actually used), and the fan-out's own self time
is its wall time minus the lane-averaged trial time, i.e. the time lanes sat
idle.  With that weighting the self times of all layers add up to the wall time
of the traced op.
"""

import functools
import importlib
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name): every place a workload looks a layer
# function up.  Internal calls that matter are listed under the defining module
# (free_conv.solve_m_t is reached through density_profile and
# classical_location_t).
_FUNCTION_SITES = (
    ("rmtlab", "derive_stream", "rng.derive"),
    ("rmtlab.experiments", "derive_stream", "rng.derive"),
    ("rmtlab.statistics", "derive_stream", "rng.derive"),
    ("rmtlab.acceptance", "derive_stream", "rng.derive"),
    ("rmtlab.experiments", "trial_map", "rng.trial_map"),
    ("rmtlab.statistics", "trial_map", "rng.trial_map"),
    ("rmtlab.acceptance", "trial_map", "rng.trial_map"),
    ("rmtlab", "sample_matrix", "ensembles.sample"),
    ("rmtlab.experiments", "sample_matrix", "ensembles.sample"),
    ("rmtlab.statistics", "sample_matrix", "ensembles.sample"),
    ("rmtlab.acceptance", "sample_matrix", "ensembles.sample"),
    ("rmtlab.flow", "sample_goe", "ensembles.sample"),
    ("rmtlab.statistics", "evolve", "flow.evolve"),
    ("rmtlab.acceptance", "evolve", "flow.evolve"),
    ("rmtlab.acceptance", "decompose_sample", "flow.decompose"),
    ("rmtlab", "eigenvalues_of", "spectral.eig"),
    ("rmtlab.experiments", "eigenvalues_of", "spectral.eig"),
    ("rmtlab.statistics", "eigenvalues_of", "spectral.eig"),
    ("rmtlab.acceptance", "eigenvalues_of", "spectral.eig"),
    ("rmtlab.acceptance", "eigh", "spectral.eig"),
    ("rmtlab.free_conv", "solve_m_t", "free_conv.solve"),
    ("rmtlab.acceptance", "solve_m_t", "free_conv.solve"),
    ("rmtlab", "classical_location_t", "free_conv.quantile"),
    ("rmtlab.experiments", "density_on_support", "free_conv.density"),
    ("rmtlab.experiments", "deviation_report", "free_conv.deviation"),
    ("rmtlab.acceptance", "density_from_stieltjes", "free_conv.density"),
    ("rmtlab.experiments", "run", "experiments.run"),
)

# Classes whose instances must be the counting subclasses while tracing.
_CLASS_SITES = (
    ("rmtlab", "FreeConvInput"),
    ("rmtlab.experiments", "FreeConvInput"),
    ("rmtlab.acceptance", "FreeConvInput"),
)


class _Span:
    __slots__ = ("name", "layer", "weight", "child")

    def __init__(self, name, layer, weight):
        self.name = name
        self.layer = layer
        self.weight = weight
        self.child = 0.0


class Tracer:
    """Aggregated spans and counts for one traced phase; see module docstring."""

    def __init__(self):
        import rmtlab

        self._local = threading.local()
        self._lock = threading.Lock()
        self._rmtlab = rmtlab
        self.RngStream = _traced_stream_class(self, rmtlab.RngStream)
        self.FreeConvInput = _counting_input_class(self, rmtlab.FreeConvInput)
        self.reset()

    def reset(self):
        self.layer_self = defaultdict(float)
        self.name_self = defaultdict(float)
        self.name_incl = defaultdict(float)
        self.counts = Counter()
        self.computed = Counter()
        self.trial_s = 0.0
        self.lane_s = 0.0

    # -- spans ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, span, dur):
        with self._lock:
            self.layer_self[span.layer] += span.weight * (dur - span.child)
            self.name_self[span.name] += span.weight * (dur - span.child)
            self.name_incl[span.name] += span.weight * dur
            self.counts[span.name] += 1

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called ``<layer>.<what>``."""
        stack = self._stack()
        span = _Span(name, name.split(".", 1)[0], stack[-1].weight if stack else 1.0)
        stack.append(span)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1].child += dur
            self._close(span, dur)

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def add_computed(self, key, value):
        with self._lock:
            self.computed[key] += value

    def _wrap(self, fn, name):
        if name == "rng.derive":
            stream_cls = self.RngStream

            @functools.wraps(fn)
            def derive(master_seed, stream_index):
                # The program's own derive_stream still builds the stream;
                # only its class changes, so that its draws run in spans.
                stream = self.call(name, fn, master_seed, stream_index)
                stream.__class__ = stream_cls
                return stream

            return derive
        if name == "rng.trial_map":
            return self._wrap_trial_map(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if name == "ensembles.sample":
                self.add_computed("ensembles.bytes_filled", 8 * out.shape[0] ** 2)
            elif name == "spectral.eig":
                n = args[0].shape[0]
                self.add_computed("spectral.eig_flops", 4.0 / 3.0 * n ** 3)
            return out

        return traced

    def _wrap_trial_map(self, trial_map):
        @functools.wraps(trial_map)
        def traced(fn, n_trials, threads=1):
            stack = self._stack()
            parent = stack[-1] if stack else None
            weight = parent.weight if parent else 1.0
            # A trial's own code belongs to the layer that fanned it out.
            trial_layer = parent.layer if parent else "bench"
            lanes = max(1, min(int(threads), int(n_trials)))
            fan = _Span("rng.trial_map", "rng", weight)

            def trial(k):
                tstack = self._stack()
                span = _Span("trial", trial_layer, weight / lanes)
                tstack.append(span)
                t0 = perf_counter()
                try:
                    return fn(k)
                finally:
                    dur = perf_counter() - t0
                    tstack.pop()
                    with self._lock:
                        fan.child += dur / lanes
                        self.trial_s += dur
                    self._close(span, dur)

            stack.append(fan)
            t0 = perf_counter()
            try:
                return trial_map(trial, n_trials, threads)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child += dur
                with self._lock:
                    self.lane_s += dur * lanes
                self._close(fan, dur)

        return traced

    # -- rebinding --------------------------------------------------------

    def bindings(self):
        """(owner, attribute, traced value) for every rebinding site."""
        out = []
        for mod_name, attr, name in _FUNCTION_SITES:
            mod = importlib.import_module(mod_name)
            out.append((mod, attr, self._wrap(getattr(mod, attr), name)))
        # Statistics functions are reached as ``stats.<name>``, so every public
        # one is rebound on the statistics module itself.
        stats = self._rmtlab.statistics
        for attr in stats.__all__:
            fn = getattr(stats, attr)
            if callable(fn) and not isinstance(fn, type):
                out.append((stats, attr, self._wrap(fn, f"statistics.{attr}")))
        suite = self._rmtlab.acceptance.AcceptanceSuite
        for attr, fn in vars(suite).items():
            if attr.startswith("criterion_"):
                out.append((suite, attr, self._wrap(fn, f"acceptance.{attr}")))
        for mod_name, attr in _CLASS_SITES:
            out.append((importlib.import_module(mod_name), attr, self.FreeConvInput))
        return out

    @contextmanager
    def installed(self):
        """Rebind every site for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, value in self.bindings():
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, value)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _traced_stream_class(tracer, base):
    class TracedRngStream(base):
        """RngStream whose draws run in ``rng.draw`` spans and are counted."""

        def uniform(self, size=None):
            n = 1
            for d in (size if isinstance(size, tuple) else (size,)):
                n *= 1 if d is None else int(d)
            tracer.count("rng.values_drawn", n)
            return tracer.call("rng.draw", super().uniform, size)

        def gaussian(self, mean, variance, size=None):
            return tracer.call("rng.draw", super().gaussian, mean, variance, size)

        def bernoulli(self, prob, size=None):
            return tracer.call("rng.draw", super().bernoulli, prob, size)

    return TracedRngStream


def _counting_input_class(tracer, base):
    class CountingFreeConvInput(base):
        """FreeConvInput counting m0 evaluations and m0' (Newton) steps."""

        def m0(self, w):
            tracer.count("free_conv.m0_evals")
            return super().m0(w)

        def m0_prime(self, w):
            tracer.count("free_conv.newton_steps")
            return super().m0_prime(w)

    return CountingFreeConvInput

"""Acceptance suite: one test per criterion, each printing its PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  RMTLAB_ACCEPTANCE_SCALE (default 1.0) shrinks Monte Carlo trial
counts for smoke runs; tolerances never change.  The full suite takes a few
minutes.
"""

import itertools
import os
from types import SimpleNamespace

import pytest

from rmtlab import acceptance, ensembles, flow, statistics
from rmtlab.acceptance import DEFAULT_SEED, AcceptanceSuite

SCALE = float(os.environ.get("RMTLAB_ACCEPTANCE_SCALE", "1.0"))
THREADS = min(4, os.cpu_count() or 1)


@pytest.fixture(scope="module")
def suite():
    return AcceptanceSuite(seed=DEFAULT_SEED, threads=THREADS, scale=SCALE)


def _check(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_semicircle_law(suite):
    _check(suite.criterion_semicircle())


def test_criterion_02_local_law(suite):
    _check(suite.criterion_local_law())


def test_criterion_03_gap_universality(suite):
    _check(suite.criterion_gap_universality())


def test_criterion_04_correlation_average(suite):
    _check(suite.criterion_correlation_average())


def test_criterion_05_level_repulsion(suite):
    _check(suite.criterion_level_repulsion())


def test_criterion_06_flow_law_equivalence(suite):
    _check(suite.criterion_flow_law_equivalence())


def test_criterion_07_free_convolution(suite):
    _check(suite.criterion_free_convolution())


def test_criterion_08_perturbation_formulas(suite):
    _check(suite.criterion_perturbation_formulas())


def test_criterion_09_stability_inequality(suite):
    _check(suite.criterion_stability_inequality())


def test_criterion_10_flow_continuity(suite):
    _check(suite.criterion_flow_continuity())


def test_criterion_10_samples_each_h0_once_for_all_three_times(monkeypatch):
    passes, samples = [], []
    compare, sample = statistics.chi_q_flow_comparison, statistics.sample_matrix

    def counted_compare(spec, flows, *args, **kwargs):
        passes.append([params.t for params in flows])
        return compare(spec, flows, *args, **kwargs)

    def counted_sample(*args):
        samples.append(args)
        return sample(*args)

    monkeypatch.setattr(statistics, "chi_q_flow_comparison", counted_compare)
    monkeypatch.setattr(statistics, "sample_matrix", counted_sample)
    suite = AcceptanceSuite(seed=DEFAULT_SEED, threads=1, scale=0.01)
    result = suite.criterion_flow_continuity()
    assert passes == [[0.0, 1e-4, 1e-2]]
    assert len(samples) == result.details["trials"]


def test_criterion_6_fills_matrices_only_for_its_spectrum_pairs(monkeypatch):
    # Doubling the moment trials leaves the fill count alone: only the KS
    # spectrum pairs build dense matrices, exactly the two each eigensolves.
    fills = []
    fill = ensembles._symmetric_from_upper

    def counted_fill(n, values):
        fills.append(n)
        return fill(n, values)

    monkeypatch.setattr(ensembles, "_symmetric_from_upper", counted_fill)
    monkeypatch.setattr(flow, "_symmetric_from_upper", counted_fill)
    monkeypatch.setattr(acceptance, "_symmetric_from_upper", counted_fill)
    counts = {}
    for scale in (0.0004, 0.0008):
        suite = AcceptanceSuite(seed=DEFAULT_SEED, threads=1, scale=scale)
        fills.clear()
        suite.criterion_flow_law_equivalence()
        counts[suite._flow_law_trials()] = len(fills)
    assert list(counts) == [(4, 4), (8, 4)]
    assert counts[4, 4] == counts[8, 4] == 2 * 4


def test_a_criterion_over_its_runtime_budget_fails(monkeypatch):
    # Each clock reading is 1000 s after the last, past criterion 3's 900 s
    # budget; its KS gate is forced to pass, so only the budget can fail it.
    ticks = itertools.count(0.0, 1000.0)
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    monkeypatch.setattr(statistics, "ks_distance", lambda a, b: 0.0)
    suite = AcceptanceSuite(seed=DEFAULT_SEED, threads=1, scale=0.01)
    gaps = suite.criterion_gap_universality()
    assert gaps.details["runtime_ok"] is False
    assert gaps.passed is False
    stability = suite.criterion_stability_inequality()
    assert "runtime_ok" not in stability.details
    assert stability.passed is True


def test_criterion_11_determinism(suite):
    _check(suite.criterion_determinism())

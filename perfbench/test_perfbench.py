"""The benchmark's own tests: python3 -m pytest -q perfbench

Workloads run here at tiny sizes; the real sizes are the dataclass defaults.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import rmtlab  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "repulsion-n500": lambda: workloads.Repulsion(n=60, trials=4),
    "flow-n200": lambda: workloads.Flow(scale=0.0004),
    "freeconv-n500": lambda: workloads.FreeConv(n=200, grid_points=401),
}


def first_input(name, seed=7):
    return TINY[name]().inputs(workloads.input_rng(name, seed), 1)[0]


def bindings_snapshot():
    """Every name in every rmtlab module, plus AcceptanceSuite's methods."""
    mods = [m for k, m in sys.modules.items() if k == "rmtlab" or k.startswith("rmtlab.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap.update({("AcceptanceSuite", k): v
                 for k, v in vars(rmtlab.acceptance.AcceptanceSuite).items()})
    return snap


def traced_op(wl, inp, out_dir):
    tr = tracer.Tracer()
    with tr.installed():
        t0 = perf_counter()
        result = wl.op(inp, out_dir)
        elapsed = perf_counter() - t0
    return tr, result, elapsed


def test_workload_names_match_the_runner():
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES) == set(TINY)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOAD_NAMES)
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {m["name"] for m in bench["per_layer"]} == set(run.PER_LAYER)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_ops_pass_their_checks(name, tmp_path):
    wl = TINY[name]()
    for inp in wl.inputs(workloads.input_rng(name, 3), 2):
        wl.check(inp, wl.op(inp, tmp_path))


@pytest.mark.parametrize("name", sorted(TINY))
def test_tracing_preserves_outputs_and_restores_bindings(name, tmp_path):
    wl, inp = TINY[name](), first_input(name)
    plain = workloads.dumps(wl.op(inp, tmp_path))
    before = bindings_snapshot()
    tr, result, elapsed = traced_op(wl, inp, tmp_path)
    after = bindings_snapshot()
    assert workloads.dumps(result) == plain
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    # Weighted self times of all layers add up to the traced op time.
    assert 0.95 <= sum(tr.layer_self.values()) / elapsed <= 1.0 + 1e-9
    assert tr.counts["spectral.eig"] > 0
    reported = set(worker.layer_values(tr, wl, result, elapsed))
    assert reported | {"trace.overhead_ratio"} == set(run.PER_LAYER)


@pytest.mark.parametrize("name", sorted(TINY))
def test_exact_counts_repeat_between_traced_runs(name, tmp_path):
    wl, inp = TINY[name](), first_input(name)
    first, _, _ = traced_op(wl, inp, tmp_path)
    second, _, _ = traced_op(wl, inp, tmp_path)
    assert first.counts == second.counts
    assert first.computed == second.computed
    assert first.counts["rng.values_drawn"] > 0


def test_flow_layer_counts():
    wl, inp = TINY["flow-n200"](), first_input("flow-n200")
    tr, _, _ = traced_op(wl, inp, None)
    trials = 4 + 4  # moment trials plus KS spectrum pairs at scale 0.0004
    assert tr.counts["flow.evolve"] == tr.counts["flow.decompose"] == trials
    # Two ER samples per trial plus the GOE inside each decomposition.
    assert tr.counts["ensembles.sample"] == 3 * trials
    assert tr.counts["rng.derive"] == 4 * trials
    assert tr.computed["ensembles.bytes_filled"] == 3 * trials * 8 * 200 ** 2


def test_free_conv_counts_come_from_the_counting_input(tmp_path):
    wl, inp = TINY["freeconv-n500"](), first_input("freeconv-n500")
    tr, _, _ = traced_op(wl, inp, tmp_path)
    # density grid + deviation grid + the quantile's grid of the same size
    assert tr.counts["free_conv.solve"] == 401 + 81 + 401
    assert tr.counts["free_conv.m0_evals"] > 2 * tr.counts["free_conv.solve"]
    assert tr.counts["free_conv.quantile"] == 1


def test_seed_determines_inputs():
    for name in TINY:
        wl = TINY[name]()
        one = wl.inputs(workloads.input_rng(name, 1), 5)
        assert one == wl.inputs(workloads.input_rng(name, 1), 5)
        assert one != wl.inputs(workloads.input_rng(name, 2), 5)


def test_check_rejects_a_wrong_output(tmp_path):
    wl, inp = TINY["repulsion-n500"](), first_input("repulsion-n500")
    estimates = wl.op(inp, tmp_path)
    wrong = [type(e)(1.0, 0.5, 1.0, e.threshold, e.trials) for e in estimates]
    with pytest.raises(workloads.CheckFailed):
        wl.check(inp, wrong)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow-n200", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_time_metrics_come_from_the_fastest_window():
    def window(times, setup):
        return {"times": times, "cpus": [2 * t for t in times], "errors": [],
                "setup_s": setup, "peak_rss_mb": 100.0 + setup}

    parts = [window([2.0, 2.0], 1.0), window([1.0, 3.0, 1.0], 3.0),
             window([4.0], 2.0)]
    got = run.end_to_end(parts)
    assert got == {"ops_per_s": 0.6, "op_p50_s": 1.0, "cpu_s_per_op": 10 / 3,
                   "setup_s": 1.0, "peak_rss_mb": 102.0}

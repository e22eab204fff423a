"""One measuring process of the rmtlab benchmark; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--part J --parts P] [--trace]

Set-up is timed from the first line of this file: importing rmtlab with numpy
and scipy, generating the workload's inputs from --seed, and one untimed
warm-up op.  Untraced, the process then runs ops J, J+P, J+2P, ... of the
seed's op sequence in a closed loop for S seconds.  With --trace it alternates
untraced and traced runs of op 0 instead.  The last stdout line is one JSON
object of raw measurements; run.py aggregates them.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--part", type=int, default=0)
    p.add_argument("--parts", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    return p.parse_args(argv)


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_record():
    """Hardware and library versions; thread variables as found, never set."""
    import numpy
    import scipy

    def blas(mod):
        b = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{b['name']} {b['version']}"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "env": {k: os.environ.get(k, "unset") for k in THREAD_VARS},
    }


def run_op(wl, inp, out_dir, tracer=None):
    """(seconds, cpu seconds, result, error text or None) of one checked op.

    With a tracer, only the op itself runs traced; its check never does.
    """
    from workloads import CheckFailed

    with tracer.installed() if tracer else contextlib.nullcontext():
        c0, t0 = _cpu_s(), time.perf_counter()
        try:
            result = wl.op(inp, out_dir)
        except Exception:  # an op that raises is counted as failed, not fatal
            return (time.perf_counter() - t0, _cpu_s() - c0, None,
                    traceback.format_exc(limit=3))
        elapsed, cpu = time.perf_counter() - t0, _cpu_s() - c0
    try:
        wl.check(inp, result)
    except CheckFailed as exc:
        return elapsed, cpu, result, str(exc)
    return elapsed, cpu, result, None


def measure(wl, inputs, seconds, out_dir):
    """Closed loop over the inputs until `seconds` have passed."""
    out = {"times": [], "cpus": [], "errors": []}
    start = time.perf_counter()
    for inp in inputs:
        if out["times"] and time.perf_counter() - start >= seconds:
            break
        elapsed, cpu, _, error = run_op(wl, inp, out_dir)
        out["times"].append(elapsed)
        out["cpus"].append(cpu)
        if error:
            out["errors"].append(error)
    return out


def layer_values(tr, wl, result, op_s):
    """Per-layer metrics of one traced op of `op_s` seconds."""
    from workloads import artifact_bytes

    c = tr.counts
    solves = c["free_conv.solve"]
    eig_calls = c["spectral.eig"]
    return {
        "rng.draw_s": tr.name_self["rng.draw"],
        "rng.values_drawn": c["rng.values_drawn"],
        "rng.streams": c["rng.derive"],
        "rng.trial_map_s": tr.name_incl["rng.trial_map"],
        "rng.trial_busy_ratio": tr.trial_s / tr.lane_s if tr.lane_s else 0.0,
        "ensembles.sample_calls": c["ensembles.sample"],
        "ensembles.sample_self_s": tr.layer_self["ensembles"],
        "ensembles.bytes_filled": tr.computed["ensembles.bytes_filled"],
        "flow.evolve_calls": c["flow.evolve"],
        "flow.evolve_self_s": tr.name_self["flow.evolve"],
        "flow.decompose_calls": c["flow.decompose"],
        "flow.decompose_self_s": tr.name_self["flow.decompose"],
        "spectral.eig_calls": eig_calls,
        "spectral.eig_s": tr.name_incl["spectral.eig"],
        "spectral.eig_flops": tr.computed["spectral.eig_flops"],
        "spectral.eigs_used_ratio": wl.eigs_used_ratio() if eig_calls else 0.0,
        "statistics.calls": sum(v for k, v in c.items() if k.startswith("statistics.")),
        "statistics.self_s": tr.layer_self["statistics"],
        "free_conv.solves": solves,
        "free_conv.solve_s": tr.name_incl["free_conv.solve"],
        "free_conv.m0_evals": c["free_conv.m0_evals"],
        "free_conv.newton_steps": c["free_conv.newton_steps"],
        "free_conv.m0_evals_per_solve": c["free_conv.m0_evals"] / solves if solves else 0.0,
        "free_conv.quantile_s": tr.name_incl["free_conv.quantile"],
        "experiments.run_self_s": tr.layer_self["experiments"],
        "experiments.bytes_written": artifact_bytes(result),
        "acceptance.self_s": tr.layer_self["acceptance"],
        "trace.self_sum_ratio": sum(tr.layer_self.values()) / op_s,
    }


def measure_traced(wl, inp, seconds, out_dir):
    """Alternate untraced and traced runs of one op; at least two of each.

    A traced op must reproduce the untraced op's outputs byte for byte.
    """
    from tracer import Tracer
    from workloads import dumps

    tracer = Tracer()
    out = {"plain_s": [], "traced_s": [], "rounds": [], "errors": []}
    start = time.perf_counter()
    while not out["errors"] and (len(out["rounds"]) < 2
                                 or time.perf_counter() - start < seconds):
        elapsed, _, result, error = run_op(wl, inp, out_dir)
        out["plain_s"].append(elapsed)
        if error:
            out["errors"].append(error)
            break
        reference = dumps(result)
        tracer.reset()
        elapsed, _, result, error = run_op(wl, inp, out_dir, tracer)
        out["traced_s"].append(elapsed)
        if not error and dumps(result) != reference:
            error = "the traced op's outputs differ from the untraced op's"
        if error:
            out["errors"].append(error)
        else:
            out["rounds"].append(layer_values(tracer, wl, result, elapsed))
    out["times"] = out["plain_s"] + out["traced_s"]
    return out


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    import rmtlab
    import workloads

    if Path(rmtlab.__file__).resolve().parent != SRC / "rmtlab":
        raise SystemExit(f"imported rmtlab from {rmtlab.__file__}, not {SRC}")

    wl = workloads.WORKLOADS[args.workload]()
    warm, *inputs = wl.inputs(workloads.input_rng(args.workload, args.seed),
                              workloads.MAX_OPS + 1)
    (HERE / ".out").mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".out"))
    try:
        wl.check(warm, wl.op(warm, out_dir))
        setup_s = time.perf_counter() - T_START
        if args.trace:
            out = measure_traced(wl, inputs[0], args.seconds, out_dir)
        else:
            out = measure(wl, inputs[args.part::args.parts], args.seconds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    out.update(setup_s=setup_s, peak_rss_mb=_peak_rss_mb(), machine=machine_record())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""rmtlab benchmark: closed-loop ops against rmtlab's public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client issues the next op only after the previous one returned.  With
--trace 0 the S seconds are split over PROCESSES fresh worker processes run
one after another, each timing its own set-up and then a disjoint share of the
seed's op sequence.  Time metrics come from the fastest of those windows, so
a window in which the shared vCPUs ran slow does not set the result; set-up
time is the lowest over the processes and peak RSS their median.  With
--trace 1 a single worker alternates untraced and traced runs of one op and
reports the per-layer metrics.  Every op's output is checked.  The last
stdout line is one JSON object with correct/attempted/failed/metrics.

rmtlab is imported from the src/ directory beside perfbench/, never from an
installed copy; without it the benchmark exits with code 2.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("repulsion-n500", "flow-n200", "freeconv-n500")
PROCESSES = 3

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "cpu_s_per_op": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer metric -> (unit, kind).  "exact" counts come from the wrappers and
# must repeat identically at one seed; "computed" ones are derived from array
# sizes or the workload definition; "time" and "ratio" are measured.
PER_LAYER = {
    "rng.draw_s": ("s", "time"),
    "rng.values_drawn": ("count", "exact"),
    "rng.streams": ("count", "exact"),
    "rng.trial_map_s": ("s", "time"),
    "rng.trial_busy_ratio": ("ratio", "ratio"),
    "ensembles.sample_calls": ("count", "exact"),
    "ensembles.sample_self_s": ("s", "time"),
    "ensembles.bytes_filled": ("B", "computed"),
    "flow.evolve_calls": ("count", "exact"),
    "flow.evolve_self_s": ("s", "time"),
    "flow.decompose_calls": ("count", "exact"),
    "flow.decompose_self_s": ("s", "time"),
    "spectral.eig_calls": ("count", "exact"),
    "spectral.eig_s": ("s", "time"),
    "spectral.eig_flops": ("flop", "computed"),
    "spectral.eigs_used_ratio": ("ratio", "computed"),
    "statistics.calls": ("count", "exact"),
    "statistics.self_s": ("s", "time"),
    "free_conv.solves": ("count", "exact"),
    "free_conv.solve_s": ("s", "time"),
    "free_conv.m0_evals": ("count", "exact"),
    "free_conv.newton_steps": ("count", "exact"),
    "free_conv.m0_evals_per_solve": ("ratio", "exact"),
    "free_conv.quantile_s": ("s", "time"),
    "experiments.run_self_s": ("s", "time"),
    "experiments.bytes_written": ("B", "exact"),
    "acceptance.self_s": ("s", "time"),
    "trace.overhead_ratio": ("ratio", "ratio"),
    "trace.self_sum_ratio": ("ratio", "ratio"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_worker(args, seconds, *extra):
    """Start one worker process, wait for it, and return its measurements.

    The timeout keeps a whole run under the 180 s a run may take.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), *extra]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=2 * seconds + 30)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench: worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def window_metrics(w):
    """Time metrics of one worker process's window."""
    return {
        "ops_per_s": (len(w["times"]) - len(w["errors"])) / sum(w["times"]),
        "op_p50_s": statistics.median(w["times"]),
        "cpu_s_per_op": sum(w["cpus"]) / len(w["times"]),
    }


def end_to_end(parts):
    """End-to-end metrics from the worker processes' time windows.

    The shared vCPUs have slow phases lasting seconds (see README.md), so the
    time metrics come from the fastest window: any window that ran in a fast
    phase gives the same figure.  That includes the per-process OpenBLAS
    state, so cpu_s_per_op shows the best state of the three; main() prints
    every window's values.  Set-up time is the lowest of the three fresh
    processes for the same reason; peak RSS, which does not drift, is their
    median.
    """
    windows = [window_metrics(w) for w in parts]
    return {
        "ops_per_s": max(w["ops_per_s"] for w in windows),
        "op_p50_s": min(w["op_p50_s"] for w in windows),
        "cpu_s_per_op": min(w["cpu_s_per_op"] for w in windows),
        "setup_s": min(w["setup_s"] for w in parts),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in parts),
    }


def tail(times):
    """(percentile, op time) at the highest percentile with ten ops beyond it."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def per_layer(w):
    """Medians over traced rounds; exact and computed counts must not vary."""
    rounds, errors = w["rounds"], []
    if not rounds:
        return {}, errors
    values = {"trace.overhead_ratio":
              statistics.median(w["plain_s"]) / statistics.median(w["traced_s"])}
    for name in rounds[0]:
        seen = [r[name] for r in rounds]
        if PER_LAYER[name][1] not in ("exact", "computed"):
            values[name] = statistics.median(seen)
            continue
        if len(set(seen)) != 1:
            errors.append(f"{name} differs between traced rounds: {seen}")
        values[name] = seen[0]
    return values, errors


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rmtlab" / "__init__.py").is_file():
        print(f"perfbench: rmtlab sources not found under {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        parts = [run_worker(args, args.seconds, "--trace")]
        values, errors = per_layer(parts[0])
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
    else:
        share = args.seconds / PROCESSES
        parts = [run_worker(args, share, "--part", str(j), "--parts", str(PROCESSES))
                 for j in range(PROCESSES)]
        values, errors = end_to_end(parts), []
        units = END_TO_END_UNITS

    print("machine:", json.dumps(parts[0]["machine"], sort_keys=True))
    for name, unit in units.items():
        if name in values:
            kind = f" ({PER_LAYER[name][1]})" if args.trace else ""
            print(f"{name} = {values[name]:.6g} {unit}{kind}")
    if not args.trace:
        for j, w in enumerate(parts):
            window = {**window_metrics(w), "setup_s": w["setup_s"]}
            print(f"window {j}:", ", ".join(f"{k} = {v:.6g}" for k, v in window.items()))
    times = [t for w in parts for t in w["times"]]
    t = None if args.trace else tail(times)
    if t:
        print(f"op_tail_s = {t[1]:.6g} s at p{t[0]:.0f} (reported, not bounded)")
    failed = sum(len(w["errors"]) for w in parts)
    for w in parts:
        for error in w["errors"][:3]:
            print("failure:", error.strip(), file=sys.stderr)
    for error in errors:
        print("failure:", error, file=sys.stderr)
    print(f"ops = {len(times)}, ops_failed = {failed}")
    correct = not failed and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": len(times),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()
                    if k in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs from a seed, one op, and its output check.

Each op is one call sequence into rmtlab's public entry points at a fixed input
size.  Inputs (the rmtlab master seeds and indices each op uses) are drawn from
the workload seed, so one seed always gives the same op sequence and ops never
repeat an input.  ``check`` raises ``CheckFailed`` when an output is wrong; its
tolerances are sized to the op's own sample count so that a correct program
fails fewer than about one op in a thousand.  See README.md for why each
workload exists and which layers it should move.
"""

import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import stats as sstats

import rmtlab
from rmtlab import acceptance, experiments, statistics

# Upper bound on ops per run: input lists are generated up front, in set-up.
MAX_OPS = 10_000

# z bound of the flow moment checks.  Two-sided 4.5 sigma is a 7e-6 tail:
# a benchmark campaign sees a few hundred ops per workload, a correct program
# should fail none of them, while any wrong law is off by far more.
_Z = 4.5


class CheckFailed(Exception):
    """An op's output failed its correctness check."""


def _master_seeds(rng, count):
    return [int(s) for s in rng.integers(0, 2 ** 63, size=count)]


def _er_goe_seeds(rng, count):
    """Per op, one master seed for the ER run and one for the GOE run."""
    return [{"erdos_renyi": a, "goe": b}
            for a, b in zip(_master_seeds(rng, count), _master_seeds(rng, count))]


@dataclass
class Repulsion:
    """Criterion 5's set-up: P(normalized central gap <= 0.1), ER and GOE."""

    name: str = "repulsion-n500"
    n: int = 500
    trials: int = 16
    threads: int = 2
    # GOE spacing-surmise mass below 0.1 is 0.0078; 1.5x covers finite n.
    p_small: float = 0.012

    def __post_init__(self):
        self.index = self.n // 2 - 1
        gamma = rmtlab.classical_location(self.index, self.n)
        self.threshold = float(0.1 / (self.n * rmtlab.rho_sc(gamma)))
        # Two binomial checks per op: each may fail with probability 5e-4.
        self.max_hits = int(sstats.binom.isf(5e-4, self.trials, self.p_small))

    def inputs(self, rng, count):
        return _er_goe_seeds(rng, count)

    def eigs_used_ratio(self):
        return 2 / self.n

    def op(self, inp, out_dir):
        return [
            statistics.level_repulsion_probability(
                rmtlab.EnsembleSpec(n=self.n, kind=kind), self.index, self.trials,
                seed, threshold=self.threshold, threads=self.threads,
            )
            for kind, seed in inp.items()
        ]

    def check(self, inp, estimates):
        for kind, est in zip(inp, estimates):
            hits = round(est.frequency * est.trials)
            if est.trials != self.trials or est.threshold != self.threshold:
                raise CheckFailed(f"{kind}: estimate echoes wrong inputs {est}")
            if not est.wilson_low <= est.frequency <= est.wilson_high:
                raise CheckFailed(f"{kind}: frequency outside its Wilson interval")
            if hits > self.max_hits:
                raise CheckFailed(f"{kind}: {hits}/{self.trials} small gaps exceed "
                                  f"the binomial bound {self.max_hits}")


@dataclass
class Flow:
    """Criterion 6 at scale 0.01: evolve vs decompose_sample moments at n=200."""

    name: str = "flow-n200"
    scale: float = 0.01

    def inputs(self, rng, count):
        return _master_seeds(rng, count)

    def eigs_used_ratio(self):
        return 1.0

    def op(self, seed, out_dir):
        suite = acceptance.AcceptanceSuite(seed=seed, threads=1, scale=self.scale)
        return suite.criterion_flow_law_equivalence()

    def check(self, seed, result):
        d = result.details
        expected = max(4, round(10_000 * self.scale))
        if d["trials"] != expected:
            raise CheckFailed(f"ran {d['trials']} trials, expected {expected}")
        # Both sigmas are |z| scores over ~2e6 entries per path.
        for key in ("dmean_sigmas", "dvar_sigmas"):
            if not 0.0 <= d[key] <= _Z:
                raise CheckFailed(f"{key} = {d[key]:.3f} exceeds {_Z}")


@dataclass
class FreeConv:
    """free-conv on one ER n=500 spectrum, plus one deformed quantile."""

    name: str = "freeconv-n500"
    n: int = 500
    theta_sq: float = 0.25
    grid_points: int = 2001

    def inputs(self, rng, count):
        seeds = _master_seeds(rng, count)
        index = rng.integers(self.n // 4, 3 * self.n // 4, size=count)
        energy = rng.uniform(-2.0, 2.0, size=count)
        return [{"seed": s, "index": int(i), "energy": float(e)}
                for s, i, e in zip(seeds, index, energy)]

    def eigs_used_ratio(self):
        return 1.0

    def _spec(self):
        return {"n": self.n, "kind": "erdos_renyi", "q_exponent": 0.4}

    def op(self, inp, out_dir):
        cfg = experiments.ExperimentConfig(
            experiment="free-conv", ensemble=self._spec(),
            stats={"theta_sq": self.theta_sq, "base": "sample",
                   "grid_points": self.grid_points},
            seed=inp["seed"], out_dir=str(out_dir / "free-conv"),
        )
        report = experiments.run(cfg)
        spec = rmtlab.EnsembleSpec(**self._spec())
        lam = rmtlab.eigenvalues_of(
            rmtlab.sample_matrix(spec, rmtlab.derive_stream(inp["seed"], 0)))
        base = rmtlab.FreeConvInput(self.theta_sq, eigenvalues=lam)
        # The quantile integrates the density on the same grid as the run.
        return report, rmtlab.classical_location_t(inp["index"], self.n, base,
                                                   grid_points=self.grid_points)

    def check(self, inp, result):
        report, quantile = result
        with open(report.artifacts[0]) as fh:
            if not fh.readline().startswith(f"# config_hash={report.config_hash}"):
                raise CheckFailed("density.csv lacks its config header")
        mass = report.results["mass"]
        if not abs(mass - 1.0) <= 1e-3:
            raise CheckFailed(f"density mass {mass}")
        # Semicircle (+) theta-semicircle is the semicircle of variance
        # 1 + theta^2; one n-point spectrum is within a few eigenvalue counts
        # of that law (rigidity, plus the ER outlier), so allow 4 local spacings.
        s = math.sqrt(1.0 + self.theta_sq)
        expect = s * rmtlab.classical_location(inp["index"], self.n)
        density = math.sqrt(4.0 * s * s - expect * expect) / (2.0 * math.pi * s * s)
        tol = 4.0 / (self.n * density)
        if abs(quantile - expect) > tol:
            raise CheckFailed(f"quantile {quantile:.5f} is not {expect:.5f} "
                              f"within {tol:.4f}")
        # Deterministic spot check of the solver against the closed form.
        z = complex(inp["energy"], 0.01)
        got = rmtlab.solve_m_t(z, rmtlab.FreeConvInput(self.theta_sq))
        w = z / s
        oracle = (-w + np.sqrt(w - 2.0) * np.sqrt(w + 2.0)) / 2.0 / s
        if abs(got - oracle) > 1e-8:
            raise CheckFailed(f"solve_m_t({z}) off the closed form by "
                              f"{abs(got - oracle):.3e}")


WORKLOADS = {w.name: w for w in (Repulsion, Flow, FreeConv)}


def input_rng(name, seed):
    """Generator for one workload's inputs; a pure function of (name, seed)."""
    tag = int.from_bytes(name.encode(), "little") % (2 ** 63)
    return np.random.default_rng([int(seed) % (2 ** 64), tag])


def describe(result):
    """JSON-safe image of an op result, timings left out, artifacts by content.

    Two runs of one op with equal images produced the same outputs.
    """
    if isinstance(result, (list, tuple)):
        return [describe(r) for r in result]
    if isinstance(result, dict):
        return {k: describe(v) for k, v in result.items()}
    if dataclasses.is_dataclass(result):
        out = {f.name: describe(getattr(result, f.name))
               for f in dataclasses.fields(result) if not f.name.endswith("_s")}
        if "artifacts" in out:
            out["artifacts"] = [_read(p) for p in result.artifacts]
        return out
    if isinstance(result, np.ndarray):
        return result.tolist()
    if isinstance(result, np.generic):
        return result.item()
    return result


def artifact_bytes(result):
    """Summed size of the artifacts an op's run reports list."""
    if isinstance(result, (list, tuple)):
        return sum(artifact_bytes(r) for r in result)
    return sum(os.path.getsize(p) for p in getattr(result, "artifacts", ()))


def _read(path):
    with open(path) as fh:
        return fh.read()


def dumps(result):
    return json.dumps(describe(result), sort_keys=True)

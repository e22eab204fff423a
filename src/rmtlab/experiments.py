"""Config-driven experiment runner.

A JSON config names one experiment kind plus its ensemble/flow/statistic
parameters; ``run`` executes it, writes fixed-name artifacts under the output
directory, and returns a report.  Outputs are a pure function of
(config, seed): trials draw from streams indexed by trial number, results are
reduced in trial order, and scheduling knobs (thread count, output directory)
are excluded from both the config hash and the artifact bytes, so reruns at a
different thread count produce byte-identical files.

Each runner computes and returns its artifacts as data; ``run`` is the only
writer.  Every CSV starts with a ``#`` line carrying the config hash and the
master seed, and every JSON artifact carries both as top-level keys except
``acceptance_report.json``, which carries only the seed.
"""

import hashlib
import json
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import statistics as stats
from .ensembles import KINDS, EnsembleSpec, alternating_profile
from .ensembles import sample_matrix  # noqa: F401  (rebound here by perfbench's tracer)
from .flow import FlowParams
from .free_conv import FreeConvInput, density_on_support, deviation_report
from .rng import derive_stream, trial_map  # noqa: F401  (rebound here by perfbench's tracer)
from .spectral import LOCAL_LAW_PREFACTOR, local_law_deviation
from .spectral import eigenvalues_of  # noqa: F401  (rebound here by perfbench's tracer)

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "run",
    "emit_histogram",
    "EXPERIMENT_KINDS",
]

DEFAULT_SEED = 1729

# The only experiments that read a ``flow`` section.
FLOW_EXPERIMENTS = ("flow-compare", "green-compare")


def _real(name, value):
    """A finite JSON number (int or float, not bool) as a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, ±inf or an int past any double
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def _integer(name, value, lo=-math.inf, hi=math.inf):
    """A JSON integer (not bool) in [lo, hi] as an int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    _real(name, value)  # the same finiteness rule
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value}")
    return int(value)


def _reals(name, value):
    if not isinstance(value, list) or not value:
        raise ValueError(f"{name} must be a non-empty list of numbers, got {value!r}")
    return [_real(f"{name}[{j}]", v) for j, v in enumerate(value)]


def _scale(name, value):
    """An acceptance scale; the suite rejects one that overruns a stream block."""
    from .acceptance import AcceptanceSuite

    return AcceptanceSuite(scale=_real(name, value)).scale


def _choice(*options):
    def parse(name, value):
        if value not in options:
            raise ValueError(f"{name} must be one of {list(options)}, got {value!r}")
        return value
    return parse


def _profile(name, value):
    """A function of n giving the profile; EnsembleSpec/FlowParams check it."""
    if value == "uniform":
        return lambda n: None
    kind = value.get("type") if isinstance(value, dict) else None
    if kind == "alternating" and set(value) == {"type", "lo", "hi"}:
        lo, hi = _real(f"{name}.lo", value["lo"]), _real(f"{name}.hi", value["hi"])
        return lambda n: alternating_profile(n, lo, hi)
    rows = value.get("values") if kind == "explicit" else None
    if isinstance(rows, list) and set(value) == {"type", "values"}:
        rows = [_reals(f"{name}.values[{i}]", row) for i, row in enumerate(rows)]
        if all(len(row) == len(rows) for row in rows):
            return lambda n: np.array(rows)
    raise ValueError(f'{name} must be "uniform", an alternating profile '
                     '{type, lo, hi} or an explicit square matrix {type, values}')


# The field tables: every key a section reads, with its parser and default
# (``...`` marks a required key).  A null value takes the default; a key the
# table does not list is rejected.
ENSEMBLE_FIELDS = {"n": (_integer, ...), "kind": (_choice(*KINDS), ...),
                   "q_exponent": (_real, None), "mean_f": (_real, None),
                   "profile": (_profile, None)}
FLOW_FIELDS = {"t": (_real, 0.0), "profile": (_profile, None), "mean_f": (_real, None)}
# Per experiment kind.  The runners fill in the two defaults that depend on n:
# index (n//2 - 1) and green-compare's eta (1/n).
STATS_FIELDS = {
    "spectrum": {},
    "local-law": {"e_list": (_reals, (-1.0, -0.5, 0.0, 0.5, 1.0)),
                  "eta_list": (_reals, (0.01, 0.1)),
                  "prefactor": (_real, LOCAL_LAW_PREFACTOR)},
    "gaps": {"kappa": (_real, 0.25), "bins": (_integer, 50)},
    "repulsion": {"index": (_integer, None), "tau": (_real, None),
                  "threshold": (_real, None)},
    "flow-compare": {"tau": (_real, 0.2), "index": (_integer, None)},
    "free-conv": {"theta_sq": (_real, ...), "eta": (_real, 1e-4),
                  "base": (_choice("semicircle", "atom", "sample"), "semicircle"),
                  # a density needs two grid points to have mass, a deviation one
                  "grid_points": (partial(_integer, lo=2), 201),
                  "dev_points": (partial(_integer, lo=1), 81),
                  "dev_eta": (_real, 0.01)},
    "green-compare": {"e_list": (_reals, (0.0,)), "eta": (_real, None),
                      "f_kind": (_choice("im", "re"), "im"), "kappa": (_real, 0.1),
                      "delta": (_real, 0.5)},
    "acceptance": {"scale": (_scale, 1.0)},
}
EXPERIMENT_KINDS = tuple(STATS_FIELDS)


def _fields(section, experiment, table):
    """Typed values of one section by its field table; ValueError names every bad key."""
    if not isinstance(section, dict):
        raise ValueError(f"expected an object, got {section!r}")
    unread = sorted(set(section) - set(table))
    errs = [f"experiment {experiment!r} reads none of {unread}"] if unread else []
    values = {}
    for key, (parse, default) in table.items():
        value = section.get(key)
        try:
            if value is None and default is ...:
                raise ValueError(f"{key} is required")
            values[key] = default if value is None else parse(key, value)
        except ValueError as exc:
            errs.append(str(exc))
    if errs:
        raise ValueError("; ".join(errs))
    return values


@dataclass(frozen=True)
class Resolved:
    """A valid config's typed values (spec/params None where not read)."""

    seed: int
    spec: EnsembleSpec | None
    params: FlowParams | None
    stats: dict


def _available_cpus():
    """CPUs this process may run on: its affinity mask where the OS keeps one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


@dataclass
class ExperimentConfig:
    """Experiment description, kept as given; ``validate`` resolves it.

    ``ensemble`` (every kind but acceptance; free-conv only with base
    "sample"), ``flow`` (flow-compare and green-compare only) and ``stats``
    are parsed by ENSEMBLE_FIELDS, FLOW_FIELDS and STATS_FIELDS; a section
    or key that the experiment would not read is a validation error.
    """

    experiment: str
    ensemble: dict | None = None
    flow: dict | None = None
    stats: dict = field(default_factory=dict)
    trials: int = 1
    seed: int = DEFAULT_SEED
    threads: int = field(default_factory=_available_cpus)
    out_dir: str = "out"

    @classmethod
    def from_dict(cls, d):
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_json_file(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def _resolve(self):
        """(Resolved, errors): every section parsed, every problem listed."""
        errs = []

        def attempt(prefix, parse):
            try:
                return parse()
            except ValueError as exc:
                errs.append(f"{prefix}{exc}")

        if self.experiment not in EXPERIMENT_KINDS:
            errs.append(f"unknown experiment {self.experiment!r}")
        # trials: at most the stream block the acceptance suite gives a purpose
        bounds = {"trials": (1, 2 ** 20), "seed": (0, 2 ** 64 - 1),
                  "threads": (1, math.inf)}
        ints = {key: attempt("", lambda: _integer(key, getattr(self, key), lo, hi))
                for key, (lo, hi) in bounds.items()}
        if self.experiment in ("free-conv", "acceptance") and ints["trials"] not in (None, 1):
            errs.append(f"experiment {self.experiment!r} runs no trials of its own, "
                        f"so trials must be 1, got {self.trials}")
        if not isinstance(self.stats, dict):
            return None, errs + [f"stats must be an object, got {self.stats!r}"]
        table = STATS_FIELDS.get(self.experiment, {})
        stats = attempt("stats: ", lambda: _fields(self.stats, self.experiment, table))
        reads_ensemble = (self.stats.get("base") == "sample" if self.experiment == "free-conv"
                          else self.experiment != "acceptance")
        if self.ensemble is None and reads_ensemble:
            errs.append(f"experiment {self.experiment!r} needs an ensemble section")
        if self.ensemble is not None and not reads_ensemble:
            hint = " unless stats.base is 'sample'" if self.experiment == "free-conv" else ""
            errs.append(f"ensemble: experiment {self.experiment!r} reads no ensemble{hint}")
        if self.flow is not None and self.experiment not in FLOW_EXPERIMENTS:
            errs.append(f"flow: experiment {self.experiment!r} takes no flow section")
        spec = None if self.ensemble is None else attempt("ensemble: ", self.ensemble_spec)
        params = None
        if spec is not None and self.experiment in FLOW_EXPERIMENTS:
            params = attempt("flow: ", lambda: self.flow_params(spec))
        return Resolved(ints["seed"], spec, params, stats), errs

    def validate(self):
        """The Resolved config; ValueError listing every problem if invalid."""
        resolved, errs = self._resolve()
        if errs:
            raise ValueError("; ".join(errs))
        return resolved

    def ensemble_spec(self):
        e = _fields(self.ensemble, self.experiment, ENSEMBLE_FIELDS)
        if e["kind"] == "goe" and e["q_exponent"] is not None:
            raise ValueError("kind 'goe' takes no q_exponent")
        given = {k: e[k] for k in ("q_exponent", "mean_f") if e[k] is not None}
        profile = e["profile"] and e["profile"](e["n"])
        return EnsembleSpec(n=e["n"], kind=e["kind"], profile=profile, **given)

    def flow_params(self, spec: EnsembleSpec):
        """FlowParams of the flow section (absent: t = 0).  profile and mean_f,
        the per-entry mean, default to the ensemble's to keep its law stationary."""
        f = _fields({} if self.flow is None else self.flow, self.experiment, FLOW_FIELDS)
        profile = spec.profile if f["profile"] is None else f["profile"](spec.n)
        mean = spec.entry_mean if f["mean_f"] is None else f["mean_f"]
        return FlowParams(n=spec.n, t=f["t"], profile=profile, mean=mean)

    def hashable_dict(self):
        """Config content that determines results: scheduling knobs excluded."""
        return {
            "experiment": self.experiment,
            "ensemble": self.ensemble,
            "flow": self.flow,
            "stats": self.stats,
            "trials": self.trials,
            "seed": int(self.seed),
        }

    def config_hash(self):
        blob = json.dumps(self.hashable_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class RunReport:
    """Echo of the effective config plus every computed metric.

    Wall-clock time lives only on this object, never in artifacts, so that
    artifact bytes stay a pure function of (config, seed).
    """

    experiment: str
    config_hash: str
    seed: int
    config: dict
    results: dict
    artifacts: list
    wall_clock_s: float


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    return str(value)


def _write(path, content, cfg_hash, seed):
    """One artifact: a CSV table ``(header, rows)`` under its config line, or
    a JSON payload."""
    with open(path, "w") as fh:
        if isinstance(content, tuple):
            header, rows = content
            fh.write(f"# config_hash={cfg_hash} seed={seed}\n{header}\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        else:
            json.dump(_jsonable(content), fh, sort_keys=True, indent=2)
            fh.write("\n")


def emit_histogram(samples, bins, value_range=None):
    """Histogram rows (bin_left, bin_right, count, density).

    The density column integrates to 1 over the covered range: density =
    count / (total_in_range * bin_width).
    """
    samples = stats._as_samples(samples)
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    counts, edges = np.histogram(samples, bins=bins, range=value_range)
    total = counts.sum()
    rows = []
    for j in range(bins):
        width = edges[j + 1] - edges[j]
        density = counts[j] / (total * width) if total > 0 else 0.0
        rows.append((edges[j], edges[j + 1], int(counts[j]), density))
    return rows


def _spectra(cfg, r):
    """Full spectra of the config's trials, trial k from stream (seed, k)."""
    return stats.sample_spectra(r.spec, cfg.trials, cfg.seed, threads=cfg.threads)


# Each runner maps (config, Resolved) to (results, files): ``files`` maps an
# artifact name to a CSV table (header, rows) or a JSON payload, in the order
# ``run`` writes and reports them.

def _run_spectrum(cfg, r):
    spectra = _spectra(cfg, r)
    files = {f"spectrum_{k:04d}.csv": ("index,eigenvalue", list(enumerate(lam)))
             for k, lam in enumerate(spectra)}
    results = {
        "trials": cfg.trials,
        "min_eigenvalue": float(min(s[0] for s in spectra)),
        "max_eigenvalue": float(max(s[-1] for s in spectra)),
    }
    return results, files


def _run_local_law(cfg, r):
    spec, s = r.spec, r.stats
    grid = np.array([e + 1j * eta for eta in s["eta_list"] for e in s["e_list"]])
    q = spec.q if spec.kind != "goe" else math.sqrt(spec.n)
    reports = [local_law_deviation(lam, grid, q, s["prefactor"])
               for lam in _spectra(cfg, r)]
    rows = [(rep.e[j], rep.eta[j], rep.deviation[j], rep.bound[j], bool(rep.passed[j]))
            for rep in reports for j in range(grid.size)]
    results = {
        "pairs": len(rows),
        "pass_fraction": sum(row[4] for row in rows) / len(rows),
        "max_deviation": float(max(row[2] for row in rows)),
    }
    return results, {"local_law.csv": ("E,eta,dev,bound,pass", rows)}


def _run_gaps(cfg, r):
    per_trial = [stats.bulk_gaps(lam, r.stats["kappa"]) for lam in _spectra(cfg, r)]
    pooled = np.concatenate(per_trial)
    hist = emit_histogram(pooled, r.stats["bins"], (0.0, float(pooled.max())))
    rows = [(k, j, g) for k, gaps in enumerate(per_trial) for j, g in enumerate(gaps)]
    results = {
        "samples": int(pooled.size),
        "mean_gap": float(pooled.mean()),
    }
    return results, {"gaps.csv": ("trial,index,gap", rows),
                     "gaps_hist.csv": ("bin_left,bin_right,count,density", hist)}


def _run_repulsion(cfg, r):
    i = r.spec.n // 2 - 1 if r.stats["index"] is None else r.stats["index"]
    est = stats.level_repulsion_probability(
        r.spec, i, cfg.trials, cfg.seed, tau=r.stats["tau"],
        threshold=r.stats["threshold"], threads=cfg.threads,
    )
    payload = {
        "config_hash": cfg.config_hash(),
        "seed": r.seed,
        "index": i,
        "frequency": est.frequency,
        "wilson_low": est.wilson_low,
        "wilson_high": est.wilson_high,
        "threshold": est.threshold,
        "trials": est.trials,
    }
    return payload, {"repulsion.json": payload}


def _run_flow_compare(cfg, r):
    spec, params = r.spec, r.params
    i = spec.n // 2 - 1 if r.stats["index"] is None else r.stats["index"]
    cut = stats.CutoffSpec.from_n_tau(spec.n, r.stats["tau"])
    [cmp] = stats.chi_q_flow_comparison(
        spec, [params], i, cut, cfg.trials, cfg.seed, threads=cfg.threads
    )
    payload = {
        "e0": cmp.e0,
        "et": cmp.et,
        "diff": cmp.diff,
        "se": cmp.se,
        "t": params.t,
        "n": spec.n,
        "trials": cfg.trials,
        "seed": r.seed,
        "config_hash": cfg.config_hash(),
    }
    return payload, {"flow_compare.json": payload}


def _run_free_conv(cfg, r):
    s = r.stats
    if s["base"] == "sample":
        lam = _spectra(cfg, r)[0]
    else:
        lam = np.zeros(1) if s["base"] == "atom" else None
    inp = FreeConvInput(s["theta_sq"], eigenvalues=lam)
    profile = density_on_support(inp, s["grid_points"], s["eta"])
    dev_grid = np.linspace(-2.0, 2.0, s["dev_points"])
    rep = deviation_report(inp, dev_grid, s["dev_eta"])
    results = {
        "mass": profile.mass(),
        "max_dev_m": float(rep.dev_m.max()),
    }
    return results, {
        "density.csv": ("E,rho", list(zip(profile.grid, profile.rho))),
        "deviation.csv": ("E,eta,dev_m,dev_rho",
                          list(zip(rep.e, rep.eta, rep.dev_m, rep.dev_rho))),
    }


def _run_green_compare(cfg, r):
    spec, params, s = r.spec, r.params, r.stats
    eta = 1.0 / spec.n if s["eta"] is None else s["eta"]
    zs = [complex(e, eta) for e in s["e_list"]]
    [cmp] = stats.green_trace_comparison(
        spec, [params], zs, s["f_kind"], cfg.trials, cfg.seed,
        kappa=s["kappa"], delta=s["delta"], threads=cfg.threads,
    )
    payload = {
        "config_hash": cfg.config_hash(),
        "seed": r.seed,
        "t": params.t,
        "f_kind": s["f_kind"],
        "points": [
            {"e": z.real, "eta": z.imag, "diff": d, "se": se}
            for z, d, se in zip(cmp.z, cmp.diff, cmp.se)
        ],
        "trials": cfg.trials,
    }
    return payload, {"green_compare.json": payload}


def _run_acceptance(cfg, r):
    from .acceptance import run_acceptance

    report = run_acceptance(r.seed, cfg.threads, r.stats["scale"])
    results = {"passed": report["all_passed"], "criteria": report["criteria"]}
    return results, {"acceptance_report.json": report}


_RUNNERS = {
    "spectrum": _run_spectrum,
    "local-law": _run_local_law,
    "gaps": _run_gaps,
    "repulsion": _run_repulsion,
    "flow-compare": _run_flow_compare,
    "free-conv": _run_free_conv,
    "green-compare": _run_green_compare,
    "acceptance": _run_acceptance,
}


def run(config: ExperimentConfig):
    """Execute one experiment; writes artifacts and returns the report.

    The runner computes every artifact before the first is written, so a
    rejected config or a failed computation writes nothing."""
    resolved = config.validate()
    start = time.perf_counter()
    results, files = _RUNNERS[config.experiment](config, resolved)
    elapsed = time.perf_counter() - start

    cfg_hash = config.config_hash()
    if config.experiment != "acceptance":
        files["report.json"] = {
            "experiment": config.experiment,
            "config_hash": cfg_hash,
            "seed": resolved.seed,
            "config": config.hashable_dict(),
            "results": results,
        }
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        _write(out / name, content, cfg_hash, resolved.seed)
    return RunReport(
        experiment=config.experiment,
        config_hash=cfg_hash,
        seed=resolved.seed,
        config=config.hashable_dict(),
        results=results,
        artifacts=[str(out / name) for name in files],
        wall_clock_s=elapsed,
    )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj

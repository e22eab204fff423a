"""Config-driven experiment runner.

A JSON config names one experiment kind plus its ensemble/flow/statistic
parameters; ``run`` executes it, writes fixed-name artifacts under the output
directory, and returns a report.  Outputs are a pure function of
(config, seed): trials draw from streams indexed by trial number, results are
reduced in trial order, and scheduling knobs (thread count, output directory)
are excluded from both the config hash and the artifact bytes, so reruns at a
different thread count produce byte-identical files.

Every artifact starts with a header carrying the config hash and the master
seed (a ``#`` line for CSV, top-level keys for JSON).
"""

import hashlib
import json
import math
import numbers
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import statistics as stats
from .ensembles import EnsembleSpec, alternating_profile, sample_matrix
from .flow import FlowParams
from .free_conv import FreeConvInput, density_on_support, deviation_report
from .rng import derive_stream
from .rng import trial_map  # noqa: F401  (rebound here by perfbench's tracer)
from .spectral import eigenvalues_of, local_law_deviation

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "run",
    "emit_histogram",
    "EXPERIMENT_KINDS",
]

# Each experiment kind with the ``stats`` keys it reads.
STATS_KEYS = {
    "spectrum": (),
    "local-law": ("e_list", "eta_list", "prefactor"),
    "gaps": ("kappa", "bins"),
    "repulsion": ("index", "tau", "threshold"),
    "flow-compare": ("tau", "index"),
    "free-conv": ("theta_sq", "base", "eta", "grid_points", "dev_points", "dev_eta"),
    "green-compare": ("e_list", "eta", "f_kind", "kappa", "delta"),
    "acceptance": ("scale",),
}
EXPERIMENT_KINDS = tuple(STATS_KEYS)

DEFAULT_SEED = 1729

# The only experiments that read a ``flow`` section.
FLOW_EXPERIMENTS = ("flow-compare", "green-compare")


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def profile_from_json(obj, n):
    """Decode a variance profile field: null/"uniform", alternating, explicit."""
    if obj is None or obj == "uniform":
        return None
    if isinstance(obj, dict) and obj.get("type") == "alternating":
        return alternating_profile(n, float(obj["lo"]), float(obj["hi"]))
    if isinstance(obj, dict) and obj.get("type") == "explicit":
        return np.asarray(obj["values"], dtype=float)
    raise ValueError(f"unrecognized profile spec: {obj!r}")


@dataclass
class ExperimentConfig:
    """Validated experiment description.

    ``ensemble`` (every kind but acceptance; free-conv only with base
    "sample") uses keys {n, kind, q_exponent, mean_f, profile}; ``flow``
    (flow-compare and green-compare only) uses {t, profile, mean_f}, where
    profile defaults to the ensemble's and mean_f is the per-entry mean
    (defaults to the ensemble's entry mean); ``stats`` holds the statistic
    knobs that STATS_KEYS lists for the chosen experiment kind.  A section or
    key that the experiment would not read is a validation error.
    """

    experiment: str
    ensemble: dict | None = None
    flow: dict | None = None
    stats: dict = field(default_factory=dict)
    trials: int = 1
    seed: int = DEFAULT_SEED
    threads: int = 1
    out_dir: str = "out"

    @classmethod
    def from_dict(cls, d):
        known = {
            "experiment", "ensemble", "flow", "stats", "trials", "seed",
            "threads", "out_dir",
        }
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_json_file(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def validation_errors(self):
        errs = []
        if self.experiment not in EXPERIMENT_KINDS:
            errs.append(f"unknown experiment {self.experiment!r}")
        bounds = {"trials": (1, math.inf), "seed": (0, 2 ** 64 - 1),
                  "threads": (1, math.inf)}
        for key, (lo, hi) in bounds.items():
            value = getattr(self, key)
            if not _is_int(value):
                errs.append(f"{key} must be an integer, got {value!r}")
            elif not lo <= value <= hi:
                errs.append(f"{key} must lie in [{lo}, {hi}], got {value}")
        if not isinstance(self.stats, dict):
            return errs + [f"stats must be an object, got {self.stats!r}"]
        if self.experiment in STATS_KEYS:
            unread = sorted(set(self.stats) - set(STATS_KEYS[self.experiment]))
            if unread:
                errs.append(f"stats: experiment {self.experiment!r} reads none of {unread}")
        if self.ensemble is None and self._reads_ensemble():
            errs.append(f"experiment {self.experiment!r} needs an ensemble section")
        if self.ensemble is not None and not self._reads_ensemble():
            hint = " unless stats.base is 'sample'" if self.experiment == "free-conv" else ""
            errs.append(f"ensemble: experiment {self.experiment!r} reads no ensemble{hint}")
        if self.flow is not None and self.experiment not in FLOW_EXPERIMENTS:
            errs.append(f"flow: experiment {self.experiment!r} takes no flow section")
        if self.ensemble is not None:
            try:
                spec = self.ensemble_spec()
            except (ValueError, KeyError, TypeError) as exc:
                errs.append(f"ensemble: {exc}")
            else:
                if self.flow is not None and self.experiment in FLOW_EXPERIMENTS:
                    try:
                        self.flow_params(spec)
                    except (ValueError, KeyError, TypeError) as exc:
                        errs.append(f"flow: {exc}")
        return errs

    def _reads_ensemble(self):
        if self.experiment == "free-conv":
            return self.stats.get("base") == "sample"
        return self.experiment != "acceptance"

    def validate(self):
        errs = self.validation_errors()
        if errs:
            raise ValueError("; ".join(errs))

    def ensemble_spec(self):
        e = dict(self.ensemble)
        n = e.pop("n")
        if not _is_int(n):
            raise ValueError(f"n must be an integer, got {n!r}")
        profile = profile_from_json(e.pop("profile", None), n)
        kind = e.pop("kind")
        spec = {"n": n, "kind": kind, "profile": profile}
        q_exponent = e.pop("q_exponent", None)
        if q_exponent is not None:
            if kind == "goe":
                raise ValueError("kind 'goe' takes no q_exponent")
            spec["q_exponent"] = float(q_exponent)
        mean_f = e.pop("mean_f", None)
        if mean_f is not None:
            spec["mean_f"] = float(mean_f)
        if e:
            raise ValueError(f"unknown ensemble keys: {sorted(e)}")
        return EnsembleSpec(**spec)

    def flow_params(self, spec: EnsembleSpec):
        """FlowParams of the flow section; profile and mean default to the
        ensemble's, so that the flow keeps its law stationary."""
        f = dict(self.flow or {})
        t = float(f.pop("t", 0.0))
        profile = f.pop("profile", None)
        if profile is None:
            profile = spec.profile
        else:
            profile = profile_from_json(profile, spec.n)
        mean_f = f.pop("mean_f", None)
        mean = spec.entry_mean if mean_f is None else float(mean_f)
        if f:
            raise ValueError(f"unknown flow keys: {sorted(f)}")
        return FlowParams(n=spec.n, t=t, profile=profile, mean=mean)

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


def _write_csv(path, cfg_hash, seed, header, rows):
    with open(path, "w") as fh:
        fh.write(f"# config_hash={cfg_hash} seed={seed}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
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


_REQUIRED = object()


def _stat(cfg, key, default=_REQUIRED):
    if key in cfg.stats:
        return cfg.stats[key]
    if default is _REQUIRED:
        raise ValueError(f"experiment {cfg.experiment!r} needs stats.{key!r}")
    return default


def _spectra(cfg):
    """Full spectra of the config's trials, trial k from stream (seed, k)."""
    return stats.sample_spectra(cfg.ensemble_spec(), cfg.trials, cfg.seed,
                                threads=cfg.threads)


def _run_spectrum(cfg, out):
    spectra = _spectra(cfg)
    h = cfg.config_hash()
    artifacts = []
    for k, lam in enumerate(spectra):
        path = out / f"spectrum_{k:04d}.csv"
        _write_csv(path, h, cfg.seed, "index,eigenvalue",
                   [(j, v) for j, v in enumerate(lam)])
        artifacts.append(path)
    results = {
        "trials": cfg.trials,
        "min_eigenvalue": float(min(s[0] for s in spectra)),
        "max_eigenvalue": float(max(s[-1] for s in spectra)),
    }
    return results, artifacts


def _run_local_law(cfg, out):
    spec = cfg.ensemble_spec()
    e_list = [float(v) for v in _stat(cfg, "e_list", [-1.0, -0.5, 0.0, 0.5, 1.0])]
    eta_list = [float(v) for v in _stat(cfg, "eta_list", [0.01, 0.1])]
    prefactor = float(_stat(cfg, "prefactor", 5.0))
    grid = np.array([e + 1j * eta for eta in eta_list for e in e_list])
    q = spec.q if spec.kind != "goe" else math.sqrt(spec.n)
    reports = [local_law_deviation(lam, grid, q, prefactor)
               for lam in _spectra(cfg)]
    rows = []
    n_pass = 0
    for rep in reports:
        for j in range(grid.size):
            rows.append((rep.e[j], rep.eta[j], rep.deviation[j],
                         rep.bound[j], bool(rep.passed[j])))
            n_pass += int(rep.passed[j])
    path = out / "local_law.csv"
    _write_csv(path, cfg.config_hash(), cfg.seed, "E,eta,dev,bound,pass", rows)
    results = {
        "pairs": len(rows),
        "pass_fraction": n_pass / len(rows),
        "max_deviation": float(max(r[2] for r in rows)),
    }
    return results, [path]


def _run_gaps(cfg, out):
    kappa = float(_stat(cfg, "kappa", 0.25))
    bins = int(_stat(cfg, "bins", 50))
    per_trial = [stats.bulk_gaps(lam, kappa) for lam in _spectra(cfg)]
    h = cfg.config_hash()
    rows = []
    for k, gaps in enumerate(per_trial):
        rows.extend((k, j, g) for j, g in enumerate(gaps))
    gaps_path = out / "gaps.csv"
    _write_csv(gaps_path, h, cfg.seed, "trial,index,gap", rows)

    pooled = np.concatenate(per_trial)
    hist_path = out / "gaps_hist.csv"
    _write_csv(hist_path, h, cfg.seed, "bin_left,bin_right,count,density",
               emit_histogram(pooled, bins, (0.0, float(pooled.max()))))
    results = {
        "samples": int(pooled.size),
        "mean_gap": float(pooled.mean()),
    }
    return results, [gaps_path, hist_path]


def _run_repulsion(cfg, out):
    spec = cfg.ensemble_spec()
    i = int(_stat(cfg, "index", spec.n // 2 - 1))
    tau = _stat(cfg, "tau", None)
    threshold = _stat(cfg, "threshold", None)
    est = stats.level_repulsion_probability(
        spec, i, cfg.trials, cfg.seed,
        tau=None if tau is None else float(tau),
        threshold=None if threshold is None else float(threshold),
        threads=cfg.threads,
    )
    payload = {
        "config_hash": cfg.config_hash(),
        "seed": int(cfg.seed),
        "index": i,
        "frequency": est.frequency,
        "wilson_low": est.wilson_low,
        "wilson_high": est.wilson_high,
        "threshold": est.threshold,
        "trials": est.trials,
    }
    path = out / "repulsion.json"
    _write_json(path, payload)
    return payload, [path]


def _run_flow_compare(cfg, out):
    spec = cfg.ensemble_spec()
    params = cfg.flow_params(spec)
    tau = float(_stat(cfg, "tau", 0.2))
    i = int(_stat(cfg, "index", spec.n // 2 - 1))
    cut = stats.CutoffSpec.from_n_tau(spec.n, tau)
    cmp = stats.chi_q_flow_comparison(
        spec, params, i, cut, cfg.trials, cfg.seed, threads=cfg.threads
    )
    payload = {
        "e0": cmp.e0,
        "et": cmp.et,
        "diff": cmp.diff,
        "se": cmp.se,
        "t": params.t,
        "n": spec.n,
        "trials": cfg.trials,
        "seed": int(cfg.seed),
        "config_hash": cfg.config_hash(),
    }
    path = out / "flow_compare.json"
    _write_json(path, payload)
    return payload, [path]


def _free_conv_input(cfg):
    theta_sq = float(_stat(cfg, "theta_sq"))
    base = _stat(cfg, "base", "semicircle")
    if base == "semicircle":
        return FreeConvInput(theta_sq)
    if base == "atom":
        return FreeConvInput(theta_sq, eigenvalues=np.zeros(1))
    if base == "sample":
        spec = cfg.ensemble_spec()
        lam = eigenvalues_of(sample_matrix(spec, derive_stream(cfg.seed, 0)))
        return FreeConvInput(theta_sq, eigenvalues=lam)
    raise ValueError(f"unknown free-conv base {base!r}")


def _run_free_conv(cfg, out):
    inp = _free_conv_input(cfg)
    eta = float(_stat(cfg, "eta", 1e-4))
    points = int(_stat(cfg, "grid_points", 201))
    profile = density_on_support(inp, points, eta)
    grid, rho = profile.grid, profile.rho
    h = cfg.config_hash()
    density_path = out / "density.csv"
    _write_csv(density_path, h, cfg.seed, "E,rho", list(zip(grid, rho)))

    dev_grid = np.linspace(-2.0, 2.0, int(_stat(cfg, "dev_points", 81)))
    dev_eta = float(_stat(cfg, "dev_eta", 0.01))
    rep = deviation_report(inp, dev_grid, dev_eta)
    dev_path = out / "deviation.csv"
    _write_csv(dev_path, h, cfg.seed, "E,eta,dev_m,dev_rho",
               list(zip(rep.e, rep.eta, rep.dev_m, rep.dev_rho)))
    results = {
        "mass": profile.mass(),
        "max_dev_m": float(rep.dev_m.max()),
    }
    return results, [density_path, dev_path]


def _run_green_compare(cfg, out):
    spec = cfg.ensemble_spec()
    params = cfg.flow_params(spec)
    e_list = [float(v) for v in _stat(cfg, "e_list", [0.0])]
    eta = float(_stat(cfg, "eta", 1.0 / spec.n))
    f_kind = str(_stat(cfg, "f_kind", "im"))
    kappa = float(_stat(cfg, "kappa", 0.1))
    delta = float(_stat(cfg, "delta", 0.5))
    zs = [complex(e, eta) for e in e_list]
    cmp = stats.green_trace_comparison(
        spec, params, zs, f_kind, cfg.trials, cfg.seed,
        kappa=kappa, delta=delta, threads=cfg.threads,
    )
    payload = {
        "config_hash": cfg.config_hash(),
        "seed": int(cfg.seed),
        "t": params.t,
        "f_kind": f_kind,
        "points": [
            {"e": z.real, "eta": z.imag, "diff": d, "se": s}
            for z, d, s in zip(cmp.z, cmp.diff, cmp.se)
        ],
        "trials": cfg.trials,
    }
    path = out / "green_compare.json"
    _write_json(path, payload)
    return payload, [path]


def _run_acceptance(cfg, out):
    from .acceptance import run_acceptance

    scale = float(_stat(cfg, "scale", 1.0))
    report = run_acceptance(seed=cfg.seed, threads=cfg.threads, scale=scale,
                            out_dir=out)
    results = {
        "passed": all(c["passed"] for c in report["criteria"]),
        "criteria": report["criteria"],
    }
    return results, [out / "acceptance_report.json"]


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
    """Execute one experiment; writes artifacts and returns the report."""
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    results, artifacts = _RUNNERS[config.experiment](config, out)
    elapsed = time.perf_counter() - start

    report = RunReport(
        experiment=config.experiment,
        config_hash=config.config_hash(),
        seed=int(config.seed),
        config=config.hashable_dict(),
        results=results,
        artifacts=[str(p) for p in artifacts],
        wall_clock_s=elapsed,
    )
    if config.experiment != "acceptance":
        report_path = out / "report.json"
        _write_json(report_path, {
            "experiment": report.experiment,
            "config_hash": report.config_hash,
            "seed": report.seed,
            "config": report.config,
            "results": _jsonable(results),
        })
        report.artifacts.append(str(report_path))
    return report


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

"""Desk-scale acceptance suite.

Each criterion is a statistical surrogate for an asymptotic statement, run at
fixed sizes with pinned tolerances, and reports one PASS/FAIL line.  The suite
is deterministic given (seed, scale): every Monte Carlo trial draws from a
stream addressed by a criterion-specific base plus the trial number, and the
two long ensembles at N = 1000 are sampled once and shared by the gap and
correlation criteria.

``scale`` shrinks trial counts proportionally for smoke runs; the pass/fail
tolerances never move.
"""

import functools
import math
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import experiments
from . import statistics as stats
from .ensembles import EnsembleSpec, _sample_upper, _symmetric_from_upper
from .ensembles import sample_matrix  # noqa: F401  (rebound here by perfbench's tracer)
from .experiments import DEFAULT_SEED
from .flow import FlowParams, _decompose_upper, _evolve_upper
from .flow import decompose_sample, evolve  # noqa: F401  (rebound here by perfbench's tracer)
from .free_conv import FreeConvInput, density_from_stieltjes, solve_m_t
from .rng import derive_stream, trial_map
from .spectral import (
    DeformationSelector,
    classical_location,
    eigenvalues_of,
    eigh,
    eigenvalue_derivatives,
    local_law_deviation,
    m_sc,
    rho_sc,
    semicircle_cdf,
)

__all__ = ["AcceptanceSuite", "CriterionResult", "run_acceptance", "DEFAULT_SEED"]

# Disjoint stream-index blocks of _BLOCK indices, one per sampling purpose, so
# no two purposes ever read the same keystream.
_BLOCK = 1 << 20
_BASE_SPARSE_1000 = 0
_BASE_GOE_1000 = 1 << 20
_BASE_SEMICIRCLE = 2 << 20
_BASE_LOCAL_LAW = 3 << 20
_BASE_REPULSION_SPARSE = 4 << 20
_BASE_REPULSION_GOE = 5 << 20
_BASE_FLOW_LAW = 6 << 20
_BASE_FLOW_CONT = 7 << 20
_BASE_PERTURB = 8 << 20
_BASE_STABILITY = 9 << 20


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict
    elapsed_s: float

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        summary = ", ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in self.details.items()
        )
        return f"[{self.number:2d}/11] {status} {self.name}: {summary} ({self.elapsed_s:.1f}s)"


def _criterion(number, name, budget_s=None):
    """Make a method returning ``(passed, details)`` a timed criterion.

    The method returns its CriterionResult.  Under a runtime budget the wall
    time must also stay within ``budget_s``: ``runtime_ok`` is appended to the
    details and joins the pass.
    """
    def decorate(body):
        @functools.wraps(body)
        def criterion(self):
            start = time.perf_counter()
            passed, details = body(self)
            elapsed = time.perf_counter() - start
            if budget_s is not None:
                details["runtime_ok"] = elapsed <= budget_s
                passed = passed and details["runtime_ok"]
            return CriterionResult(number, name, bool(passed), details, elapsed)
        return criterion
    return decorate


class AcceptanceSuite:
    def __init__(self, seed=DEFAULT_SEED, threads=1, scale=1.0):
        if not 0 < scale < _BLOCK:
            raise ValueError(f"scale must lie in (0, {_BLOCK}), got {scale}")
        self.seed = int(seed)
        self.threads = int(threads)
        self.scale = float(scale)
        streams = 4 * sum(self._flow_law_trials())  # the most of any purpose
        if streams > _BLOCK:
            raise ValueError(f"scale {scale}: criterion 6 reads {streams} > {_BLOCK} streams")

    def _trials(self, nominal, minimum=4):
        return max(minimum, int(round(nominal * self.scale)))

    def _flow_law_trials(self):
        """Criterion 6's moment trials and spectrum pairs; four streams each."""
        return self._trials(10_000), self._trials(200)

    def _spectra(self, spec: EnsembleSpec, trials, base):
        return stats.sample_spectra(spec, trials, self.seed, stream_base=base,
                                    threads=self.threads)

    def _flow_pair(self, spec, params, base):
        """H_t by ``evolve`` and by ``decompose_sample``, from independent H_0,
        as packed upper triangles.

        Reads streams base..base+3: H_0 and noise for each path in turn.
        """
        h_e = _evolve_upper(
            _sample_upper(spec, derive_stream(self.seed, base)),
            params, derive_stream(self.seed, base + 1),
        )
        h_d = _decompose_upper(
            _sample_upper(spec, derive_stream(self.seed, base + 2)),
            params, derive_stream(self.seed, base + 3),
        )
        return h_e, h_d

    # -- criterion 1 -------------------------------------------------------

    @_criterion(1, "semicircle-law", budget_s=120.0)
    def criterion_semicircle(self):
        """Mean spectral CDF of the densest sparse ensemble vs the semicircle.

        q sits just below sqrt(N) (exponent 0.499): at exponent 1/2 exactly
        the entry probability reaches 1 and the construction degenerates.
        The top eigenvalue (the rank-one mean outlier) is excluded.
        """
        spec = EnsembleSpec(n=2000, kind="erdos_renyi", q_exponent=0.499)
        trials = self._trials(10, minimum=2)
        spectra = self._spectra(spec, trials, _BASE_SEMICIRCLE)
        pooled = np.concatenate([lam[:-1] for lam in spectra])
        ks = stats.ks_distance_to_cdf(pooled, semicircle_cdf)
        return ks <= 0.03, {"ks": float(ks), "tol": 0.03, "trials": trials}

    # -- criterion 2 -------------------------------------------------------

    @_criterion(2, "local-law")
    def criterion_local_law(self):
        """|m_N - m_sc| <= 5 (1/q + 1/(N eta)) on a fixed grid, >= 95% of pairs."""
        n = 1000
        spec = EnsembleSpec(n=n, kind="erdos_renyi", q_exponent=0.4)
        trials = self._trials(20)
        es = [-1.0, -0.5, 0.0, 0.5, 1.0]
        etas = [n ** -0.9, n ** -0.5, 0.1]
        grid = np.array([e + 1j * eta for eta in etas for e in es])
        passed = np.array([local_law_deviation(lam, grid, spec.q).passed
                           for lam in self._spectra(spec, trials, _BASE_LOCAL_LAW)])
        frac = float(passed.mean())
        return frac >= 0.95, {"pass_fraction": frac, "tol": 0.95,
                              "pairs": int(passed.size)}

    # -- criteria 3 and 4 (shared N=1000 ensembles) -------------------------

    @functools.cached_property
    def _universality_spectra(self):
        trials = self._trials(200)
        sparse = self._spectra(
            EnsembleSpec(n=1000, kind="erdos_renyi", q_exponent=0.4),
            trials, _BASE_SPARSE_1000,
        )
        goe = self._spectra(
            EnsembleSpec(n=1000, kind="goe"), trials, _BASE_GOE_1000
        )
        return sparse, goe, trials

    @_criterion(3, "gap-universality", budget_s=900.0)
    def criterion_gap_universality(self):
        """KS distance between sparse and GOE normalized bulk-gap samples."""
        sparse, goe, trials = self._universality_spectra
        kappa = 0.25
        gaps_sparse = np.concatenate([stats.bulk_gaps(s, kappa) for s in sparse])
        gaps_goe = np.concatenate([stats.bulk_gaps(s, kappa) for s in goe])
        ks = stats.ks_distance(gaps_sparse, gaps_goe)
        return ks <= 0.02, {"ks": float(ks), "tol": 0.02, "trials": trials,
                            "samples": int(gaps_sparse.size)}

    @_criterion(4, "correlation-average")
    def criterion_correlation_average(self):
        """Window-averaged pair correlation estimator, sparse vs GOE."""
        sparse, goe, trials = self._universality_spectra
        n = 1000
        obs = stats.ObservableSpec(center=0.0, width=4.0)
        b = n ** -0.9
        est_s = stats.correlation_average(sparse, 0.0, b, obs)
        est_g = stats.correlation_average(goe, 0.0, b, obs)
        diff = abs(est_s.value - est_g.value)
        se = math.hypot(est_s.se, est_g.se)
        tol = max(3.0 * se, 0.05)
        return diff <= tol, {"diff": float(diff), "tol": float(tol), "sparse": est_s.value,
                             "goe": est_g.value, "trials": trials}

    # -- criterion 5 -------------------------------------------------------

    @_criterion(5, "level-repulsion")
    def criterion_level_repulsion(self):
        """P(normalized central gap <= 0.1) stays below 0.012 for both laws.

        The GOE spacing-surmise mass below 0.1 is 1 - exp(-pi 0.01/4) ~ 0.0078,
        so 0.012 leaves a 1.5x margin; the envelope N^(-tau/2) at tau = 0.2 is
        far looser.
        """
        n = 500
        i = n // 2 - 1
        trials = self._trials(2000)
        gamma = classical_location(i, n)
        threshold = 0.1 / (n * rho_sc(gamma))
        sparse = stats.level_repulsion_probability(
            EnsembleSpec(n=n, kind="erdos_renyi", q_exponent=0.4), i, trials,
            self.seed, threshold=float(threshold),
            stream_base=_BASE_REPULSION_SPARSE, threads=self.threads,
        )
        goe = stats.level_repulsion_probability(
            EnsembleSpec(n=n, kind="goe"), i, trials, self.seed,
            threshold=float(threshold), stream_base=_BASE_REPULSION_GOE,
            threads=self.threads,
        )
        envelope = n ** -0.1
        surmise_mass = 1.0 - math.exp(-math.pi * 0.01 / 4.0)
        ok = (
            sparse.frequency <= 0.012
            and goe.frequency <= 0.012
            and sparse.frequency <= envelope
            and goe.frequency <= envelope
        )
        return ok, {"sparse_freq": sparse.frequency, "goe_freq": goe.frequency,
                    "tol": 0.012, "surmise_mass": surmise_mass, "trials": trials}

    # -- criterion 6 -------------------------------------------------------

    @_criterion(6, "flow-law-equivalence")
    def criterion_flow_law_equivalence(self):
        """The direct flow law and the Gaussian-divisible split agree.

        Entry means/variances pooled over the upper triangle must match
        within 4 combined standard errors; pooled spectra from the two paths
        must match in KS distance.
        """
        n, t = 200, 0.5
        spec = EnsembleSpec(n=n, kind="erdos_renyi", q_exponent=0.4)
        params = FlowParams(n=n, t=t, mean=spec.entry_mean)
        trials, ks_trials = self._flow_law_trials()
        f = spec.entry_mean

        def one(k):
            out = []
            for x in self._flow_pair(spec, params, _BASE_FLOW_LAW + 4 * k):
                c2 = x - f
                c2 *= c2
                out.extend((x.sum(), c2.sum(), (c2 * c2).sum()))
            return out

        acc = np.sum(np.array(trial_map(one, trials, self.threads)), axis=0)
        m_entries = trials * (n * (n + 1) // 2)
        mom = {name: dict(zip(("mean", "var", "m4"), acc[off:off + 3] / m_entries))
               for name, off in (("evolve", 0), ("decompose", 3))}
        se_mean = math.hypot(
            *(math.sqrt(mom[p]["var"] / m_entries) for p in ("evolve", "decompose"))
        )
        se_var = math.hypot(
            *(
                math.sqrt(max(mom[p]["m4"] - mom[p]["var"] ** 2, 0.0) / m_entries)
                for p in ("evolve", "decompose")
            )
        )
        dmean = abs(mom["evolve"]["mean"] - mom["decompose"]["mean"])
        dvar = abs(mom["evolve"]["var"] - mom["decompose"]["var"])
        moments_ok = dmean <= 4.0 * se_mean and dvar <= 4.0 * se_var

        def spectrum_pair(k):
            pair = self._flow_pair(spec, params, _BASE_FLOW_LAW + 4 * (trials + k))
            return tuple(eigenvalues_of(_symmetric_from_upper(n, x)) for x in pair)

        pairs = trial_map(spectrum_pair, ks_trials, self.threads)
        ks = stats.ks_distance(
            np.concatenate([p[0] for p in pairs]),
            np.concatenate([p[1] for p in pairs]),
        )
        return moments_ok and ks <= 0.02, {
            "dmean_sigmas": dmean / se_mean if se_mean else 0.0,
            "dvar_sigmas": dvar / se_var if se_var else 0.0,
            "ks": float(ks), "ks_tol": 0.02, "trials": trials}

    # -- criterion 7 -------------------------------------------------------

    @_criterion(7, "free-convolution")
    def criterion_free_convolution(self):
        """Solver vs the scaled-semicircle closed form, plus the atom base.

        Semicircle (+) theta-semicircle is the semicircle of variance
        1 + theta^2, so m_t(z) = m_sc(z/s)/s with s = sqrt(1.25).  The solver
        starts every point at that value, so this leg checks the start and
        its residual certificate, not the iteration.  The atom leg does run
        the iteration: an atom at 0 deforms to the radius-2theta semicircle
        with density 1/pi at 0 for theta = 1.
        """
        inp = FreeConvInput(theta_sq=0.25)
        scale = math.sqrt(1.25)
        zs = np.linspace(-2.0, 2.0, 200) + 0.01j
        # The oracle stays point by point: m_sc rounds differently on an array.
        worst = max(abs(m - m_sc(z / scale) / scale)
                    for z, m in zip(zs, solve_m_t(zs, inp)))
        atom = FreeConvInput(theta_sq=1.0, eigenvalues=np.zeros(1))
        rho0 = density_from_stieltjes(atom, 0.0, 1e-6)
        atom_err = abs(rho0 - 1.0 / math.pi)
        return worst <= 1e-8 and atom_err <= 1e-4, {
            "max_dev": float(worst), "tol": 1e-8,
            "atom_err": float(atom_err), "atom_tol": 1e-4}

    # -- criterion 8 -------------------------------------------------------

    @_criterion(8, "perturbation-formulas")
    def criterion_perturbation_formulas(self):
        """Closed-form eigenvalue derivatives vs finite differences.

        The oracle is Richardson-extrapolated central differencing of the
        exact eigenvalues of the shifted matrix: one extrapolation step kills
        the leading eps^2 truncation term, and the base steps are large
        enough that eigensolver roundoff stays far below each tolerance.
        """
        n = 50
        rng = derive_stream(self.seed, _BASE_PERTURB)
        spacings = 0.01 + 0.03 * rng.uniform(size=n - 1)
        lam = np.concatenate([[0.0], np.cumsum(spacings)])
        lam -= lam.mean()
        g = rng.gaussian(0.0, 1.0, size=(n, n))
        qmat, _ = np.linalg.qr(g)
        a = qmat @ np.diag(lam) @ qmat.T
        a = 0.5 * (a + a.T)
        dec = eigh(a)

        eps = {1: 3e-5, 2: 4e-4, 3: 2e-3}
        tol = {1: 1e-6, 2: 1e-4, 3: 1e-2}

        def shifted(sel, e):
            b = a.copy()
            b[sel.a, sel.b] += e
            if sel.a != sel.b:
                b[sel.b, sel.a] += e
            return eigenvalues_of(b)

        def central(order, i, sel, e):
            if order == 1:
                return (shifted(sel, e)[i] - shifted(sel, -e)[i]) / (2 * e)
            if order == 2:
                return (shifted(sel, e)[i] - 2 * dec.eigenvalues[i]
                        + shifted(sel, -e)[i]) / (e * e)
            return (shifted(sel, 2 * e)[i] - 2 * shifted(sel, e)[i]
                    + 2 * shifted(sel, -e)[i] - shifted(sel, -2 * e)[i]) / (2 * e ** 3)

        worst = {1: 0.0, 2: 0.0, 3: 0.0}
        n_triples = 100
        for _ in range(n_triples):
            i = int(rng.uniform() * n)
            aa = int(rng.uniform() * n)
            bb = int(rng.uniform() * n)
            sel = DeformationSelector(min(aa, bb), max(aa, bb))
            for order in (1, 2, 3):
                e = eps[order]
                fd = (4.0 * central(order, i, sel, e / 2)
                      - central(order, i, sel, e)) / 3.0
                exact = eigenvalue_derivatives(dec, i, sel, order)
                rel = abs(exact - fd) / max(abs(exact), abs(fd), 1e-12)
                worst[order] = max(worst[order], rel)
        ok = all(worst[o] <= tol[o] for o in (1, 2, 3))
        return ok, {"rel1": worst[1], "rel2": worst[2], "rel3": worst[3],
                    "triples": n_triples}

    # -- criterion 9 -------------------------------------------------------

    @_criterion(9, "stability-inequality")
    def criterion_stability_inequality(self):
        """|m_sc(z + dz) - m_sc(z)| <= 2 |dz|^(1/2), zero violations allowed."""
        rng = derive_stream(self.seed, _BASE_STABILITY)
        n_pairs = 10_000
        e = -5.0 + 10.0 * rng.uniform(size=n_pairs)
        eta = 5.0 * rng.uniform(size=n_pairs)
        eta[: n_pairs // 5] = 0.0  # include boundary points on the real axis
        rho = rng.uniform(size=n_pairs)
        phi = math.pi * rng.uniform(size=n_pairs)
        z = e + 1j * eta
        dz = rho * np.exp(1j * phi)
        lhs = np.abs(m_sc(z + dz) - m_sc(z))
        rhs = 2.0 * np.sqrt(np.abs(dz))
        violations = int(np.sum(lhs > rhs))
        margin = float((rhs - lhs).min())
        return violations == 0, {"violations": violations, "pairs": n_pairs,
                                 "min_margin": margin}

    # -- criterion 10 ------------------------------------------------------

    @_criterion(10, "flow-continuity")
    def criterion_flow_continuity(self):
        """Coupled E[chi_M(Q_i)] differences shrink with t; exact zero at t=0."""
        n = 200
        spec = EnsembleSpec(n=n, kind="erdos_renyi", q_exponent=0.4)
        i = n // 2 - 1
        cut = stats.CutoffSpec.from_n_tau(n, 0.2)
        trials = self._trials(400)
        flows = [FlowParams(n=n, t=t, mean=spec.entry_mean) for t in (0.0, 1e-4, 1e-2)]
        at0, small, large = stats.chi_q_flow_comparison(
            spec, flows, i, cut, trials, self.seed, stream_base=_BASE_FLOW_CONT,
            threads=self.threads)
        se = math.hypot(small.se, large.se)
        ok = at0.diff == 0.0 and abs(small.diff) <= abs(large.diff) + 3.0 * se
        return ok, {"diff_t0": at0.diff, "diff_small": small.diff,
                    "diff_large": large.diff, "se": se, "trials": trials}

    # -- criterion 11 ------------------------------------------------------

    @_criterion(11, "determinism")
    def criterion_determinism(self):
        """Byte-identical artifacts for thread counts 1 and 4, every kind."""
        configs = _determinism_configs(self.seed)
        mismatches = []
        scratch = Path(tempfile.mkdtemp(prefix="rmtlab-determinism-"))
        try:
            for name, cfg_dict in configs:
                outputs = {}
                for threads in (1, 4):
                    out_dir = scratch / f"{name}-t{threads}"
                    cfg = experiments.ExperimentConfig.from_dict(
                        {**cfg_dict, "threads": threads, "out_dir": str(out_dir)}
                    )
                    experiments.run(cfg)
                    outputs[threads] = {
                        p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
                    }
                if outputs[1] != outputs[4]:
                    mismatches.append(name)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return not mismatches, {"kinds": len(configs), "mismatches": str(mismatches)}

    def all_criteria(self):
        return [
            self.criterion_semicircle,
            self.criterion_local_law,
            self.criterion_gap_universality,
            self.criterion_correlation_average,
            self.criterion_level_repulsion,
            self.criterion_flow_law_equivalence,
            self.criterion_free_convolution,
            self.criterion_perturbation_formulas,
            self.criterion_stability_inequality,
            self.criterion_flow_continuity,
            self.criterion_determinism,
        ]


def _determinism_configs(seed):
    ensemble_er = {"n": 120, "kind": "erdos_renyi", "q_exponent": 0.4}
    ensemble_goe = {"n": 120, "kind": "goe"}
    return [
        ("spectrum", {"experiment": "spectrum", "ensemble": ensemble_goe,
                      "trials": 4, "seed": seed}),
        ("local-law", {"experiment": "local-law", "ensemble": ensemble_er,
                       "trials": 6, "seed": seed,
                       "stats": {"e_list": [0.0, 0.7], "eta_list": [0.05, 0.2]}}),
        ("gaps", {"experiment": "gaps", "ensemble": ensemble_goe,
                  "trials": 6, "seed": seed, "stats": {"kappa": 0.25, "bins": 12}}),
        ("repulsion", {"experiment": "repulsion", "ensemble": ensemble_goe,
                       "trials": 40, "seed": seed, "stats": {"tau": 0.2}}),
        ("flow-compare", {"experiment": "flow-compare", "ensemble": ensemble_er,
                          "flow": {"t": 1e-3}, "trials": 12, "seed": seed,
                          "stats": {"tau": 0.2}}),
        ("free-conv", {"experiment": "free-conv", "trials": 1, "seed": seed,
                       "stats": {"theta_sq": 0.25, "grid_points": 64,
                                 "dev_points": 21}}),
        ("green-compare", {"experiment": "green-compare", "ensemble": ensemble_er,
                           "flow": {"t": 1e-3}, "trials": 12, "seed": seed,
                           "stats": {"e_list": [0.0, 0.5], "eta": 1.0 / 150}}),
    ]


def run_acceptance(seed, threads, scale):
    """Run all 11 criteria, print one line each, and return the report.

    The report carries only deterministic fields (no wall times), so it is
    byte-identical across thread counts; ``experiments.run`` writes it.
    """
    suite = AcceptanceSuite(seed=seed, threads=threads, scale=scale)
    results = []
    for criterion in suite.all_criteria():
        results.append(criterion())
        print(results[-1].line())
    return {
        "seed": int(seed),
        "scale": scale,
        "criteria": [
            {"number": r.number, "name": r.name, "passed": bool(r.passed),
             "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmtlab
import rmtlab.acceptance as acceptance
import rmtlab.cli as cli
import rmtlab.experiments as experiments
import rmtlab.statistics as statistics
from rmtlab.acceptance import _determinism_configs
from rmtlab.experiments import (
    ENSEMBLE_FIELDS,
    EXPERIMENT_KINDS,
    FLOW_EXPERIMENTS,
    FLOW_FIELDS,
    STATS_FIELDS,
    ExperimentConfig,
    _integer,
    _real,
    _reals,
    _scale,
    emit_histogram,
    run,
)
from rmtlab.ensembles import EnsembleSpec
from rmtlab.errors import (
    AccuracyError,
    BranchError,
    DegenerateSpectrumError,
    FixedPointError,
    InfeasibleDecompositionError,
    NumericalError,
)
from rmtlab.rng import trial_map


def read_lines(path):
    return path.read_text().splitlines()


def test_spectrum_contract(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "spectrum",
        "ensemble": {"n": 500, "kind": "goe"},
        "trials": 1,
        "seed": 42,
        "out_dir": str(tmp_path),
    })
    report = run(cfg)
    lines = read_lines(tmp_path / "spectrum_0000.csv")
    assert lines[0].startswith("# config_hash=") and "seed=42" in lines[0]
    assert lines[1] == "index,eigenvalue"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 500
    values = [float(r[1]) for r in rows]
    assert values == sorted(values)
    assert report.config_hash == cfg.config_hash()


def test_identical_config_gives_byte_identical_artifacts(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = ExperimentConfig.from_dict({
            "experiment": "gaps",
            "ensemble": {"n": 150, "kind": "goe"},
            "trials": 4,
            "seed": 7,
            "stats": {"kappa": 0.25, "bins": 10},
            "out_dir": str(out),
        })
        run(cfg)
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outs[0] == outs[1]


def test_thread_count_does_not_change_artifacts(tmp_path):
    outs = {}
    for threads in (1, 4):
        out = tmp_path / f"t{threads}"
        cfg = ExperimentConfig.from_dict({
            "experiment": "local-law",
            "ensemble": {"n": 120, "kind": "erdos_renyi", "q_exponent": 0.4},
            "trials": 6,
            "seed": 11,
            "threads": threads,
            "stats": {"e_list": [0.0, 0.5], "eta_list": [0.05, 0.2]},
            "out_dir": str(out),
        })
        run(cfg)
        outs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outs[1] == outs[4]


@settings(max_examples=15, deadline=None)
@given(n=st.integers(3, 60), kind=st.sampled_from(("erdos_renyi", "sparse_generic")),
       trials=st.integers(1, 8), seed=st.integers(0, 2 ** 64 - 1), data=st.data())
def test_windowed_solves_give_the_same_bytes_at_any_thread_count(n, kind, trials,
                                                                 seed, data):
    # the dense window solves of the worker threads run at the same time
    outs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for threads in (1, 3):
            out = Path(tmp) / f"t{threads}"
            run(ExperimentConfig.from_dict({
                "experiment": "repulsion",
                "ensemble": {"n": n, "kind": kind},
                "trials": trials,
                "seed": seed,
                "threads": threads,
                "stats": {"tau": 0.2},
                "out_dir": str(out),
            }))
            outs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outs[1] == outs[3]
    lo = data.draw(st.integers(0, n - 1))
    select = (lo, data.draw(st.integers(lo, n - 1)))
    rows = [statistics.sample_spectra(EnsembleSpec(n=n, kind=kind), trials, seed,
                                      threads=threads, select=select)
            for threads in (1, 3)]
    assert rows[0].tobytes() == rows[1].tobytes()


def test_flow_compare_report_keys(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "flow-compare",
        "ensemble": {"n": 60, "kind": "erdos_renyi", "q_exponent": 0.4},
        "flow": {"t": 0.0},
        "trials": 5,
        "seed": 3,
        "stats": {"tau": 0.2},
        "out_dir": str(tmp_path),
    })
    run(cfg)
    payload = json.loads((tmp_path / "flow_compare.json").read_text())
    assert {"e0", "et", "diff", "se", "t", "n", "trials", "seed"} <= set(payload)
    assert payload["diff"] == 0.0  # coupled comparison at t = 0


def test_free_conv_artifacts(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "free-conv",
        "trials": 1,
        "seed": 3,
        "stats": {"theta_sq": 0.25, "grid_points": 64, "dev_points": 11},
        "out_dir": str(tmp_path),
    })
    report = run(cfg)
    assert (tmp_path / "density.csv").exists()
    lines = read_lines(tmp_path / "deviation.csv")
    assert lines[1] == "E,eta,dev_m,dev_rho"
    assert report.results["mass"] == pytest.approx(1.0, abs=2e-3)


def test_emit_histogram_single_sample():
    rows = emit_histogram([2.0], bins=1, value_range=(0.0, 4.0))
    left, right, count, density = rows[0]
    assert (left, right, count) == (0.0, 4.0, 1)
    assert density == pytest.approx(1.0 / 4.0)


def test_emit_histogram_uniform_density():
    u = np.random.default_rng(0).uniform(size=10_000)
    rows = emit_histogram(u, bins=10, value_range=(0.0, 1.0))
    assert sum(r[2] for r in rows) == 10_000
    for row in rows:
        assert row[3] == pytest.approx(1.0, abs=0.15)


def test_emit_histogram_rejects_empty():
    with pytest.raises(ValueError):
        emit_histogram([], bins=4)


def test_config_validation_lists_all_violations():
    cfg = ExperimentConfig.from_dict({
        "experiment": "nope",
        "trials": 0,
        "threads": 0,
    })
    with pytest.raises(ValueError, match=re.escape(
            "unknown experiment 'nope'; trials must lie in [1, 1048576], got 0; "
            "threads must lie in [1, inf], got 0")):
        cfg.validate()


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"experiment": "spectrum", "bogus": 1})


def test_cli_runs_spectrum(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiment": "spectrum",
        "ensemble": {"n": 80, "kind": "goe"},
        "trials": 1,
    }))
    code = cli.main([
        "spectrum", "--config", str(config), "--seed", "9",
        "--out", str(tmp_path / "out"), "--threads", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "spectrum_0000.csv" in out
    header = (tmp_path / "out" / "spectrum_0000.csv").read_text().splitlines()[0]
    assert "seed=9" in header  # CLI seed recorded verbatim in the header


def test_cli_invalid_config_exits_2(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiment": "spectrum",
        "ensemble": {"n": 80, "kind": "unknown-kind"},
    }))
    assert cli.main(["spectrum", "--config", str(config)]) == 2


def assert_cli_exits_2(tmp_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))  # writes NaN as the bare token
    experiment = config["experiment"]
    assert cli.main([experiment, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def assert_flow_section_rejected(tmp_path, capsys, config):
    assert_cli_exits_2(tmp_path, capsys, config, "flow:")


@pytest.mark.parametrize("flow", [{"t": 1e-3, "tt": 1.0}, {"t": -1.0}, [0.1],
                                  {"t": 1e-3, "decompose": True}])
def test_cli_bad_flow_section_exits_2(tmp_path, capsys, flow):
    assert_flow_section_rejected(tmp_path, capsys, {
        "experiment": "flow-compare",
        "ensemble": {"n": 40, "kind": "erdos_renyi", "q_exponent": 0.4},
        "flow": flow,
    })


@pytest.mark.parametrize("config", [
    {"experiment": "spectrum", "ensemble": {"n": 40, "kind": "goe"},
     "flow": {"t": 0.5}},
    {"experiment": "free-conv", "stats": {"theta_sq": 0.25},
     "flow": {"bogus": 1}},
])
def test_cli_flow_section_on_other_experiments_exits_2(tmp_path, capsys, config):
    assert_flow_section_rejected(tmp_path, capsys, config)


GOE = {"n": 20, "kind": "goe"}
ER = {"n": 20, "kind": "erdos_renyi", "q_exponent": 0.4}


@pytest.mark.parametrize("config, message", [
    ({"experiment": "gaps", "ensemble": GOE, "stats": {"kapa": 0.3}},
     "reads none of ['kapa']"),
    ({"experiment": "spectrum", "ensemble": GOE, "stats": {"kappa": 0.25}},
     "reads none of ['kappa']"),
    ({"experiment": "acceptance", "ensemble": GOE, "stats": {"scale": 0.01}},
     "ensemble: experiment 'acceptance' reads no ensemble"),
    ({"experiment": "free-conv", "ensemble": ER, "stats": {"theta_sq": 0.25}},
     "unless stats.base is 'sample'"),
    ({"experiment": "spectrum", "ensemble": {**GOE, "q_exponent": 0.3}},
     "kind 'goe' takes no q_exponent"),
    ({"experiment": "spectrum", "ensemble": {**GOE, "mean_f": 0.3}},
     "kind 'goe' fixes its mean"),
    ({"experiment": "repulsion", "ensemble": GOE,
      "stats": {"tau": 0.2, "threshold": 0.01}}, "exactly one of tau and threshold"),
    ({"experiment": "free-conv", "stats": {"theta_sq": 0.25}, "trials": 5},
     "experiment 'free-conv' runs no trials of its own, so trials must be 1, got 5"),
    ({"experiment": "acceptance", "stats": {"scale": 0.01}, "trials": 2},
     "experiment 'acceptance' runs no trials of its own, so trials must be 1, got 2"),
], ids=["gaps-typo", "spectrum-stats", "acceptance-ensemble",
        "free-conv-ensemble", "goe-q-exponent", "goe-mean-f",
        "repulsion-tau-and-threshold", "free-conv-trials", "acceptance-trials"])
def test_cli_rejects_config_fields_nothing_reads(tmp_path, capsys, config, message):
    assert_cli_exits_2(tmp_path, capsys, config, message)


@pytest.mark.parametrize("experiment", FLOW_EXPERIMENTS)
def test_cli_coupled_comparison_with_one_trial_exits_2(tmp_path, capsys, experiment):
    # one trial has no standard error, and "se": Infinity is not JSON
    assert_cli_exits_2(tmp_path, capsys, {
        "experiment": experiment, "ensemble": ER, "flow": {"t": 0.01}, "trials": 1,
    }, "a coupled comparison needs trials >= 2, got 1")


@pytest.mark.parametrize("config, message", [
    ({"experiment": "spectrum", "ensemble": GOE, "seed": 1.5},
     "seed must be an integer"),
    ({"experiment": "spectrum", "ensemble": GOE, "threads": 1.5},
     "threads must be an integer"),
    ({"experiment": "spectrum", "ensemble": GOE, "trials": True},
     "trials must be an integer"),
    ({"experiment": "spectrum", "ensemble": {**GOE, "n": 20.5}},
     "n must be an integer"),
    ({"experiment": "flow-compare", "ensemble": ER, "flow": {"t": float("nan")}},
     "t must be finite"),
    ({"experiment": "free-conv", "stats": {"theta_sq": float("nan")}},
     "theta_sq must be finite"),
    ({"experiment": "repulsion", "ensemble": GOE,
      "stats": {"threshold": float("nan")}}, "threshold must be finite"),
    ({"experiment": "flow-compare", "ensemble": ER, "flow": {"t": 0.01},
      "stats": {"tau": float("nan")}}, "tau must be finite"),
    ({"experiment": "green-compare", "ensemble": ER, "flow": {"t": 0.01},
      "stats": {"e_list": [float("nan")]}}, "e_list[0] must be finite"),
], ids=["seed-float", "threads-float", "trials-bool", "n-float", "flow-t-nan",
        "theta-sq-nan", "threshold-nan", "cutoff-tau-nan", "green-e-nan"])
def test_cli_rejects_non_integer_and_non_finite_numbers(tmp_path, capsys, config,
                                                        message):
    assert_cli_exits_2(tmp_path, capsys, config, message)


SPARSE = {"n": 20, "kind": "sparse_generic", "q_exponent": 0.4}
NAN = float("nan")
# At n = 20 the default window is |E| <= 1.9, eta in [20^-1.5, 1/20] = [0.0112, 0.05].
GREEN_WINDOW = {"experiment": "green-compare", "ensemble": ER, "flow": {"t": 0.01},
                "trials": 3, "stats": {"e_list": [0.0, 1.5], "eta": 0.02}}


def explicit(value):
    """A 20 x 20 explicit profile of 1/n entries with one symmetric pair set."""
    rows = [[1.0 / 20] * 20 for _ in range(20)]
    rows[3][5] = rows[5][3] = value
    return {"type": "explicit", "values": rows}


@pytest.mark.parametrize("config, message", [
    ({"experiment": "gaps", "ensemble": GOE, "stats": {"bins": 12.7}},
     "bins must be an integer"),
    ({"experiment": "repulsion", "ensemble": GOE, "stats": {"index": 4.9, "tau": 0.2}},
     "index must be an integer"),
    ({"experiment": "free-conv",
      "stats": {"theta_sq": 0.25, "grid_points": 32, "dev_points": 7.9}},
     "dev_points must be an integer"),
    ({"experiment": "flow-compare", "ensemble": ER, "flow": {"t": "0.5"}},
     "t must be a number"),
    ({"experiment": "flow-compare", "ensemble": ER, "flow": {"t": True}},
     "t must be a number"),
    ({"experiment": "spectrum", "ensemble": {**ER, "q_exponent": "0.4"}},
     "q_exponent must be a number"),
    ({"experiment": "gaps", "ensemble": GOE, "stats": {"kappa": "0.25"}},
     "kappa must be a number"),
    ({"experiment": "spectrum", "ensemble": {
        **SPARSE, "profile": {"type": "alternating", "lo": "0.8", "hi": 1.2}}},
     "profile.lo must be a number"),
    ({"experiment": "gaps", "ensemble": GOE, "stats": {"bins": True}},
     "bins must be an integer"),
    ({"experiment": "local-law", "ensemble": GOE, "stats": {"prefactor": NAN}},
     "prefactor must be finite"),
    ({"experiment": "local-law", "ensemble": GOE, "stats": {"e_list": [NAN]}},
     "e_list[0] must be finite"),
    ({"experiment": "free-conv", "stats": {"theta_sq": 0.25, "eta": NAN}},
     "eta must be finite"),
    ({"experiment": "free-conv", "stats": {"theta_sq": 0.25, "dev_eta": NAN}},
     "dev_eta must be finite"),
    ({"experiment": "flow-compare", "ensemble": ER,
      "flow": {"t": 0.01, "profile": explicit(float("inf"))}},
     "flow: profile.values[3][5] must be finite"),
    ({"experiment": "flow-compare", "ensemble": ER,
      "flow": {"t": 0.01, "profile": {"type": "explicit", "values": [[1e-9] * 20] * 20}}},
     "flow: profile entries must lie in"),
    # JSON integers beyond the double range
    ({"experiment": "gaps", "ensemble": GOE, "stats": {"kappa": 10 ** 400}},
     "kappa must be finite"),
    ({"experiment": "spectrum", "ensemble": {**ER, "n": 10 ** 400}},
     "ensemble: n must be finite"),
    # a one-point density has no mass, and a deviation report needs a point
    ({"experiment": "free-conv", "stats": {"theta_sq": 0.25, "grid_points": 1}},
     "stats: grid_points must lie in [2, inf], got 1"),
    ({"experiment": "free-conv", "stats": {"theta_sq": 0.25, "grid_points": 0}},
     "stats: grid_points must lie in [2, inf], got 0"),
    ({"experiment": "free-conv", "stats": {"theta_sq": 0.25, "dev_points": 0}},
     "stats: dev_points must lie in [1, inf], got 0"),
    # GREEN_WINDOW's points lie inside the default window (see
    # test_green_compare_honours_f_kind); each key below moves an edge past one
    ({**GREEN_WINDOW, "stats": {**GREEN_WINDOW["stats"], "kappa": 0.6}},
     "z = (1.5+0.02j) outside the window |E| <= 1.4"),
    ({**GREEN_WINDOW, "stats": {**GREEN_WINDOW["stats"], "delta": 0.1}},
     "z = 0.02j outside the window |E| <= 1.9, eta in [0.0371, 0.05]"),
], ids=["bins-float", "index-float", "dev-points-float", "flow-t-string", "flow-t-bool",
        "q-exponent-string", "kappa-string", "profile-lo-string", "bins-bool",
        "prefactor-nan", "e-list-nan", "free-conv-eta-nan", "dev-eta-nan",
        "flow-profile-infinity", "flow-profile-tiny", "kappa-huge-int", "n-huge-int",
        "grid-points-one", "grid-points-zero", "dev-points-zero",
        "green-kappa-excludes-z", "green-delta-excludes-z"])
def test_cli_rejects_malformed_numbers_before_writing(tmp_path, capsys, config,
                                                      message):
    assert_cli_exits_2(tmp_path, capsys, config, message)


@pytest.mark.parametrize("config, message", [
    ({"experiment": "spectrum", "ensemble": GOE, "trials": 10 ** 18},
     "trials must lie in [1, 1048576]"),
    ({"experiment": "spectrum", "ensemble": GOE, "trials": 2 ** 20 + 1},
     "trials must lie in [1, 1048576]"),
    ({"experiment": "acceptance", "stats": {"scale": 26}},
     "stats: scale 26.0: criterion 6 reads 1060800 > 1048576 streams"),
    ({"experiment": "acceptance", "stats": {"scale": 30}},
     "stats: scale 30.0: criterion 6 reads 1224000 > 1048576 streams"),
    ({"experiment": "acceptance", "stats": {"scale": 1e300}},
     "stats: scale must lie in (0, 1048576)"),
    ({"experiment": "acceptance", "stats": {"scale": 0}},
     "stats: scale must lie in (0, 1048576)"),
], ids=["trials-1e18", "trials-block-plus-one", "scale-26", "scale-30",
        "scale-1e300", "scale-zero"])
def test_cli_rejects_configs_that_leave_a_stream_block(tmp_path, capsys, config,
                                                        message):
    assert_cli_exits_2(tmp_path, capsys, config, message)


def test_cli_gaps_with_an_empty_bulk_window_exits_2(tmp_path, capsys):
    # the config validates, but the bulk window of kappa at n = 9 is empty
    config = {"experiment": "gaps", "ensemble": {"n": 9, "kind": "goe"},
              "stats": {"kappa": 0.4667}}
    ExperimentConfig.from_dict(config).validate()
    assert_cli_exits_2(tmp_path, capsys, config,
                       "the bulk window of kappa = 0.4667 holds no gap "
                       "of a spectrum of n = 9")


def test_largest_trials_and_scale_inside_the_stream_blocks_validate():
    for cfg in ({"experiment": "spectrum", "ensemble": GOE, "trials": 2 ** 20},
                {"experiment": "acceptance", "stats": {"scale": 25.7}}):
        ExperimentConfig.from_dict(cfg).validate()
    suite = acceptance.AcceptanceSuite(scale=25.7)
    assert 4 * sum(suite._flow_law_trials()) <= acceptance._BLOCK


def valid_config(kind):
    """A config of this kind that validates, with every section it reads."""
    cfg = {"experiment": kind}
    if kind != "acceptance":
        cfg["ensemble"] = dict(SPARSE)
    if kind == "free-conv":
        cfg["stats"] = {"theta_sq": 0.25, "base": "sample"}
    if kind in FLOW_EXPERIMENTS:
        cfg["flow"] = {"t": 0.01}
        cfg["trials"] = 2
    return cfg


NUMERIC_FIELDS = [
    (kind, section, key, parse)
    for kind in EXPERIMENT_KINDS
    for section, table in (("ensemble", ENSEMBLE_FIELDS), ("flow", FLOW_FIELDS),
                           ("stats", STATS_FIELDS[kind]))
    if section == "stats" or section in valid_config(kind)
    for key, (parse, _) in table.items()
    if getattr(parse, "func", parse) in (_real, _integer, _reals, _scale)  # unwrap a partial
]


@pytest.mark.parametrize("kind, section, key, parse", NUMERIC_FIELDS,
                         ids=[f"{k}-{s}.{f}" for k, s, f, _ in NUMERIC_FIELDS])
def test_field_table_rejects_non_numbers(kind, section, key, parse):
    ExperimentConfig.from_dict(valid_config(kind)).validate()
    integer = getattr(parse, "func", parse) is _integer
    bad_values = [NAN, "1", True, 10 ** 400] + ([2.5] if integer else [])
    for bad in bad_values:
        cfg = valid_config(kind)
        cfg[section] = {**cfg.get(section, {}), key: [bad] if parse is _reals else bad}
        with pytest.raises(ValueError) as info:
            ExperimentConfig.from_dict(cfg).validate()
        named = re.compile(rf"{section}: (.*; )?{key}(\[0\])? must")
        assert named.search(str(info.value)), (bad, str(info.value))


def test_free_conv_reads_an_ensemble_only_for_a_sample_base():
    # the benchmark's free-conv config
    stats = {"theta_sq": 0.25, "base": "sample", "grid_points": 2001}
    ExperimentConfig.from_dict({
        "experiment": "free-conv", "ensemble": ER, "stats": stats,
    }).validate()
    with pytest.raises(ValueError,
                       match="^experiment 'free-conv' needs an ensemble section$"):
        ExperimentConfig.from_dict({"experiment": "free-conv", "stats": stats}).validate()


def test_flow_compare_honours_flow_mean(tmp_path):
    def payload(flow):
        out = tmp_path / str(len(flow))
        run(ExperimentConfig.from_dict({
            "experiment": "flow-compare",
            "ensemble": {"n": 40, "kind": "erdos_renyi", "q_exponent": 0.4},
            "flow": flow, "trials": 6, "seed": 4, "out_dir": str(out),
        }))
        return json.loads((out / "flow_compare.json").read_text())

    plain = payload({"t": 0.05})
    shifted = payload({"t": 0.05, "mean_f": 0.3})
    assert shifted["e0"] == plain["e0"]  # H_0 does not see the flow
    assert shifted["et"] != plain["et"]


def test_green_compare_honours_f_kind(tmp_path):
    cfg = ExperimentConfig.from_dict({
        **GREEN_WINDOW, "stats": {**GREEN_WINDOW["stats"], "f_kind": "re"},
        "seed": 4, "out_dir": str(tmp_path),
    })
    run(cfg)
    points = json.loads((tmp_path / "green_compare.json").read_text())["points"]
    spec = cfg.ensemble_spec()
    [want] = statistics.green_trace_comparison(
        spec, [cfg.flow_params(spec)], [0.02j, 1.5 + 0.02j], "re", 3, 4)
    assert [(p["diff"], p["se"]) for p in points] == list(zip(want.diff, want.se))


def test_flow_params_default_to_the_ensemble_profile():
    profile = {"type": "alternating", "lo": 0.8, "hi": 1.2}
    cfg = ExperimentConfig.from_dict({
        "experiment": "flow-compare",
        "ensemble": {"n": 30, "kind": "sparse_generic", "q_exponent": 0.4,
                     "profile": profile},
        "flow": {"t": 0.1},
    })
    spec = cfg.ensemble_spec()
    params = cfg.flow_params(spec)
    assert np.array_equal(params.profile, spec.profile)
    assert params.r == pytest.approx(0.8)
    cfg.flow["profile"] = "uniform"
    assert cfg.flow_params(spec).profile is None


def test_cli_experiment_mismatch_exits_2(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiment": "gaps",
        "ensemble": {"n": 80, "kind": "goe"},
    }))
    assert cli.main(["spectrum", "--config", str(config)]) == 2


def test_cli_missing_config_file_exits_2(tmp_path):
    assert cli.main(["spectrum", "--config", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("error", [
    NumericalError, FixedPointError, BranchError, AccuracyError,
    DegenerateSpectrumError, InfeasibleDecompositionError,
])
def test_cli_numerical_failure_exits_3(tmp_path, monkeypatch, error):
    def explode(config):
        raise error("did not converge")

    monkeypatch.setattr(cli, "run", explode)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiment": "spectrum",
        "ensemble": {"n": 80, "kind": "goe"},
    }))
    assert cli.main(["spectrum", "--config", str(config)]) == 3


# The last library call each runner makes before ``run`` writes.
LAST_CALL = {
    "spectrum": (statistics, "sample_spectra"),
    "local-law": (experiments, "local_law_deviation"),
    "gaps": (experiments, "emit_histogram"),
    "repulsion": (statistics, "level_repulsion_probability"),
    "flow-compare": (statistics, "chi_q_flow_comparison"),
    "free-conv": (experiments, "deviation_report"),
    "green-compare": (statistics, "green_trace_comparison"),
    "acceptance": (acceptance, "run_acceptance"),
}


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_cli_numerical_failure_in_a_runner_writes_nothing(tmp_path, monkeypatch,
                                                         capsys, kind):
    owner, name = LAST_CALL[kind]

    def explode(*args, **kwargs):
        raise NumericalError(f"{name} failed", residual=0.5)

    monkeypatch.setattr(owner, name, explode)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(valid_config(kind)))
    out = tmp_path / "out"
    assert cli.main([kind, "--config", str(path), "--out", str(out)]) == 3
    assert f"{name} failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, config", _determinism_configs(1729),
                         ids=[name for name, _ in _determinism_configs(1729)])
def test_run_writes_exactly_the_reported_artifacts(tmp_path, name, config):
    out = tmp_path / "out"
    report = run(ExperimentConfig.from_dict({**config, "out_dir": str(out)}))
    paths = [Path(p) for p in report.artifacts]
    assert {p.parent for p in paths} == {out}
    names = [p.name for p in paths]
    assert sorted(names) == sorted(p.name for p in out.iterdir())
    assert names[-1] == "report.json"  # after the files the runner returned


def _python_in_a_subprocess(args, **env):
    """stdout of ``python args`` in a fresh process whose environment sets
    ``env`` (and no other OpenBLAS kernel), with this rmtlab importable; the
    process must exit 0."""
    path = [str(Path(rmtlab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    done = subprocess.run(
        [sys.executable, *args],
        env={**base, **env, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _artifact_bytes_in_a_subprocess(tmp_path, config, names, **env):
    """{name: bytes} of an ``rmtlab`` run of ``config`` in a fresh process
    whose environment sets ``env`` (and no other OpenBLAS kernel); the run
    must write exactly the artifacts ``names``."""
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    (work / "cfg.json").write_text(json.dumps(config))
    _python_in_a_subprocess(["-m", "rmtlab.cli", config["experiment"],
                             "--config", str(work / "cfg.json"),
                             "--out", str(work / "out")], **env)
    artifacts = {p.name: p.read_bytes() for p in (work / "out").iterdir()}
    assert sorted(artifacts) == sorted(names)
    return artifacts


SPECTRUM_ARTIFACTS = ["report.json", "spectrum_0000.csv", "spectrum_0001.csv"]
FREE_CONV_ARTIFACTS = ["density.csv", "deviation.csv", "report.json"]


def test_spectrum_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # From n = 300 up, OpenBLAS's dense eigensolvers round differently at
    # another thread count unless rmtlab.spectral pins them to one.  GOE
    # spectra are tridiagonal solves, which no BLAS thread count moves, so the
    # pin is checked on an Erdős–Rényi spectrum.
    er = {"experiment": "spectrum", "ensemble": {"n": 400, "kind": "erdos_renyi"},
          "trials": 2}
    assert (_artifact_bytes_in_a_subprocess(tmp_path, er, SPECTRUM_ARTIFACTS,
                                            OPENBLAS_NUM_THREADS="1")
            == _artifact_bytes_in_a_subprocess(tmp_path, er, SPECTRUM_ARTIFACTS,
                                               OPENBLAS_NUM_THREADS="2"))


def _cpu_has(flag):
    try:
        return flag in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


needs_haswell_kernel = pytest.mark.skipif(not _cpu_has("avx2"),
                                          reason="OpenBLAS's Haswell kernel needs AVX2")


def _bytes_under_both_kernels(tmp_path, config, names):
    return (_artifact_bytes_in_a_subprocess(tmp_path, config, names),
            _artifact_bytes_in_a_subprocess(tmp_path, config, names,
                                            OPENBLAS_CORETYPE="Haswell"))


@needs_haswell_kernel
def test_goe_spectrum_bytes_do_not_depend_on_the_openblas_kernel(tmp_path):
    # Dense eigensolves round differently under another OpenBLAS kernel; GOE
    # spectra come from the tridiagonal model, whose solve does not.
    goe = {"experiment": "spectrum", "ensemble": {"n": 400, "kind": "goe"}, "trials": 2}
    default, haswell = _bytes_under_both_kernels(tmp_path, goe, SPECTRUM_ARTIFACTS)
    assert default == haswell


@needs_haswell_kernel
@pytest.mark.parametrize("base", ["semicircle", "atom", "goe-sample"])
def test_free_conv_bytes_on_the_analytic_and_goe_bases_do_not_depend_on_the_openblas_kernel(
        tmp_path, base):
    # The analytic bases need no eigensolve, a sampled GOE base is a
    # tridiagonal solve, and the solver itself calls no BLAS.
    config = {"experiment": "free-conv", "stats": {"theta_sq": 1.0, "base": base}}
    if base == "goe-sample":
        config["ensemble"] = {"n": 400, "kind": "goe"}
        config["stats"]["base"] = "sample"
    default, haswell = _bytes_under_both_kernels(tmp_path, config, FREE_CONV_ARTIFACTS)
    assert default == haswell


# Writes every layer's output at seed 1729 to the .npz file argv[1] and prints
# the OpenBLAS core names of numpy and scipy.  The packed samples, the flow and
# the tridiagonal solves call no BLAS; the dense solves do.
_KERNEL_PROBE = """
import ctypes, sys
import numpy as np
from numpy.linalg import _umath_linalg
from scipy.linalg import _flapack
from rmtlab.ensembles import (EnsembleSpec, _sample_upper, alternating_profile,
                              sample_goe_tridiagonal, sample_matrix)
from rmtlab.flow import FlowParams, decompose_sample, evolve
from rmtlab.rng import derive_stream
from rmtlab.spectral import _library_symbol, eigenvalues_of

for module, suffix in ((_umath_linalg, "64_"), (_flapack, "")):
    corename = _library_symbol(module, ("scipy_openblas_get_corename" + suffix,
                                        "openblas_get_corename"))
    corename.restype = ctypes.c_char_p
    print(corename().decode())
out = {}
n = 200
specs = [EnsembleSpec(n=n, kind="erdos_renyi"), EnsembleSpec(n=n, kind="goe"),
         EnsembleSpec(n=n, kind="sparse_generic", q_exponent=0.3,
                      profile=alternating_profile(n, 0.5, 1.5))]
for k, spec in enumerate(specs):
    out[f"packed_{spec.kind}"] = _sample_upper(spec, derive_stream(1729, k))
h0 = sample_matrix(specs[0], derive_stream(1729, 3))
out["evolve"] = evolve(h0, FlowParams(n=n, t=0.1), derive_stream(1729, 4))
flow = decompose_sample(h0, FlowParams(n=n, t=0.1), derive_stream(1729, 5))
out["decompose"] = np.stack([flow.h_t, flow.h_t1, flow.goe_part])
tri = sample_goe_tridiagonal(1000, derive_stream(1729, 6))
out["tridiagonal"] = np.concatenate([tri.diag, tri.offdiag])
out["tridiagonal_full"] = eigenvalues_of(tri)
out["tridiagonal_window"] = eigenvalues_of(tri, select=(499, 500))
out["dense_full"] = eigenvalues_of(
    sample_matrix(EnsembleSpec(n=1000, kind="erdos_renyi"), derive_stream(1729, 7)))
h = sample_matrix(EnsembleSpec(n=500, kind="erdos_renyi"), derive_stream(1729, 8))
out["dense_window"] = eigenvalues_of(h, select=(0, 499))
out["dense_central_window"] = eigenvalues_of(h, select=(249, 250))
np.savez(sys.argv[1], **out)
"""

# Dense eigenvalues under another kernel lie within DENSE_KERNEL_C eps max|lambda|
# of the default kernel's.  The largest ratio seen was 32, over full ER spectra
# at n = 1000 and full and central ER windows at n = 500 (seeds 1729 and 1-10,
# SkylakeX against Haswell; at most 1.3e-13 apart).
DENSE_KERNEL_C = 64


@needs_haswell_kernel
def test_only_dense_eigensolves_depend_on_the_openblas_kernel(tmp_path):
    default, haswell = tmp_path / "default.npz", tmp_path / "haswell.npz"
    _python_in_a_subprocess(["-c", _KERNEL_PROBE, str(default)])
    cores = _python_in_a_subprocess(["-c", _KERNEL_PROBE, str(haswell)],
                                    OPENBLAS_CORETYPE="Haswell")
    assert cores.split() == ["Haswell", "Haswell"]
    default, haswell = np.load(default), np.load(haswell)
    dense = {"dense_full", "dense_window", "dense_central_window"}
    assert sorted(default.files) == sorted(haswell.files)
    for name in default.files:
        if name in dense:
            bound = DENSE_KERNEL_C * np.finfo(float).eps * np.abs(default[name]).max()
            assert np.abs(default[name] - haswell[name]).max() <= bound, name
        else:
            assert default[name].tobytes() == haswell[name].tobytes(), name


def test_cli_acceptance_prints_every_criterion_and_writes_only_its_report(tmp_path,
                                                                          capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "acceptance", "stats": {"scale": 0.01}}))
    out = tmp_path / "out"
    assert cli.main(["acceptance", "--config", str(path), "--out", str(out)]) == 0
    lines = re.findall(r"^\[ ?(\d+)/11\] (?:PASS|FAIL) ", capsys.readouterr().out,
                       re.MULTILINE)
    assert lines == [str(k) for k in range(1, 12)]
    assert [p.name for p in out.iterdir()] == ["acceptance_report.json"]
    report = json.loads((out / "acceptance_report.json").read_text())
    assert set(report) == {"seed", "scale", "criteria", "all_passed"}
    assert (report["seed"], report["scale"], len(report["criteria"])) == (1729, 0.01, 11)


def test_cli_numerical_failure_names_trial_and_residual(tmp_path, monkeypatch, capsys):
    def trial(k):
        if k == 2:
            raise NumericalError("residual too big", residual=0.5)

    monkeypatch.setattr(cli, "run", lambda config: trial_map(trial, 4))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiment": "spectrum",
        "ensemble": {"n": 80, "kind": "goe"},
    }))
    assert cli.main(["spectrum", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert "trial 2" in err and "residual 5.000e-01" in err


def test_profile_round_trip(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "spectrum",
        "ensemble": {"n": 40, "kind": "sparse_generic", "q_exponent": 0.4,
                     "profile": {"type": "alternating", "lo": 0.8, "hi": 1.2}},
        "trials": 1,
        "seed": 1,
        "out_dir": str(tmp_path),
    })
    spec = cfg.ensemble_spec()
    assert spec.profile.min() == pytest.approx(0.8 / 40)
    run(cfg)


def test_default_threads_use_every_usable_cpu_and_write_the_bytes_of_one(tmp_path):
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    assert ExperimentConfig(experiment="repulsion").threads == usable
    config = tmp_path / "rep.json"
    config.write_text(json.dumps({
        "experiment": "repulsion",
        "ensemble": {"n": 120, "kind": "erdos_renyi"},
        "stats": {"tau": 0.2},
        "trials": 8,
    }))
    outs = {}
    for tag, extra in (("default", []), ("one", ["--threads", "1"])):
        out = tmp_path / tag
        assert cli.main(["repulsion", "--config", str(config), "--out", str(out),
                         *extra]) == 0
        outs[tag] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outs["default"] == outs["one"]


def test_hash_excludes_scheduling_knobs():
    base = {
        "experiment": "spectrum",
        "ensemble": {"n": 80, "kind": "goe"},
        "trials": 2,
        "seed": 5,
    }
    a = ExperimentConfig.from_dict({**base, "threads": 1, "out_dir": "x"})
    b = ExperimentConfig.from_dict({**base, "threads": 8, "out_dir": "y"})
    assert a.config_hash() == b.config_hash()
    c = ExperimentConfig.from_dict({**base, "seed": 6})
    assert c.config_hash() != a.config_hash()

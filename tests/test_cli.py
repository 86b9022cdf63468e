"""End-to-end command-line checks, driven through main() plus a few subprocess runs."""

import copy
import hashlib
import importlib.metadata
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnr_lab import (EfficiencyInput, FitConfig, Histogram, MixtureModel, __version__,
                     build_scheme, confusion, expected_counts, fit_spectrum,
                     measured_efficiency, photon_flux, read_histogram_csv, read_pulses_csv,
                     report_to_json, variance_law, write_histogram_csv)
from pnr_lab.cli import _json, main

from conftest import RANK_DEFICIENT_INIT, REF_MULT_VAR, law_stds

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SIM_MODEL = {
    "mean_photon_number": 1.2 / 0.85,
    "quantum_efficiency": 0.85,
    "gain_per_photon": 135.0,
    "mult_noise_var": 276.0,
    "electronic_noise_var": 112.36,
    "extra_per_photon_var": 246.0,
}


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


@pytest.fixture
def sim_config(tmp_path):
    return write_config(tmp_path / "sim.json",
                        {"model": SIM_MODEL, "n_pulses": 30_000, "seed": 3})


FIT_DOC = {"n_peaks": 5, "constraint": "free"}
QE_DOC = {"wavelength_m": 543e-9, "power_w": 2e-9, "nd_transmission": 1e-4,
          "counts_per_s": 464749.6, "dark_counts_per_s": 100.0, "loss_factors": [0.93, 0.99]}


def run_sim(tmp_path, sim_config, sub="runA", extra=()):
    out = tmp_path / sub
    code = main(["simulate", sim_config, "--out-dir", str(out), "--quiet",
                 *extra])
    return code, out


# ---------------------------------------------------------------- simulate

def test_simulate_writes_files_and_manifest(tmp_path, sim_config):
    code, out = run_sim(tmp_path, sim_config)
    assert code == 0
    for name in ("pulses.csv", "histogram.csv", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 3
    assert sorted(p.rsplit("/", 1)[-1] for p in manifest["outputs"]) == [
        "histogram.csv", "pulses.csv"]
    assert manifest["duration_s"] >= 0


def test_simulate_reruns_are_byte_identical(tmp_path, sim_config):
    _, out_a = run_sim(tmp_path, sim_config, "runA")
    _, out_b = run_sim(tmp_path, sim_config, "runB")
    for name in ("pulses.csv", "histogram.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    ma = json.loads((out_a / "manifest.json").read_text())
    mb = json.loads((out_b / "manifest.json").read_text())
    ma.pop("duration_s"), mb.pop("duration_s")
    # outputs are path strings that embed the run directory
    assert [p.rsplit("/", 1)[-1] for p in ma.pop("outputs")] == \
           [p.rsplit("/", 1)[-1] for p in mb.pop("outputs")]
    assert ma == mb


def test_simulate_worker_count_does_not_change_bytes(tmp_path, sim_config):
    # --workers is accepted and ignored: the flag still parses and moves no byte
    _, out_1 = run_sim(tmp_path, sim_config, "w1", ("--workers", "1"))
    _, out_4 = run_sim(tmp_path, sim_config, "w4", ("--workers", "4"))
    for name in ("pulses.csv", "histogram.csv"):
        assert (out_1 / name).read_bytes() == (out_4 / name).read_bytes(), name


def test_simulate_seed_override_changes_data(tmp_path, sim_config):
    _, out_a = run_sim(tmp_path, sim_config, "base")
    _, out_b = run_sim(tmp_path, sim_config, "override", ("--seed", "99"))
    assert (out_a / "pulses.csv").read_bytes() != (out_b / "pulses.csv").read_bytes()
    manifest = json.loads((out_b / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_simulate_missing_field_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json", {"model": SIM_MODEL, "seed": 1})
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "o"),
                 "--quiet"]) == 2
    assert "n_pulses" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("n_pulses", 2000.9), ("seed", 16.6),
                                          ("n_peaks", 7.5), ("max_iterations", 2.7)])
def test_simulate_fractional_integer_field_exit_2(tmp_path, capsys, field, value):
    doc = {"model": SIM_MODEL, "n_pulses": 2000, "seed": 16}
    if field in doc:
        argv = ["simulate", write_config(tmp_path / "frac.json", dict(doc, **{field: value}))]
    else:  # pipeline reads its fit section before it simulates
        argv = ["pipeline", write_config(tmp_path / "frac.json",
                                         {"simulate": doc, "fit": dict(FIT_DOC, **{field: value})})]
    assert main([*argv, "--out-dir", str(tmp_path / "o"), "--quiet"]) == 2
    assert f"{field} must be a whole number" in capsys.readouterr().err
    assert not (tmp_path / "o" / "pulses.csv").exists()


@pytest.mark.parametrize("field, value, message", [
    ("mult_noise_var", 1e30, "bins of width 11.25, over the histogram budget of 1000000"),
    ("mean_photon_number", 1e9, "mean_photon_number=1000000000.0 exceeds the Poisson mean budget"),
    ("dark_rate_per_gate", 1e9, "dark_rate_per_gate=1000000000.0 exceeds the Poisson mean budget"),
])
def test_simulate_beyond_a_memory_budget_exit_2(tmp_path, capsys, field, value, message):
    doc = {"model": dict(SIM_MODEL, **{field: value}), "n_pulses": 2000, "seed": 16}
    cfg = write_config(tmp_path / "big.json", doc)
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o" / "pulses.csv").exists()


def test_simulate_cell_assignment_beyond_budget_exit_2(tmp_path, capsys):
    # a mean within the Poisson budget whose chunk of cell assignments is not
    doc = {"model": dict(SIM_MODEL, mean_photon_number=1e6, cell_count=100),
           "n_pulses": 2000, "seed": 16}
    cfg = write_config(tmp_path / "big.json", doc)
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert ("assign 6.96e+09 expected detections per 8192-pulse chunk, over the budget "
            "of 2000000") in err and "Traceback" not in err
    assert not (tmp_path / "o" / "pulses.csv").exists()


@pytest.mark.parametrize("extra, model, message", [
    (("--seed", str(2**64)), {}, f"seed must be <= {2**64 - 1}, got {2**64}"),
    (("--seed=-1",), {}, "seed must be >= 0, got -1"),
    # 10**30 was numpy's "high is out of bounds for int64"; 2**60 wrapped the
    # sampler's int64 (pulse, cell) keys
    ((), {"cell_count": 10**30}, f"cell_count={10**30} exceeds the int64 key budget"),
    ((), {"cell_count": 2**60}, f"cell_count={2**60} exceeds the int64 key budget")],
    ids=["seed-2**64", "seed--1", "cell_count-10**30", "cell_count-2**60"])
def test_simulate_seed_or_cell_count_beyond_64_bits_exit_2(tmp_path, capsys, extra, model,
                                                           message):
    doc = {"model": dict(SIM_MODEL, **model), "n_pulses": 2000, "seed": 16}
    cfg = write_config(tmp_path / "big.json", doc)
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "o"), "--quiet", *extra]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o" / "pulses.csv").exists()


@pytest.mark.parametrize("extra, model", [(("--seed", str(2**64 - 1)), {}),
                                          ((), {"cell_count": 10**12})],
                         ids=["seed-2**64-1", "cell_count-10**12"])
def test_simulate_largest_seed_and_a_large_cell_count_run(tmp_path, extra, model):
    doc = {"model": dict(SIM_MODEL, **model), "n_pulses": 2000, "seed": 16}
    cfg = write_config(tmp_path / "big.json", doc)
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "o"), "--quiet", *extra]) == 0
    assert len(read_pulses_csv(tmp_path / "o" / "pulses.csv")) == 2000


# qe's readings, like the detector model, refuse the NaN and Infinity that
# Python's JSON reader accepts: NaN once printed the invalid JSON "raw": NaN
QE_NON_FINITE = [("wavelength_m", "wavelength must be a finite number > 0", math.nan),
                 ("wavelength_m", "wavelength must be a finite number > 0", math.inf),
                 ("power_w", "power must be a finite number >= 0", -math.inf),
                 ("counts_per_s", "counts must be a finite number >= 0", math.nan),
                 ("dark_counts_per_s", "dark_counts must be a finite number >= 0", math.inf)]

# each type refuses a bool where it takes a number, in a list too
BOOL_REFUSALS = [
    ("n_pulses", True, "n_pulses must be a whole number"),
    ("seed", True, "seed must be a whole number"),
    ("quantum_efficiency", True, "quantum_efficiency must be a finite number >= 0 and <= 1"),
    ("cell_count", True, "cell_count must be a whole number"),
    ("power_w", True, "power must be a finite number >= 0"),
    ("loss_factors", [True, 0.99], "loss_factors[0] must be a finite number > 0 and <= 1")]


@pytest.mark.parametrize("field, value, message", [
    *[pytest.param(field, value, f"{rule}, got True", id=field)
      for field, value, rule in BOOL_REFUSALS],
    *[pytest.param(key, value, f"{rule}, got {value!r}",
                   id=f"{key}-{value!r}") for key, rule, value in QE_NON_FINITE]])
def test_simulate_boolean_number_exit_2(tmp_path, capsys, field, value, message):
    sim = {"model": dict(SIM_MODEL), "n_pulses": 2000, "seed": 16}
    command, doc = ("qe", dict(QE_DOC)) if field in QE_DOC else ("simulate", sim)
    (doc if field in doc else doc["model"])[field] = value
    cfg = write_config(tmp_path / "bool.json", doc)
    flags = [] if command == "qe" else ["--out-dir", str(tmp_path / "o"), "--quiet"]
    assert main([command, cfg, *flags]) == 2
    out, err = capsys.readouterr()
    assert message in err and out == ""
    assert not (tmp_path / "o" / "pulses.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
def test_non_finite_bin_width_exit_2(tmp_path, capsys, monkeypatch, command, value):
    # refused where the config is read: before one pulse is drawn (NaN once
    # simulated every pulse, then failed in the histogram's budget check)
    monkeypatch.setattr("pnr_lab.cli.run", lambda *a, **k: pytest.fail("pulses drawn"))
    sim = {"model": dict(SIM_MODEL), "n_pulses": 2000, "seed": 16, "bin_width": value}
    doc = sim if command == "simulate" else {"simulate": sim, "fit": dict(FIT_DOC)}
    cfg = write_config(tmp_path / "bin.json", doc)
    assert main([command, cfg, "--out-dir", str(tmp_path / "o"), "--quiet"]) == 2
    out, err = capsys.readouterr()
    assert f"bin_width must be a finite number > 0, got {value!r}" in err and out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, extra", [
    ("max_iterations", {"max_iterations": True}),
    ("x0", {"init": {"x0": True, "delta": 135.0, "stds": [10.0] * 5, "weights": [0.2] * 5}}),
    ("tolerance", {"tolerance": math.nan}),
    ("std_dev", {"n_peaks": 7, "init": {"x0": 0.0, "delta": 135.0, "stds": [True] * 7,
                                        "weights": [1 / 7] * 7}}),
])
def test_fit_boolean_number_exit_2(tmp_path, sim_config, capsys, field, extra):
    _, out = run_sim(tmp_path, sim_config)
    fit_cfg = write_config(tmp_path / "fit.json", dict(FIT_DOC, **extra))
    assert main(["fit", str(out / "histogram.csv"), fit_cfg,
                 "--out-dir", str(tmp_path / "fit"), "--quiet"]) == 2
    rule = {"max_iterations": "a whole number, got True", "x0": "a finite number, got True",
            "tolerance": "a finite number > 0, got nan",
            "std_dev": "a finite number > 0, got True"}[field]
    assert f"{field} must be {rule}" in capsys.readouterr().err


def test_fit_tolerance_below_its_floor_exit_2(tmp_path, sim_config, capsys):
    _, out = run_sim(tmp_path, sim_config)
    fit_cfg = write_config(tmp_path / "fit.json", dict(FIT_DOC, tolerance=1e-9))
    assert main(["fit", str(out / "histogram.csv"), fit_cfg,
                 "--out-dir", str(tmp_path / "fit"), "--quiet"]) == 2
    assert "tolerance is in standard errors, >= 0.001; got 1e-09" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("mu", [0, -2.0])
def test_fit_poisson_init_mean_not_positive_exit_2(tmp_path, sim_config, capsys, mu):
    # a Poisson mean <= 0 is refused, not replaced by the weights' mean
    _, out = run_sim(tmp_path, sim_config)
    init = {"x0": 0.0, "delta": 135.0, "stds": [10.0] * 5, "weights": [0.2] * 5, "mu": mu}
    fit_cfg = write_config(tmp_path / "fit.json", dict(FIT_DOC, constraint="poisson", init=init))
    assert main(["fit", str(out / "histogram.csv"), fit_cfg,
                 "--out-dir", str(tmp_path / "fit"), "--quiet"]) == 2
    assert f"poisson_mu must be a finite number > 0, got {mu!r}" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


def test_simulate_accepts_integral_floats(tmp_path):
    cfg = write_config(tmp_path / "sim.json",
                       {"model": SIM_MODEL, "n_pulses": 2e3, "seed": 16.0})
    code, out = run_sim(tmp_path, cfg)
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 16
    assert len((out / "pulses.csv").read_text().splitlines()) == 2 + 2000


@pytest.mark.parametrize("command, doc", [
    ("pipeline", {"simulate": 5, "fit": {}}),
    ("pipeline", {"simulate": {"model": SIM_MODEL, "n_pulses": 2000, "seed": 16}, "fit": 5}),
    ("fit", 5),
    ("fit", {"n_peaks": 5, "init": 5}),
    ("simulate", {"model": 5, "n_pulses": 2000, "seed": 16}),
    ("qe", [1]),
], ids=["simulate-section", "fit-section", "fit-config", "init", "model", "qe-config"])
def test_non_object_config_exit_2(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path / "cfg.json", doc)
    hist = tmp_path / "hist.csv"
    write_histogram_csv(hist, Histogram(bin_edges=np.linspace(0, 100, 11),
                                        counts=np.ones(10, dtype=np.int64), total_pulses=10))
    argv = [command, *([str(hist)] if command == "fit" else []), cfg]
    flags = [] if command == "qe" else ["--out-dir", str(tmp_path / "o"), "--quiet"]
    assert main([*argv, *flags]) == 2
    assert "expected an object" in capsys.readouterr().err
    assert not (tmp_path / "o" / "pulses.csv").exists()


# every field of the simulate, fit and qe configs, init included, small enough
# that a run the config survives costs ~20 ms
SWEEP_DOCS = {
    "pipeline": {
        "simulate": {"model": dict(SIM_MODEL, area_offset=0.0, saturation_coeff=0.0,
                                   dark_rate_per_gate=0.0, cell_count=None),
                     "n_pulses": 2000, "seed": 3, "bin_width": "auto"},
        "fit": {"n_peaks": 5, "constraint": "poisson", "max_iterations": 100, "tolerance": 0.01,
                "init": {"x0": 0.0, "delta": 135.0, "sat": 0.0,
                         "stds": [11.0, 25.0, 32.0, 35.0, 39.0],
                         "weights": [0.3, 0.36, 0.22, 0.09, 0.03], "mu": 1.2}}},
    "qe": QE_DOC,
}


def _paths(doc, prefix=()):
    """The path of `doc` itself and of every value inside its objects."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, (*prefix, key))


SWEEP_SITES = [(command, path) for command, doc in SWEEP_DOCS.items() for path in _paths(doc)]

# non-numeric JSON and a few small numbers, plus the NaN and Infinity that
# Python's json module reads; no value asks for a large run
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.sampled_from(["auto", "free", "poisson", "1000", "2e-9"])
    | st.sampled_from([0, 1, -1, 3, 0.5, 7.5, math.inf, -math.inf, math.nan]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4)


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sweep")


@pytest.mark.parametrize("command, path", SWEEP_SITES,
                         ids=["-".join((c, *p)) for c, p in SWEEP_SITES])
@settings(max_examples=12, deadline=None)
@given(value=JSON_VALUES)
def test_no_config_value_crashes_the_cli(sweep_dir, command, path, value):
    """Any one field, section or whole config replaced by any JSON value ends
    in a result or a refusal, never in a traceback."""
    doc = copy.deepcopy(SWEEP_DOCS[command])
    if path:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    else:
        doc = value
    cfg = write_config(sweep_dir / "cfg.json", doc)
    flags = [] if command == "qe" else ["--out-dir", str(sweep_dir / "out"), "--quiet"]
    assert main([command, cfg, *flags]) in (0, 2, 4)


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": \n  oops}')
    assert main(["simulate", str(bad), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_missing_config_exit_3(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.json"), "--quiet"]) == 3
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------- fit

def test_fit_command(tmp_path, sim_config):
    _, out = run_sim(tmp_path, sim_config)
    fit_cfg = write_config(tmp_path / "fit.json", FIT_DOC)
    fit_out = tmp_path / "fit"
    assert main(["fit", str(out / "histogram.csv"), fit_cfg,
                 "--out-dir", str(fit_out), "--quiet"]) == 0
    report = json.loads((fit_out / "fit_report.json").read_text())
    assert report["converged"] is True
    assert report["constraint"] == "free"
    assert len(report["peaks"]) == 5
    assert {"i", "mean", "std", "weight"} <= set(report["peaks"][0])
    assert report["peaks"][1]["mean"] == pytest.approx(135.0, abs=3.0)

    header = (fit_out / "fit_curve.csv").read_text().splitlines()[:2]
    assert header[0] == "# pnr-lab v1"
    assert header[1].split(",") == ["bin_center", "count", "peak_0", "peak_1",
                                    "peak_2", "peak_3", "peak_4", "model_total"]


def test_fit_nonconvergence_exit_4(tmp_path, sim_config):
    _, out = run_sim(tmp_path, sim_config)
    fit_cfg = write_config(tmp_path / "fit.json",
                           dict(FIT_DOC, max_iterations=1))
    fit_out = tmp_path / "fit"
    assert main(["fit", str(out / "histogram.csv"), fit_cfg,
                 "--out-dir", str(fit_out), "--quiet"]) == 4
    # the report is still written, flagged as not converged, and so is the manifest
    report = json.loads((fit_out / "fit_report.json").read_text())
    assert report["converged"] is False
    assert json.loads((fit_out / "manifest.json").read_text())["command"] == "fit"


def test_fit_empty_histogram_exit_2(tmp_path, capsys):
    hist = Histogram(bin_edges=np.linspace(0, 100, 11),
                     counts=np.zeros(10, dtype=np.int64), total_pulses=0)
    path = tmp_path / "empty.csv"
    write_histogram_csv(path, hist)
    fit_cfg = write_config(tmp_path / "fit.json", FIT_DOC)
    assert main(["fit", str(path), fit_cfg, "--out-dir", str(tmp_path / "o"),
                 "--quiet"]) == 2
    assert "error" in capsys.readouterr().err


def test_fit_rank_deficiency_warning_on_stderr(tmp_path, capsys, rank_deficient_case):
    hist, init = rank_deficient_case
    path = tmp_path / "hist.csv"
    write_histogram_csv(path, hist)
    fit_cfg = write_config(tmp_path / "fit.json", {
        "n_peaks": 12, "constraint": "free", "max_iterations": 40,
        "init": RANK_DEFICIENT_INIT})
    code = main(["fit", str(path), fit_cfg, "--out-dir", str(tmp_path / "o"), "--quiet"])
    # this start stalls at iteration 2: exit 4, with the report still written
    report = json.loads((tmp_path / "o" / "fit_report.json").read_text())
    assert code == 4 and report["converged"] is False
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("warning: ")] == \
        [f"warning: {w}" for w in report["warnings"]]
    assert "warning: rank_deficient: " in err
    assert "warning: stalled: no damping up to 1e12 lowers the objective " in err
    # the config's init is the library's init: the same fit, bit for bit
    want = fit_spectrum(hist, FitConfig(n_peaks=12, max_iterations=40, init=init))
    assert report == json.loads(_json(report_to_json(want)))


# ---------------------------------------------------------------- analyze

def test_analyze_command(tmp_path, sim_config):
    _, out = run_sim(tmp_path, sim_config)
    fit_cfg = write_config(tmp_path / "fit.json", FIT_DOC)
    fit_out = tmp_path / "fit"
    main(["fit", str(out / "histogram.csv"), fit_cfg,
          "--out-dir", str(fit_out), "--quiet"])
    an_out = tmp_path / "analysis"
    assert main(["analyze", str(fit_out / "fit_report.json"),
                 "--out-dir", str(an_out), "--quiet"]) == 0
    doc = json.loads((an_out / "analysis.json").read_text())
    assert set(doc) == {"decision_scheme", "confusion", "noise"}
    assert len(doc["decision_scheme"]["thresholds"]) == 4
    assert len(doc["confusion"]["matrix"]) == 5
    errors = (an_out / "errors_vs_n.csv").read_text().splitlines()
    assert errors[1] == "n,error" and len(errors) == 2 + 5
    variance = (an_out / "variance_vs_n.csv").read_text().splitlines()
    assert variance[1] == "n,std_dev,variance,law_variance"


def test_analyze_unconverged_report_exit_4_and_writes_no_analysis(tmp_path, capsys):
    # as pipeline does after a fit that did not converge: a warning, no data
    # file, a manifest that lists none, and exit code 4
    doc = {"constraint": "free",
           "peaks": [{"i": i, "mean": 100.0 * i, "std": 5.0, "weight": 1 / 3}
                     for i in range(3)],
           "objective": 1.0, "converged": False, "iterations": 3}
    path = write_config(tmp_path / "report.json", doc)
    out = tmp_path / "o"
    assert main(["analyze", path, "--out-dir", str(out), "--quiet"]) == 4
    assert capsys.readouterr().err == "warning: fit did not converge; skipping analysis\n"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "analyze" and manifest["outputs"] == []


def test_analyze_too_few_peaks_exit_2(tmp_path, capsys):
    doc = {"constraint": "free", "x0": 0.0, "delta": 100.0, "sat": 0.0,
           "peaks": [{"i": 0, "mean": 0.0, "std": 5.0, "weight": 0.5},
                     {"i": 1, "mean": 100.0, "std": 5.0, "weight": 0.5}],
           "objective": 1.0, "converged": True, "iterations": 3}
    path = write_config(tmp_path / "report.json", doc)
    assert main(["analyze", path, "--out-dir", str(tmp_path / "o"),
                 "--quiet"]) == 2
    assert "3 peaks" in capsys.readouterr().err
    # a refused run writes no manifest
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("field, value", [
    ("objective", None), ("warnings", 5), ("converged", "false"), ("iterations", 2.9),
    ("peaks", [{"i": i, "mean": 100.0 * i, "std": True, "weight": 1 / 3} for i in range(3)]),
    ("objective", True), ("objective", "12.5")])
def test_analyze_mistyped_report_exit_2(tmp_path, capsys, field, value):
    doc = {"constraint": "free",
           "peaks": [{"i": i, "mean": 100.0 * i, "std": 5.0, "weight": 1 / 3}
                     for i in range(3)],
           "objective": 1.0, "converged": True, "iterations": 3, field: value}
    path = write_config(tmp_path / "report.json", doc)
    assert main(["analyze", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == 2
    assert "malformed fit report" in capsys.readouterr().err


# ---------------------------------------------------------------- qe

def test_qe_command(tmp_path, capsys):
    flux = photon_flux(543e-9, 2e-9)
    cfg = write_config(tmp_path / "qe.json", {
        "wavelength_m": 543e-9,
        "power_w": 2e-9,
        "nd_transmission": 1e-4,
        "counts_per_s": 100.0 + 0.85 * 1e-4 * flux,
        "dark_counts_per_s": 100.0,
        "loss_factors": [0.93, 0.99],
    })
    assert main(["qe", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["raw"] == pytest.approx(0.85, rel=1e-12)
    assert doc["intrinsic"] == pytest.approx(0.9232106006299554, rel=1e-9)
    assert doc["calibration_suspect"] is False


@pytest.mark.parametrize("flag", [("--seed", "1"), ("--out-dir", "run"), ("--quiet",)],
                         ids=lambda f: f[0])
def test_qe_takes_only_its_config(tmp_path, capsys, flag):
    # qe writes nothing and draws nothing: a flag it would ignore is refused
    cfg = write_config(tmp_path / "qe.json", QE_DOC)
    with pytest.raises(SystemExit) as exc:
        main(["qe", cfg, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_qe_zero_power_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "qe.json", {
        "wavelength_m": 543e-9, "power_w": 0.0, "nd_transmission": 1e-4,
        "counts_per_s": 100.0, "dark_counts_per_s": 0.0})
    assert main(["qe", cfg]) == 2
    assert "power" in capsys.readouterr().err


def test_qe_suspect_calibration_still_reports(tmp_path, capsys):
    cfg = write_config(tmp_path / "qe.json", {
        "wavelength_m": 543e-9, "power_w": 2e-9, "nd_transmission": 1e-4,
        "counts_per_s": 10.0, "dark_counts_per_s": 500.0})
    assert main(["qe", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["calibration_suspect"] is True and doc["raw"] < 0


# ---------------------------------------------------------------- pipeline

def test_pipeline_command(tmp_path):
    # `--workers 2` is ignored, but scripts that pass it must keep running
    cfg = write_config(tmp_path / "pipe.json", {
        "simulate": {"model": SIM_MODEL, "n_pulses": 30_000, "seed": 3},
        "fit": FIT_DOC,
    })
    out = tmp_path / "pipe"
    assert main(["pipeline", cfg, "--out-dir", str(out), "--quiet",
                 "--workers", "2"]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["analysis.json", "errors_vs_n.csv", "fit_curve.csv",
                     "fit_report.json", "histogram.csv", "manifest.json",
                     "pulses.csv", "variance_vs_n.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "pipeline"
    assert len(manifest["outputs"]) == 7  # everything but the manifest itself


def test_pipeline_nonconvergence_skips_analysis(tmp_path, capsys):
    cfg = write_config(tmp_path / "pipe.json", {
        "simulate": {"model": SIM_MODEL, "n_pulses": 30_000, "seed": 3},
        "fit": dict(FIT_DOC, max_iterations=1),
    })
    out = tmp_path / "pipe"
    assert main(["pipeline", cfg, "--out-dir", str(out), "--quiet"]) == 4
    assert "warning: fit did not converge; skipping analysis" in capsys.readouterr().err
    assert (out / "fit_report.json").exists()
    assert not (out / "analysis.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert [p.rsplit("/", 1)[-1] for p in manifest["outputs"]] == [
        "pulses.csv", "histogram.csv", "fit_report.json", "fit_curve.csv"]


@pytest.mark.parametrize("config", ["shipped", "pipeline.json"])
def test_pipeline_noise_report_recovers_generator(tmp_path, config):
    """The published noise report on the shipped configs recovers the
    generator: near-empty peaks and the last peak, which soaks up the
    truncated tail, carry little information and must not set the slope."""
    if config == "shipped":
        doc = {"simulate": json.loads((CONFIGS / "simulate.json").read_text()),
               "fit": json.loads((CONFIGS / "fit.json").read_text())}
        path = write_config(tmp_path / "pipe.json", doc)
    else:
        path = str(CONFIGS / config)
    out = tmp_path / "pipe"
    assert main(["pipeline", path, "--out-dir", str(out), "--quiet"]) == 0
    noise = json.loads((out / "analysis.json").read_text())["noise"]
    assert noise["sigma_m_sq"] == pytest.approx(276.0, rel=0.10)
    assert noise["sigma_0_sq"] > 0


def _tables_by_row_loops(model, hist) -> dict:
    """fit_curve.csv, errors_vs_n.csv and variance_vs_n.csv built one row at
    a time with f-strings: an oracle independent of the column writer."""
    k = model.n_peaks
    per_peak, total_curve = expected_counts(model, hist.bin_edges, float(hist.counts.sum()))
    curve = ("# pnr-lab v1\nbin_center,count," + ",".join(f"peak_{i}" for i in range(k))
             + ",model_total\n")
    for b, center in enumerate(hist.centers):
        row = [f"{center:.10g}", str(int(hist.counts[b]))]
        row += [f"{per_peak[i, b]:.10g}" for i in range(k)]
        curve += ",".join(row + [f"{total_curve[b]:.10g}"]) + "\n"
    errors = "# pnr-lab v1\nn,error\n" + "".join(
        f"{i},{err:.10g}\n" for i, err in enumerate(build_scheme(model).error_per_number))
    noise = variance_law(model.peaks)
    elec = model.peaks[0].std_dev ** 2
    variance = "# pnr-lab v1\nn,std_dev,variance,law_variance\n"
    for pk in model.peaks:
        law = elec if pk.index == 0 else elec + noise.sigma_0_sq + noise.sigma_m_sq * pk.index
        variance += f"{pk.index},{pk.std_dev:.10g},{pk.std_dev**2:.10g},{law:.10g}\n"
    return {"fit_curve.csv": curve, "errors_vs_n.csv": errors, "variance_vs_n.csv": variance}


def test_pipeline_tables_match_row_loop_oracle(tmp_path):
    fit_doc = {"n_peaks": 8, "constraint": "free"}
    model = dict(SIM_MODEL, mean_photon_number=3.0 / 0.85)
    cfg = write_config(tmp_path / "pipe.json", {
        "simulate": {"model": model, "n_pulses": 20_000, "seed": 3}, "fit": fit_doc})
    out = tmp_path / "pipe"
    assert main(["pipeline", cfg, "--out-dir", str(out), "--quiet"]) == 0
    hist = read_histogram_csv(out / "histogram.csv")
    report = fit_spectrum(hist, FitConfig(n_peaks=8))
    assert report.converged and report.model.n_peaks >= 7
    for name, text in _tables_by_row_loops(report.model, hist).items():
        assert (out / name).read_bytes() == text.encode(), name


# README "Determinism": `pipeline` on the shipped simulate.json (seed 16) and
# fit.json writes these bytes; its K = 7 fit stops at iteration 11 (15 before
# steps near the optimum were scaled to the ray's minimum)
SHIPPED_PIPELINE_SHA256 = {
    "pulses.csv": "9da7a6aeb3d6c37a652ea2c58b4f85fa7316ee4c04c2cdeaeff52dad7d3b975a",
    "histogram.csv": "9b706427cd22ec5ceba3d3e2b24f1186457a468355394e90c9aa342a371ce38f",
    "fit_report.json": "5fdc23c36a9c5ff7616a0d5e1a34c6e68004cdd4c3a4bc65dfc82a33feb747a6",
    "analysis.json": "6009305edc01bfa6cb19a444a092b2615deaad5b4865733ab565e37e83435df8",
    "fit_curve.csv": "ae40a906e2493715989e3547f58203aef10c343ed2cce71e3bf8234a3696212c",
    "errors_vs_n.csv": "9c1a89b76c93af6dd11572589c70d942e205b69361f1f7819114c85f9f1b8c3c",
    "variance_vs_n.csv": "ff0cd8a610b9bb0acde568414950b65e78341bc2ce2928fe3b99b546f0a31562",
}
# `python -m pnr_lab ...`, then print the exit code and whether numpy.ma was imported
RUN_MODULE = """import runpy, sys
try:
    runpy.run_module("pnr_lab", run_name="__main__", alter_sys=True)
except SystemExit as done:
    print(done.code, "numpy.ma" in sys.modules)
"""


@pytest.fixture(scope="module")
def shipped_pipeline(tmp_path_factory):
    """One `python -m pnr_lab pipeline` process on the shipped configs: its
    output directory and the line RUN_MODULE printed."""
    tmp = tmp_path_factory.mktemp("shipped")
    cfg = write_config(tmp / "pipe.json", {
        "simulate": json.loads((CONFIGS / "simulate.json").read_text()),
        "fit": json.loads((CONFIGS / "fit.json").read_text())})
    proc = subprocess.run([sys.executable, "-c", RUN_MODULE, "pipeline", cfg,
                           "--out-dir", str(tmp / "out"), "--quiet"],
                          capture_output=True, text=True, check=True)
    return tmp / "out", proc.stdout.split()


def test_pipeline_shipped_outputs_match_pinned_digests(shipped_pipeline):
    out, (code, _) = shipped_pipeline
    assert code == "0"
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in SHIPPED_PIPELINE_SHA256}
    assert digests == SHIPPED_PIPELINE_SHA256


def test_pipeline_does_not_import_numpy_ma(shipped_pipeline):
    # np.median imports numpy.ma on its first call, ~15 ms of a CLI run
    assert shipped_pipeline[1] == ["0", "False"]


# ---------------------------------------------------------------- JSON writer

def test_scheme_json_round_trip(catalog_model):
    sch = build_scheme(catalog_model, "equal")
    doc = json.loads(_json(sch))
    assert list(doc) == ["thresholds", "priors", "error_per_number"]
    assert doc["thresholds"] == list(sch.thresholds)
    assert doc["priors"] == list(sch.priors)
    assert doc["error_per_number"] == list(sch.error_per_number)


def test_confusion_serializers(catalog_model):
    cm = confusion(catalog_model, np.full(7, 1 / 7))
    doc = json.loads(_json(cm))
    assert list(doc) == ["matrix", "priors"]
    assert doc["matrix"] == cm.matrix.tolist()
    assert doc["priors"] == list(cm.priors)


def _equal_weight_peaks(means, stds):
    return MixtureModel.from_peaks(means, stds, np.full(len(means), 1 / len(means))).peaks


def test_noise_report_json(tmp_path):
    rep = variance_law(_equal_weight_peaks([135.0 * i for i in range(7)], law_stds(7)))
    doc = json.loads(_json(rep))
    assert doc["sigma_m_sq"] == pytest.approx(REF_MULT_VAR, rel=1e-12)
    assert doc["enf"] == rep.enf
    assert doc["n_max"] == rep.n_max
    flat = variance_law(_equal_weight_peaks([0.0, 100.0, 200.0], [9.0, 9.0, 9.0]))
    assert json.loads(_json(flat))["n_max"] == "unbounded"
    # and through analyze, from a flat-width 3-peak fit report
    report = write_config(tmp_path / "report.json", {
        "constraint": "free", "objective": 1.0, "converged": True, "iterations": 3,
        "peaks": [{"i": i, "mean": 100.0 * i, "std": 9.0, "weight": 1 / 3} for i in range(3)]})
    assert main(["analyze", report, "--out-dir", str(tmp_path / "o"), "--quiet"]) == 0
    noise = json.loads((tmp_path / "o" / "analysis.json").read_text())["noise"]
    assert noise["n_max"] == "unbounded"


def test_efficiency_json():
    flux = photon_flux(543e-9, 2e-9)
    res = measured_efficiency(EfficiencyInput(
        wavelength=543e-9, power=2e-9, nd_transmission=1e-4, counts=0.85 * 1e-4 * flux,
        dark_counts=0.0, loss_factors=(0.93, 0.99)))
    doc = json.loads(_json(res))
    assert doc == {"raw": res.raw, "intrinsic": res.intrinsic,
                   "calibration_suspect": False}


def test_json_outputs_match_dict_oracle(tmp_path, capsys):
    """fit_report.json, analysis.json and qe's stdout are json.dumps(indent=2)
    of dicts built by hand from the library results, byte for byte, and
    manifest.json holds its six keys in order."""
    cfg = write_config(tmp_path / "pipe.json", {
        "simulate": {"model": SIM_MODEL, "n_pulses": 20_000, "seed": 3}, "fit": FIT_DOC})
    out = tmp_path / "pipe"
    assert main(["pipeline", cfg, "--out-dir", str(out), "--quiet"]) == 0
    report = fit_spectrum(read_histogram_csv(out / "histogram.csv"), FitConfig(n_peaks=5))
    assert report.converged
    model = report.model
    k = model.n_peaks
    scheme = build_scheme(model, "equal")
    cm = confusion(model, [1.0 / k] * k)
    noise = variance_law(model.peaks)
    analysis = {
        "decision_scheme": {"thresholds": list(scheme.thresholds),
                            "priors": list(scheme.priors),
                            "error_per_number": list(scheme.error_per_number)},
        "confusion": {"matrix": cm.matrix.tolist(), "priors": list(cm.priors)},
        "noise": {"sigma_m_sq": noise.sigma_m_sq, "sigma_0_sq": noise.sigma_0_sq,
                  "enf": noise.enf, "n_max": "unbounded" if noise.unbounded else noise.n_max,
                  "regression_residual": noise.regression_residual},
    }
    assert (out / "analysis.json").read_text() == json.dumps(analysis, indent=2) + "\n"
    assert (out / "fit_report.json").read_text() == \
        json.dumps(report_to_json(report), indent=2) + "\n"

    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest) == ["command", "config", "seed", "version", "outputs", "duration_s"]
    assert manifest["command"] == "pipeline" and manifest["seed"] == 3
    assert manifest["config"] == json.loads(Path(cfg).read_text())
    assert manifest["version"] == __version__ and manifest["duration_s"] >= 0
    assert manifest["outputs"] == [str(out / name) for name in (
        "pulses.csv", "histogram.csv", "fit_report.json", "fit_curve.csv",
        "analysis.json", "errors_vs_n.csv", "variance_vs_n.csv")]

    qe = json.loads((CONFIGS / "qe.json").read_text())
    res = measured_efficiency(EfficiencyInput(
        wavelength=qe["wavelength_m"], power=qe["power_w"],
        nd_transmission=qe["nd_transmission"], counts=qe["counts_per_s"],
        dark_counts=qe["dark_counts_per_s"], loss_factors=qe["loss_factors"]))
    capsys.readouterr()
    assert main(["qe", str(CONFIGS / "qe.json")]) == 0
    assert capsys.readouterr().out == json.dumps(
        {"raw": res.raw, "intrinsic": res.intrinsic,
         "calibration_suspect": res.calibration_suspect}, indent=2) + "\n"


# ---------------------------------------------------------------- entry points

def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "pnr_lab", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("pnr-lab ")


def _distribution_installed(name: str) -> bool:
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_console_script_installed(monkeypatch, capsys):
    """pyproject.toml declares the `pnr-lab` script, and its target runs.

    Checks what installing the package provides, without installing it:
    the declared entry point is loaded and called the way the generated
    wrapper calls it, `sys.exit(main())` with the script's own argv.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["pnr-lab"] == "pnr_lab.cli:main"

    target = importlib.metadata.EntryPoint(
        name="pnr-lab", value=scripts["pnr-lab"], group="console_scripts").load()
    monkeypatch.setattr(sys, "argv", ["pnr-lab", "--version"])
    with pytest.raises(SystemExit) as exc:
        sys.exit(target())
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"pnr-lab {__version__}\n"


@pytest.mark.skipif(
    not _distribution_installed("pnr-lab"),
    reason="the pnr-lab distribution is not installed "
           "(importlib.metadata.distribution raises PackageNotFoundError)")
def test_console_script_on_path():
    assert shutil.which("pnr-lab") is not None
    scripts = importlib.metadata.distribution("pnr-lab").entry_points.select(
        group="console_scripts", name="pnr-lab")
    assert [ep.value for ep in scripts] == ["pnr_lab.cli:main"]

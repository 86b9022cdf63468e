"""Command-line front end.

Commands: simulate, fit, analyze, qe, and pipeline (the first three chained).
Configs are JSON, bulk data is CSV, and every run that writes files drops a
manifest.json recording what was produced from which config.  This module is
the only place that turns results into files: `_json` writes every JSON
output and `_recorded` runs every file-writing command.

Exit codes: 0 success, 2 config/input error, 3 I/O error, 4 fit did not
converge (the report is still written).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import __version__
from .core import (Constraint, DetectorModel, Histogram, MixtureModel, NoiseReport,
                   _variance_parts)
from .discriminate import build_scheme, confusion
from .fit import (FitConfig, FitReport, expected_counts, fit_spectrum, report_from_json,
                  report_to_json)
from .noise import EfficiencyInput, measured_efficiency, variance_law
from .simulate import (SimConfig, read_histogram_csv, run, write_histogram_csv,
                       write_pulses_csv, write_table)

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# output: one JSON writer, one recorded run
# ---------------------------------------------------------------------------

def _jsonable(obj):
    """An array as nested lists, a result dataclass as its fields in order
    (`fields` refuses anything else with the TypeError json expects).  JSON
    has no infinity: a noise report's infinite n_max is "unbounded"."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    doc = {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, NoiseReport) and obj.unbounded:
        doc["n_max"] = "unbounded"
    return doc


def _json(obj) -> str:
    """The text of every JSON output: the result files, the manifest and qe's stdout."""
    return json.dumps(obj, indent=2, default=_jsonable) + "\n"


@contextmanager
def _recorded(args, command: str, doc, seed):
    """Make the output directory and yield `output(name)`, which lists the
    data file `name` there and returns its path.  A normal exit (exit code 4
    too) writes manifest.json, which records the listed files; a raised
    refusal writes none."""
    out = Path(args.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    t0 = time.monotonic()

    def output(name: str) -> Path:
        outputs.append(str(out / name))
        return out / name

    yield output
    (out / "manifest.json").write_text(_json({
        "command": command, "config": doc, "seed": seed, "version": __version__,
        "outputs": outputs, "duration_s": time.monotonic() - t0}))


# ---------------------------------------------------------------------------
# config parsing helpers
# ---------------------------------------------------------------------------

def _load_json(path) -> dict:
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _read(doc, context: str, keys, required=()) -> dict:
    """The values of `keys` present in `doc`, which must be a JSON object that
    holds every `required` key.  JSON true/false is refused under every key
    read: Python would take it for the number 1/0.  Other keys are ignored."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: expected an object")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{context}: missing required field '{key}'")
    values = {key: doc[key] for key in keys if key in doc}
    for key, value in values.items():
        if isinstance(value, bool):
            raise ConfigError(f"{context}: {key} must be a number, got {json.dumps(value)}")
    return values


@contextmanager
def _refusals(context: str):
    """A type's own refusal of a config value, as a ConfigError naming `context`."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _from_json(cls, doc, context: str, rename=None, **given):
    """The dataclass `cls` built from the JSON object `doc`.

    Each field not in `given` is read from the key of its name (or its
    `rename` spelling); a field without a default is required.  `given`
    holds values already built: nested types and the --seed override.  The
    type's own refusals become a ConfigError naming `context`.
    """
    rename = rename or {}
    read = [f for f in fields(cls) if f.name not in given]
    keys = {f.name: rename.get(f.name, f.name) for f in read}
    values = _read(doc, context, keys.values(),
                   [keys[f.name] for f in read if f.default is MISSING])
    kwargs = {name: values[key] for name, key in keys.items() if key in values}
    with _refusals(context):
        return cls(**kwargs, **given)


def _init_model(doc, constraint: Constraint) -> MixtureModel:
    """The fit's starting ladder from its JSON keys x0, delta, sat, stds, weights, mu."""
    init = _read(doc, "init", ("x0", "delta", "sat", "stds", "weights", "mu"),
                 ("x0", "delta", "stds", "weights"))
    with _refusals("init"):
        return MixtureModel.from_ladder(init["x0"], init["delta"], init.get("sat", 0.0),
                                        init["stds"], init["weights"],
                                        constraint_kind=constraint, poisson_mu=init.get("mu"))


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


# ---------------------------------------------------------------------------
# commands: each builds its configs, then runs its stages inside `_recorded`
# ---------------------------------------------------------------------------

def _build_sim_config(doc, seed_override, context: str) -> SimConfig:
    _read(doc, context, (), ("model",))
    model = _from_json(DetectorModel, doc["model"], f"{context}.model")
    seed = {} if seed_override is None else {"seed": seed_override}
    return _from_json(SimConfig, doc, context, model=model, **seed)


def _build_fit_config(doc, context: str) -> FitConfig:
    _read(doc, context, ())          # an object, before .get reads it
    with _refusals(context):
        constraint = Constraint.parse(doc.get("constraint", "free"))
    init = None if doc.get("init") is None else _init_model(doc["init"], constraint)
    return _from_json(FitConfig, doc, context, constraint=constraint, init=init)


def _simulate(cfg: SimConfig, args, output) -> Histogram:
    records, hist = run(cfg, workers=args.workers)
    pulses_path, hist_path = output("pulses.csv"), output("histogram.csv")
    write_pulses_csv(pulses_path, records)
    write_histogram_csv(hist_path, hist)
    _say(args, f"simulated {cfg.n_pulses} pulses -> {pulses_path}, {hist_path}")
    return hist


def _fit(hist: Histogram, cfg: FitConfig, args, output) -> FitReport:
    report = fit_spectrum(hist, cfg)
    report_path = output("fit_report.json")
    report_path.write_text(_json(report_to_json(report)))
    per_peak, total_curve = expected_counts(report.model, hist.bin_edges,
                                            float(hist.counts.sum()))
    k = report.model.n_peaks
    write_table(output("fit_curve.csv"),
                "bin_center,count," + "".join(f"peak_{i}," for i in range(k)) + "model_total",
                "{:.10g},{}" + ",{:.10g}" * (k + 1),
                hist.centers, hist.counts, *per_peak, total_curve)
    _say(args, f"fit {'converged' if report.converged else 'DID NOT converge'} "
         f"after {report.iterations} iterations -> {report_path}")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return report


def _analyze(report: FitReport, args, output) -> None:
    model = report.model
    k = model.n_peaks
    noise_report = variance_law(model.peaks)     # refuses fewer than 3 peaks
    scheme = build_scheme(model, "equal")
    analysis_path = output("analysis.json")
    analysis_path.write_text(_json({"decision_scheme": scheme,
                                    "confusion": confusion(model, [1.0 / k] * k),
                                    "noise": noise_report}))

    n = np.arange(k)
    write_table(output("errors_vs_n.csv"), "n,error", "{},{:.10g}", n, scheme.error_per_number)

    std = model.std_devs()
    var = std ** 2
    # the regression's v_elec is var[0]: row 0 alone sets it
    components = (var[0], noise_report.sigma_0_sq, noise_report.sigma_m_sq)
    law = (_variance_parts(k) * components).sum(axis=1)
    write_table(output("variance_vs_n.csv"), "n,std_dev,variance,law_variance",
                "{},{:.10g},{:.10g},{:.10g}", n, std, var, law)
    _say(args, f"analysis -> {analysis_path}")


def cmd_simulate(args) -> int:
    doc = _load_json(args.config)
    cfg = _build_sim_config(doc, args.seed, "config")
    with _recorded(args, "simulate", doc, cfg.seed) as output:
        _simulate(cfg, args, output)
    return 0


def cmd_fit(args) -> int:
    hist = read_histogram_csv(args.histogram)
    doc = _load_json(args.fit_config)
    cfg = _build_fit_config(doc, "fit config")
    with _recorded(args, "fit", doc, args.seed) as output:
        report = _fit(hist, cfg, args, output)
    return 0 if report.converged else 4


def cmd_analyze(args) -> int:
    doc = _load_json(args.fit_report)
    report = report_from_json(doc)
    with _recorded(args, "analyze", doc, args.seed) as output:
        _analyze(report, args, output)
    return 0


def cmd_qe(args) -> int:
    # the JSON names of the fields that carry a unit
    inp = _from_json(EfficiencyInput, _load_json(args.config), "config", rename={
        "wavelength": "wavelength_m", "power": "power_w", "counts": "counts_per_s",
        "dark_counts": "dark_counts_per_s"})
    sys.stdout.write(_json(measured_efficiency(inp)))
    return 0


def cmd_pipeline(args) -> int:
    doc = _load_json(args.config)
    _read(doc, "config", (), ("simulate", "fit"))
    cfg = _build_sim_config(doc["simulate"], args.seed, "simulate")
    fit_cfg = _build_fit_config(doc["fit"], "fit")
    with _recorded(args, "pipeline", doc, cfg.seed) as output:
        report = _fit(_simulate(cfg, args, output), fit_cfg, args, output)
        if report.converged:
            _analyze(report, args, output)
        else:
            print("warning: fit did not converge; skipping analysis", file=sys.stderr)
    return 0 if report.converged else 4


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the seed in the config")
    common.add_argument("--out-dir", default=None, help="output directory (default: .)")
    common.add_argument("--quiet", action="store_true", help="suppress progress chatter")

    parser = argparse.ArgumentParser(
        prog="pnr-lab",
        description="Simulate, fit and analyze photon-number-resolving "
                    "detector pulse-area spectra.")
    parser.add_argument("--version", action="version", version=f"pnr-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="generate pulses and a histogram from a detector model")
    p.add_argument("config", help="simulation config JSON")
    p.add_argument("--workers", type=int, default=1,
                   help="worker threads (output is identical for any value)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", parents=[common],
                       help="fit a histogram CSV with a constrained Gaussian mixture")
    p.add_argument("histogram", help="histogram CSV (pnr-lab v1)")
    p.add_argument("fit_config", help="fit config JSON")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("analyze", parents=[common],
                       help="decision scheme, confusion matrix and noise report from a fit")
    p.add_argument("fit_report", help="fit report JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("qe", parents=[common],
                       help="quantum efficiency from counter readings")
    p.add_argument("config", help="efficiency config JSON")
    p.set_defaults(func=cmd_qe)

    p = sub.add_parser("pipeline", parents=[common],
                       help="simulate, fit and analyze in one run")
    p.add_argument("config", help="pipeline config JSON with 'simulate' and 'fit' sections")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3

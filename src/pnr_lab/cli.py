"""Command-line front end.

Commands: simulate, fit, analyze, qe, and pipeline (the first three chained).
Configs are JSON, bulk data is CSV, and every run that writes files drops a
manifest.json recording what was produced from which config.

Exit codes: 0 success, 2 config/input error, 3 I/O error, 4 fit did not
converge (the report is still written).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .core import Constraint, DetectorModel, MixtureModel, _variance_parts
from .discriminate import build_scheme, confusion, confusion_to_json, scheme_to_json
from .fit import (FitConfig, expected_counts, fit_spectrum, report_from_json,
                  report_to_json)
from .noise import (EfficiencyInput, efficiency_to_json, measured_efficiency,
                    noise_report_to_json, variance_law)
from .simulate import (SimConfig, read_histogram_csv, run, write_histogram_csv,
                       write_pulses_csv, write_table)

__all__ = ["main", "RunManifest", "ConfigError"]


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


@dataclass
class RunManifest:
    """Record of one command invocation: inputs, outputs, provenance.

    `outputs` lists the data files written (the manifest itself is excluded,
    since it cannot list its own bytes).  Data files are byte-identical on
    re-runs with the same config; the manifest differs in its wall-clock
    duration field.
    """

    command: str
    config: dict
    seed: int | None
    version: str
    outputs: list
    duration_s: float

    def write(self, out_dir: Path) -> Path:
        path = out_dir / "manifest.json"
        path.write_text(json.dumps(asdict(self), indent=2) + "\n")
        return path


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


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise ConfigError(f"{context}: missing required field '{key}'")
    return doc[key]


def _refuse_bools(doc: dict, context: str, *keys) -> None:
    """JSON true/false is not a number, though Python's bool passes for an int."""
    for key in keys:
        if isinstance(doc.get(key), bool):
            raise ConfigError(f"{context}: {key} must be a number, got {json.dumps(doc[key])}")


def _model_from_json(doc: dict, context: str = "model") -> DetectorModel:
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: expected an object")
    _refuse_bools(doc, context, *(f.name for f in fields(DetectorModel)))
    kwargs = {}
    for key in ("mean_photon_number", "quantum_efficiency", "gain_per_photon",
                "mult_noise_var", "electronic_noise_var"):
        kwargs[key] = _require(doc, key, context)
    for key in ("extra_per_photon_var", "area_offset", "saturation_coeff",
                "dark_rate_per_gate"):
        if key in doc:
            kwargs[key] = doc[key]
    cells = doc.get("cell_count")
    if cells is not None:
        kwargs["cell_count"] = cells
    try:
        return DetectorModel(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _init_model_from_json(doc: dict, constraint: Constraint) -> MixtureModel:
    x0 = _require(doc, "x0", "init")
    delta = _require(doc, "delta", "init")
    _refuse_bools(doc, "init", "x0", "delta", "sat", "mu")
    sat = doc.get("sat", 0.0)
    stds = _require(doc, "stds", "init")
    weights = _require(doc, "weights", "init")
    try:
        return MixtureModel.from_ladder(x0, delta, sat, stds, weights,
                                        constraint_kind=constraint,
                                        poisson_mu=doc.get("mu"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"init: {exc}") from exc


def _out_dir(args) -> Path:
    out = Path(args.out_dir) if args.out_dir else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _build_sim_config(doc: dict, seed_override) -> SimConfig:
    model = _model_from_json(_require(doc, "model", "config"), "config.model")
    _refuse_bools(doc, "config", "n_pulses", "seed", "bin_width")
    n_pulses = _require(doc, "n_pulses", "config")
    seed = seed_override if seed_override is not None else _require(doc, "seed", "config")
    for name, value in (("n_pulses", n_pulses), ("seed", seed)):
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"config: {name} must be a whole number, got {value!r}")
    try:
        return SimConfig(model=model, n_pulses=int(n_pulses), seed=int(seed),
                         bin_width=doc.get("bin_width", "auto"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: {exc}") from exc


def _run_simulate(doc: dict, args) -> tuple:
    cfg = _build_sim_config(doc, args.seed)
    t0 = time.monotonic()
    records, hist = run(cfg, workers=args.workers)
    out = _out_dir(args)
    pulses_path = out / "pulses.csv"
    hist_path = out / "histogram.csv"
    write_pulses_csv(pulses_path, records)
    write_histogram_csv(hist_path, hist)
    _say(args, f"simulated {cfg.n_pulses} pulses -> {pulses_path}, {hist_path}")
    return cfg, records, hist, [str(pulses_path), str(hist_path)], t0


def cmd_simulate(args) -> int:
    doc = _load_json(args.config)
    cfg, _, _, outputs, t0 = _run_simulate(doc, args)
    RunManifest("simulate", doc, cfg.seed, __version__, outputs,
                time.monotonic() - t0).write(_out_dir(args))
    return 0


def _build_fit_config(doc: dict) -> FitConfig:
    _refuse_bools(doc, "fit config", "n_peaks", "max_iterations", "tolerance")
    constraint = Constraint.parse(str(doc.get("constraint", "free")))
    init = None
    if doc.get("init") is not None:
        init = _init_model_from_json(doc["init"], constraint)
    try:
        return FitConfig(
            n_peaks=doc.get("n_peaks", "auto"),
            constraint=constraint,
            max_iterations=int(doc.get("max_iterations", 500)),
            tolerance=float(doc.get("tolerance", 1e-9)),
            init=init,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"fit config: {exc}") from exc


def _write_fit_outputs(report, hist, out: Path, args) -> list:
    report_path = out / "fit_report.json"
    report_path.write_text(json.dumps(report_to_json(report), indent=2) + "\n")
    curve_path = out / "fit_curve.csv"
    per_peak, total_curve = expected_counts(report.model, hist.bin_edges,
                                            float(hist.counts.sum()))
    k = report.model.n_peaks
    write_table(curve_path,
                "bin_center,count," + "".join(f"peak_{i}," for i in range(k)) + "model_total",
                "{:.10g},{}" + ",{:.10g}" * (k + 1),
                hist.centers, hist.counts, *per_peak, total_curve)
    _say(args, f"fit {'converged' if report.converged else 'DID NOT converge'} "
         f"after {report.iterations} iterations -> {report_path}")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return [str(report_path), str(curve_path)]


def cmd_fit(args) -> int:
    hist = read_histogram_csv(args.histogram)
    doc = _load_json(args.fit_config)
    cfg = _build_fit_config(doc)
    t0 = time.monotonic()
    report = fit_spectrum(hist, cfg)
    out = _out_dir(args)
    outputs = _write_fit_outputs(report, hist, out, args)
    RunManifest("fit", doc, args.seed, __version__, outputs,
                time.monotonic() - t0).write(out)
    return 0 if report.converged else 4


def _write_analysis(report, out: Path, args) -> list:
    model = report.model
    if model.n_peaks < 3:
        raise ConfigError(f"analysis needs at least 3 peaks, report has {model.n_peaks}")
    scheme = build_scheme(model, "equal")
    k = model.n_peaks
    cm = confusion(model, [1.0 / k] * k)
    noise_report = variance_law(model.peaks)

    analysis_path = out / "analysis.json"
    analysis_path.write_text(json.dumps({
        "decision_scheme": scheme_to_json(scheme),
        "confusion": confusion_to_json(cm),
        "noise": noise_report_to_json(noise_report),
    }, indent=2) + "\n")

    n = np.arange(k)
    errors_path = out / "errors_vs_n.csv"
    write_table(errors_path, "n,error", "{},{:.10g}", n, scheme.error_per_number)

    variance_path = out / "variance_vs_n.csv"
    std = model.std_devs()
    var = std ** 2
    # the regression's v_elec is var[0]: row 0 alone sets it
    components = (var[0], noise_report.sigma_0_sq, noise_report.sigma_m_sq)
    law = (_variance_parts(k) * components).sum(axis=1)
    write_table(variance_path, "n,std_dev,variance,law_variance", "{},{:.10g},{:.10g},{:.10g}",
                n, std, var, law)

    _say(args, f"analysis -> {analysis_path}")
    return [str(analysis_path), str(errors_path), str(variance_path)]


def cmd_analyze(args) -> int:
    doc = _load_json(args.fit_report)
    report = report_from_json(doc)
    t0 = time.monotonic()
    out = _out_dir(args)
    outputs = _write_analysis(report, out, args)
    RunManifest("analyze", doc, args.seed, __version__, outputs,
                time.monotonic() - t0).write(out)
    return 0


def cmd_qe(args) -> int:
    doc = _load_json(args.config)
    try:
        inp = EfficiencyInput(
            wavelength=float(_require(doc, "wavelength_m", "config")),
            power=float(_require(doc, "power_w", "config")),
            nd_transmission=float(_require(doc, "nd_transmission", "config")),
            counts=float(_require(doc, "counts_per_s", "config")),
            dark_counts=float(_require(doc, "dark_counts_per_s", "config")),
            loss_factors=tuple(doc.get("loss_factors", ())),
        )
        result = measured_efficiency(inp)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(json.dumps(efficiency_to_json(result), indent=2))
    return 0


def cmd_pipeline(args) -> int:
    doc = _load_json(args.config)
    sim_doc = _require(doc, "simulate", "config")
    fit_doc = _require(doc, "fit", "config")
    t0 = time.monotonic()
    cfg, _, hist, outputs, _ = _run_simulate(sim_doc, args)
    fit_cfg = _build_fit_config(fit_doc)
    report = fit_spectrum(hist, fit_cfg)
    out = _out_dir(args)
    outputs += _write_fit_outputs(report, hist, out, args)
    code = 0
    if report.converged:
        outputs += _write_analysis(report, out, args)
    else:
        print("warning: fit did not converge; skipping analysis", file=sys.stderr)
        code = 4
    RunManifest("pipeline", doc, cfg.seed, __version__, outputs,
                time.monotonic() - t0).write(out)
    return code


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

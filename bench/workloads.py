"""The benchmark's three workloads.

Each workload makes its inputs from the workload seed in `setup`, which the
runner repeats to time it, then runs one operation at a time: a closed loop
with one client.  `op` is the timed part; `judge` checks its outputs and
frees them, untimed.

An operation whose public call raises one of pnr_lab's documented errors, or
whose CLI run exits 2, 3 or 4, is a refusal: it is recorded with its cause and
lowers `ok_frac`.  Any other exception, a crash or a timeout marks the
operation as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pnr_lab as pnr
from tracing import NullTracer

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_SEED = 16            # the seed in the shipped configs/simulate.json
SPACING_TOL = 0.05           # a fit "recovers" the ladder within 5 % of the gain
CLI_TIMEOUT_S = 120
CLI_REFUSALS = (2, 3, 4)     # documented CLI exit codes other than success
REFUSALS = (pnr.FitSetupError, pnr.NoIntersectionError, pnr.InvalidModelError,
            pnr.InsufficientDataError, pnr.FormatError, pnr.CapacityError,
            pnr.DegenerateDesignError)
NULL = NullTracer()


@dataclass
class FitResult:
    converged: bool
    spacing_rel_err: float          # |fitted spacing / generator gain - 1|
    vm_rel_err: float | None        # |variance_law sigma_M^2 / mult_noise_var - 1|
    iterations: int


@dataclass
class Outcome:
    calls: Counter = field(default_factory=Counter)   # public calls attempted, by span name
    causes: list = field(default_factory=list)        # (call, error type or exit code)
    crashed: bool = False
    fits: list = field(default_factory=list)
    hits: int = 0                                     # pulses classified as their true number
    pulses: int = 0                                   # pulses classified
    raw: object = None                                # op output kept for `judge`


def _attempt(out, tracer, name, fn, *args, size=None):
    """Call a public function inside a span; a documented error is recorded
    as the operation's refusal cause and returns None."""
    out.calls[name] += 1
    with tracer.span(name, size=size):
        try:
            return fn(*args)
        except REFUSALS as exc:
            out.causes.append((name, type(exc).__name__))
    return None


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_probe(tracer) -> None:
    """`import pnr_lab` in a fresh interpreter: what every CLI run pays."""
    with tracer.span("cli.import"):
        subprocess.run([sys.executable, "-c", "import pnr_lab"], env=_env(),
                       check=True, timeout=CLI_TIMEOUT_S)


def _shipped_configs():
    sim = json.loads((ROOT / "configs" / "simulate.json").read_text())
    fit = json.loads((ROOT / "configs" / "fit.json").read_text())
    return sim, fit


def _sim_config(doc, seed, n_pulses=None) -> pnr.SimConfig:
    return pnr.SimConfig(model=pnr.DetectorModel(**doc["model"]),
                         n_pulses=int(n_pulses or doc["n_pulses"]), seed=seed,
                         bin_width=doc.get("bin_width", "auto"))


def _fit_config(doc) -> pnr.FitConfig:
    return pnr.FitConfig(n_peaks=doc.get("n_peaks", "auto"),
                         constraint=pnr.Constraint.parse(doc.get("constraint", "free")),
                         max_iterations=int(doc.get("max_iterations", 500)),
                         tolerance=float(doc.get("tolerance", 1e-9)))


def _fit_span(constraint) -> str:
    return f"fit.fit_spectrum[{constraint.value}]"


def _pair_order(i):
    """Untraced first on even operations, traced first on odd ones."""
    return (False, True) if i % 2 == 0 else (True, False)


def _accuracy(out, decided, true_detected, k) -> None:
    out.pulses += len(decided)
    out.hits += int(np.count_nonzero(decided == np.minimum(true_detected, k - 1)))


class Workload:
    wall_span = "bench.op"   # the span whose duration is one operation's wall time
    rss_of = "self"          # whose peak RSS the workload reports
    pass_len = 1             # operations in one pass over the distinct inputs
    ref_reps = 1             # rounds of the reference loop between operations

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.errors = []     # failed correctness checks
        self.digests = {}    # output digests shown in the report

    def setup(self, tracer) -> None:
        raise NotImplementedError

    def op(self, i: int, tracer) -> Outcome:
        raise NotImplementedError

    def judge(self, i: int, out: Outcome) -> None:
        pass

    def _fail(self, message) -> None:
        if message not in self.errors:
            self.errors.append(message)

    def _check_same(self, what, first, again) -> None:
        if first != again:
            self._fail(f"{what}: differs between runs of the same input")

    def traced_op(self, i: int, tracer):
        """Run operation i untraced and traced, alternating which goes first.
        Returns the traced outcome, its wall time and the traced minus the
        untraced wall time."""
        walls, outs = {}, {}
        for traced in _pair_order(i):
            t = tracer if traced else NULL
            tracer.op = i if traced else None
            with t.span("bench.op"):
                t0 = time.perf_counter()
                outs[traced] = self.op(i, t)
                walls[traced] = time.perf_counter() - t0
            self.judge(i, outs[traced])
        tracer.op = None
        return outs[True], walls[True], walls[True] - walls[False]


class PipelineCli(Workload):
    """One operation is one `python -m pnr_lab pipeline --workers 2 --quiet`
    run into a fresh directory, on the shipped simulate and fit configs."""

    name = "pipeline_cli"
    wall_span = "cli.run"
    rss_of = "children"
    ref_reps = 20
    DATA_FILES = ("pulses.csv", "histogram.csv", "fit_report.json", "fit_curve.csv",
                  "analysis.json", "errors_vs_n.csv", "variance_vs_n.csv")
    # README "Determinism": at the default seed these bytes are fixed.
    PINNED = {
        "pulses.csv": "9da7a6aeb3d6c37a652ea2c58b4f85fa7316ee4c04c2cdeaeff52dad7d3b975a",
        "histogram.csv": "9b706427cd22ec5ceba3d3e2b24f1186457a468355394e90c9aa342a371ce38f",
    }

    def __init__(self, seed, work):
        super().__init__(seed, work)
        sim, fit = _shipped_configs()
        sim["seed"] = seed
        self.doc = {"simulate": sim, "fit": fit}
        self.sim = _sim_config(sim, seed)
        self.fit_cfg = _fit_config(fit)
        self.config_path = work / "pipeline.json"
        self.ref = None        # data-file digests of the first run
        self.quality = None    # Outcome fields read from the first run's outputs
        self.params = {"config": self.doc, "workers": 2}

    def _cli(self, out_dir, tracer) -> int:
        with tracer.span("cli.run"):
            proc = subprocess.run(
                [sys.executable, "-m", "pnr_lab", "pipeline", str(self.config_path),
                 "--workers", "2", "--quiet", "--out-dir", str(out_dir)],
                env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode not in (0, *CLI_REFUSALS):
            print(proc.stderr, file=sys.stderr)
        return proc.returncode

    def _data_digests(self, out_dir) -> dict:
        return {f: _sha256(out_dir / f) for f in self.DATA_FILES if (out_dir / f).exists()}

    def setup(self, tracer):
        self.config_path.write_text(json.dumps(self.doc, indent=2) + "\n")
        out_dir = self.work / "warmup"
        code = self._cli(out_dir, tracer)
        digests = self._data_digests(out_dir)
        if self.ref is None:
            if code != 0:
                self._fail(f"pipeline set-up run exited {code}")
            self.ref = digests
            self.quality = self._read_quality(out_dir)
            self.digests = {f: digests.get(f) for f in ("pulses.csv", "histogram.csv",
                                                        "fit_report.json", "analysis.json")}
            if self.seed == DEFAULT_SEED:
                for f, want in self.PINNED.items():
                    if digests.get(f) != want:
                        self._fail(f"{f}: sha256 {digests.get(f)} != pinned {want}")
        else:
            self._check_same("pipeline data files", self.ref, digests)
        shutil.rmtree(out_dir)

    def _read_quality(self, out_dir) -> Outcome:
        """Fit quality and classification accuracy from one run's outputs."""
        q = Outcome()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        listed = sorted(Path(p).name for p in manifest["outputs"])
        if listed != sorted(self.DATA_FILES):
            self._fail(f"manifest lists {listed}")
        cols = np.loadtxt(out_dir / "pulses.csv", delimiter=",", skiprows=2, ndmin=2)
        records, _ = pnr.run(self.sim)
        if not (np.array_equal(cols[:, 0], records["true_incident"])
                and np.array_equal(cols[:, 1], records["true_detected"])
                and np.array_equal(cols[:, 2], records["area"])):
            self._fail("pulses.csv does not hold the simulated records")
        report = json.loads((out_dir / "fit_report.json").read_text())
        model = self.sim.model
        fit = FitResult(report["converged"],
                        abs(report["delta"] / model.gain_per_photon - 1.0), None,
                        report["iterations"])
        q.fits.append(fit)
        analysis = out_dir / "analysis.json"
        if analysis.exists():
            doc = json.loads(analysis.read_text())
            fit.vm_rel_err = abs(doc["noise"]["sigma_m_sq"] / model.mult_noise_var - 1.0)
            decided = np.searchsorted(doc["decision_scheme"]["thresholds"], cols[:, 2],
                                      side="left")
            _accuracy(q, decided, cols[:, 1].astype(np.int64), len(report["peaks"]))
        return q

    def op(self, i, tracer):
        out = Outcome()
        out_dir = self.work / f"op{i}"
        out.calls["cli.run"] += 1
        code = self._cli(out_dir, tracer)
        if code != 0:
            out.causes.append(("cli.run", f"exit {code}"))
            out.crashed = code not in CLI_REFUSALS
        out.raw = out_dir
        return out

    def judge(self, i, out):
        out_dir = out.raw
        self._check_same("pipeline data files", self.ref, self._data_digests(out_dir))
        out.fits, out.hits, out.pulses = self.quality.fits, self.quality.hits, self.quality.pulses
        out.raw = None
        shutil.rmtree(out_dir, ignore_errors=True)

    def _replay(self, tracer, out_dir) -> None:
        """The pipeline command's work through the public API, in-process."""
        out_dir.mkdir()
        with tracer.span("simulate.run", size=self.sim.n_pulses):
            records, hist = pnr.run(self.sim, workers=2)
        pulses = out_dir / "pulses.csv"
        with tracer.span("simulate.write_pulses_csv"):
            pnr.write_pulses_csv(pulses, records)
        tracer.size(pulses.stat().st_size)
        with tracer.span("simulate.write_histogram_csv"):
            pnr.write_histogram_csv(out_dir / "histogram.csv", hist)
        with tracer.span(_fit_span(self.fit_cfg.constraint)):
            report = pnr.fit_spectrum(hist, self.fit_cfg)
        tracer.size(report.iterations)
        with tracer.span("fit.expected_counts"):
            pnr.expected_counts(report.model, hist.bin_edges, float(hist.counts.sum()))
        if report.converged:
            model = report.model
            k = model.n_peaks
            with tracer.span("discriminate.build_scheme[equal]"):
                pnr.build_scheme(model, "equal")
            with tracer.span("discriminate.confusion"):
                pnr.confusion(model, [1.0 / k] * k)
            with tracer.span("noise.variance_law"):
                pnr.variance_law(model.peaks)

    def traced_op(self, i, tracer):
        """The CLI run, a fresh-interpreter import probe, and the pipeline
        replayed in-process untraced and traced; the overhead is that of the
        replay."""
        tracer.op = i
        t0 = time.perf_counter()
        out = self.op(i, tracer)
        wall = time.perf_counter() - t0
        self.judge(i, out)
        import_probe(tracer)
        walls = {}
        for traced in _pair_order(i):
            t = tracer if traced else NULL
            out_dir = self.work / "replay"
            with t.span("bench.replay"):
                t1 = time.perf_counter()
                self._replay(t, out_dir)
                walls[traced] = time.perf_counter() - t1
            self._check_same("replayed pulses.csv and histogram.csv",
                             {f: self.ref.get(f) for f in ("pulses.csv", "histogram.csv")},
                             self._data_digests(out_dir))
            shutil.rmtree(out_dir)
        tracer.op = None
        return out, wall, walls[True] - walls[False]


def _kronecker(seed: int, n: int, dim: int) -> np.ndarray:
    """n points of the R_d low-discrepancy sequence in [0, 1)^dim, shifted by
    a seeded uniform offset.  Every seed covers the design box evenly, so the
    share of hard designs, and the fractions measured on them, move little
    from one seed to the next."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = phi ** -np.arange(1.0, dim + 1)
    shift = np.random.default_rng(seed).random(dim)
    return (shift + np.outer(np.arange(1, n + 1), alpha)) % 1.0


class FitDesigns(Workload):
    """One operation fits one seeded random detector design under one
    constraint with automatic K; a converged fit then runs both decision
    schemes, the confusion matrix, the one-vs-many error, the variance law
    and classification of the design's first pulses."""

    name = "fit_designs"
    N_DESIGNS = 128
    N_PULSES = 100_000
    N_CLASSIFY = 20_000
    # the design box of the ROADMAP item-4 sweep; widths are relative to the gain
    RANGES = {"mean_detected": (0.5, 5.0), "quantum_efficiency": (0.5, 0.95),
              "gain": (100.0, 200.0), "sigma_m_rel": (0.05, 0.2),
              "sigma_e_rel": (0.05, 0.12), "sigma_0_rel": (0.0, 0.15)}
    CONSTRAINTS = tuple(pnr.Constraint)

    def __init__(self, seed, work):
        super().__init__(seed, work)
        lo, hi = np.array(list(self.RANGES.values())).T
        self.models = [self._model(*(lo + u * (hi - lo)))
                       for u in _kronecker(seed, self.N_DESIGNS, len(self.RANGES))]
        self.pass_len = len(self.models) * len(self.CONSTRAINTS)
        self.hists = None
        self.samples = None
        self.seen = {}
        self.params = {"designs": self.N_DESIGNS, "pulses_per_design": self.N_PULSES,
                       "classified_per_design": self.N_CLASSIFY,
                       "ranges": self.RANGES,
                       "constraints": [c.value for c in self.CONSTRAINTS]}

    @staticmethod
    def _model(mean_detected, qe, gain, sigma_m_rel, sigma_e_rel, sigma_0_rel):
        return pnr.DetectorModel(mean_photon_number=mean_detected / qe,
                                 quantum_efficiency=qe, gain_per_photon=gain,
                                 mult_noise_var=(sigma_m_rel * gain) ** 2,
                                 electronic_noise_var=(sigma_e_rel * gain) ** 2,
                                 extra_per_photon_var=(sigma_0_rel * gain) ** 2)

    def setup(self, tracer):
        import_probe(tracer)
        hists, samples = [], []
        for k, model in enumerate(self.models):
            cfg = pnr.SimConfig(model, self.N_PULSES, self.seed * 10_000 + k)
            with tracer.span("simulate.run", size=self.N_PULSES):
                records, hist = pnr.run(cfg)
            hists.append(hist)
            head = records[:self.N_CLASSIFY]
            samples.append((head["area"].copy(), head["true_detected"].copy()))
        if self.hists is None:
            self.hists, self.samples = hists, samples
        else:
            self._check_same("design histograms",
                             [h.counts.tobytes() for h in self.hists],
                             [h.counts.tobytes() for h in hists])

    def op(self, i, tracer):
        k, c = divmod(i % self.pass_len, len(self.CONSTRAINTS))
        model, hist = self.models[k], self.hists[k]
        constraint = self.CONSTRAINTS[c]
        out = Outcome()
        report = _attempt(out, tracer, _fit_span(constraint), pnr.fit_spectrum,
                          hist, pnr.FitConfig(constraint=constraint))
        if report is None:
            return out
        tracer.size(report.iterations)
        fit = FitResult(report.converged,
                        abs(report.model.spacing / model.gain_per_photon - 1.0), None,
                        report.iterations)
        out.fits.append(fit)
        if not report.converged:
            return out
        fitted = report.model
        n = fitted.n_peaks
        equal = _attempt(out, tracer, "discriminate.build_scheme[equal]",
                         pnr.build_scheme, fitted, "equal")
        _attempt(out, tracer, "discriminate.build_scheme[from-weights]",
                 pnr.build_scheme, fitted, "from-weights")
        _attempt(out, tracer, "discriminate.confusion", pnr.confusion, fitted, [1.0 / n] * n)
        _attempt(out, tracer, "discriminate.one_vs_many_error", pnr.one_vs_many_error,
                 fitted, fitted.weights())
        noise = _attempt(out, tracer, "noise.variance_law", pnr.variance_law, fitted.peaks)
        if noise is not None:
            fit.vm_rel_err = abs(noise.sigma_m_sq / model.mult_noise_var - 1.0)
        if equal is not None:
            decided = _attempt(out, tracer, "discriminate.classify", pnr.classify,
                               self.samples[k][0], equal)
            out.raw = (decided, n)
        return out

    def judge(self, i, out):
        key = i % self.pass_len
        if out.raw is not None:
            decided, n = out.raw
            _accuracy(out, decided, self.samples[key // len(self.CONSTRAINTS)][1], n)
            out.raw = None
        got = (out.causes, [(f.converged, f.iterations, f.spacing_rel_err, f.vm_rel_err)
                            for f in out.fits], out.hits)
        self._check_same("fit results", self.seen.setdefault(key, got), got)


class ReanalyzePulses(Workload):
    """Set-up writes 2e5 reference-detector pulses with write_pulses_csv.  One
    operation reads them back, histograms and fits them with the shipped fit
    config, runs the analysis and classifies every pulse."""

    name = "reanalyze_pulses"
    ref_reps = 10
    # at 1e6 pulses (22 MB, 3 s per read) a run held only 8 operations
    N_PULSES = 200_000

    def __init__(self, seed, work):
        super().__init__(seed, work)
        sim, fit = _shipped_configs()
        self.sim = _sim_config(sim, seed, self.N_PULSES)
        self.fit_cfg = _fit_config(fit)
        self.path = work / "pulses.csv"
        self.records = self.hist = None
        self.params = {"model": sim["model"], "pulses": self.N_PULSES, "fit": fit}

    def setup(self, tracer):
        import_probe(tracer)
        with tracer.span("simulate.run", size=self.N_PULSES):
            records, hist = pnr.run(self.sim)
        with tracer.span("simulate.write_pulses_csv"):
            pnr.write_pulses_csv(self.path, records)
        tracer.size(self.path.stat().st_size)
        digest = _sha256(self.path)
        if self.records is None:
            self.records, self.hist = records, hist
            self.digests = {"pulses.csv": digest}
        else:
            self._check_same("pulses.csv", self.digests["pulses.csv"], digest)

    def op(self, i, tracer):
        out = Outcome()
        records = _attempt(out, tracer, "simulate.read_pulses_csv", pnr.read_pulses_csv,
                           self.path, size=self.path.stat().st_size)
        if records is None:
            return out
        areas = records["area"]
        hist = _attempt(out, tracer, "simulate.histogram_from_areas",
                        pnr.histogram_from_areas, areas, self.sim.resolved_bin_width)
        out.raw = (records, hist, None, 0)
        if hist is None:
            return out
        report = _attempt(out, tracer, _fit_span(self.fit_cfg.constraint),
                          pnr.fit_spectrum, hist, self.fit_cfg)
        if report is None:
            return out
        tracer.size(report.iterations)
        model = self.sim.model
        fit = FitResult(report.converged,
                        abs(report.model.spacing / model.gain_per_photon - 1.0), None,
                        report.iterations)
        out.fits.append(fit)
        if not report.converged:
            return out
        fitted = report.model
        n = fitted.n_peaks
        scheme = _attempt(out, tracer, "discriminate.build_scheme[equal]",
                          pnr.build_scheme, fitted, "equal")
        _attempt(out, tracer, "discriminate.confusion", pnr.confusion, fitted, [1.0 / n] * n)
        noise = _attempt(out, tracer, "noise.variance_law", pnr.variance_law, fitted.peaks)
        if noise is not None:
            fit.vm_rel_err = abs(noise.sigma_m_sq / model.mult_noise_var - 1.0)
        if scheme is not None:
            decided = _attempt(out, tracer, "discriminate.classify", pnr.classify,
                               areas, scheme)
            out.raw = (records, hist, decided, n)
        return out

    def judge(self, i, out):
        if out.raw is None:
            return
        records, hist, decided, n = out.raw
        out.raw = None
        if records.dtype != self.records.dtype or not np.array_equal(records, self.records):
            self._fail("read_pulses_csv did not return the records written")
        if hist is not None and not (np.array_equal(hist.bin_edges, self.hist.bin_edges)
                                     and np.array_equal(hist.counts, self.hist.counts)):
            self._fail("histogram of the read areas differs from the simulated one")
        if decided is not None:
            _accuracy(out, decided, records["true_detected"], n)


WORKLOADS = {w.name: w for w in (PipelineCli, FitDesigns, ReanalyzePulses)}


def fit_quality(outcomes) -> dict:
    """Quality fractions over one pass of outcomes."""
    fits = [f for o in outcomes for f in o.fits]
    n_fits = max(len(fits), 1)
    converged = [f for f in fits if f.converged]
    recovered = sum(f.spacing_rel_err <= SPACING_TOL for f in converged)
    disc_calls = sum(n for o in outcomes for name, n in o.calls.items()
                     if name.startswith("discriminate."))
    no_cross = sum(1 for o in outcomes for name, err in o.causes
                   if name.startswith("discriminate.") and err == "NoIntersectionError")
    vm = [f.vm_rel_err for f in fits if f.vm_rel_err is not None]
    pulses = sum(o.pulses for o in outcomes)
    return {
        "ok_frac": sum(not o.causes and not o.crashed for o in outcomes) / len(outcomes),
        "converged_frac": len(converged) / n_fits,
        "recovered_frac": recovered / n_fits,
        "classify_acc": sum(o.hits for o in outcomes) / pulses if pulses else math.nan,
        "fit.silent_bad_frac": (len(converged) - recovered) / n_fits,
        "fit.spacing_rel_err": float(np.median([f.spacing_rel_err for f in fits]))
        if fits else math.nan,
        "noise.vm_rel_err": float(np.median(vm)) if vm else math.nan,
        "discriminate.no_intersection_frac": no_cross / disc_calls if disc_calls else 0.0,
        "fits": len(fits),
    }

"""pnr-lab benchmark: one workload, one closed-loop run.

    python3 bench/run.py --workload fit_designs --seed 16 --seconds 30 --trace 0

Run from anywhere inside a checkout of pnr-lab; it imports the package from
`src/` and reads the shipped configs.  The run repeats the workload's set-up
three times (reporting the median), then runs operations one after another
in whole passes over the workload's distinct inputs until `--seconds`
seconds have gone by.

Between operations the run times a fixed reference loop, which gauges the
machine's speed at that moment: a shared host's cores slow and speed up by
tens of percent within seconds.  `op_p50_ref` divides each operation's wall
time by the reference time around it.

`--trace 0` prints the end-to-end metrics.  `--trace 1` records spans around
the benchmark's calls into each module and prints the per-layer metrics.
Every run prints its metrics by name with their unit, stamps the result with
the commit and the machine, writes a report (and, traced, the spans) under
`.bench_out/`, and ends with one JSON line: correct, attempted, failed and
metrics.  A failed correctness check makes `correct` false and the exit code
1.  See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import numpy as np

from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
NEEDED = ("src/pnr_lab/__init__.py", "configs/simulate.json", "configs/fit.json")
SETUP_REPS = 3
LAYERS = ("cli", "simulate", "fit", "discriminate", "noise")

E2E = {
    "setup_s": "s", "op_p50_ref": "ref", "peak_rss_mb": "MB",
    "ok_frac": "frac", "converged_frac": "frac", "recovered_frac": "frac",
    "classify_acc": "frac",
}
PER_LAYER = {
    "cli.import_s": "s",
    "simulate.run_s": "s", "simulate.run_pulses_per_s": "1/s",
    "fit.free_s": "s", "fit.iterations": "count", "fit.s_per_iteration": "s",
    "discriminate.scheme_equal_s": "s", "discriminate.confusion_s": "s",
    "noise.variance_law_s": "s",
    **{f"{layer}.op_share": "frac" for layer in LAYERS},
    "trace.coverage": "frac", "trace.overhead_s": "s",
    "fit.silent_bad_frac": "frac", "fit.spacing_rel_err": "frac",
    "noise.vm_rel_err": "frac", "discriminate.no_intersection_frac": "frac",
}
# per-call medians; a workload that makes no such call reports them in its
# report file as null and leaves them out of the JSON line
CALLS = {
    "cli.import_s": "cli.import",
    "simulate.run_s": "simulate.run",
    "simulate.write_pulses_s": "simulate.write_pulses_csv",
    "simulate.read_pulses_s": "simulate.read_pulses_csv",
    "simulate.histogram_s": "simulate.histogram_from_areas",
    "simulate.write_histogram_s": "simulate.write_histogram_csv",
    "fit.free_s": "fit.fit_spectrum[free]",
    "fit.poisson_s": "fit.fit_spectrum[poisson]",
    "fit.linear_variance_s": "fit.fit_spectrum[linear_variance]",
    "fit.expected_counts_s": "fit.expected_counts",
    "discriminate.scheme_equal_s": "discriminate.build_scheme[equal]",
    "discriminate.scheme_weights_s": "discriminate.build_scheme[from-weights]",
    "discriminate.confusion_s": "discriminate.confusion",
    "discriminate.one_vs_many_s": "discriminate.one_vs_many_error",
    "discriminate.classify_s": "discriminate.classify",
    "noise.variance_law_s": "noise.variance_law",
}
RATES = {   # metric: (span, factor applied to size / seconds)
    "simulate.run_pulses_per_s": ("simulate.run", 1.0),
    "simulate.write_pulses_mb_per_s": ("simulate.write_pulses_csv", 1e-6),
    "simulate.read_pulses_mb_per_s": ("simulate.read_pulses_csv", 1e-6),
}
UNITS = {**{name: "s" for name in CALLS}, "cli.other_s": "s", "op_p50_s": "s",
         "op_p90_s": "s", "ref_s": "s",
         "simulate.write_pulses_mb_per_s": "MB/s", "simulate.read_pulses_mb_per_s": "MB/s",
         "fits": "count", **E2E, **PER_LAYER}


_REF_X = np.linspace(0.0, 1.0, 4096)


def reference_s(reps) -> float:
    """Wall time of `reps` rounds of fixed work like the mix pnr_lab runs:
    Python arithmetic, splitting and parsing short strings, and small-array
    numpy calls; no pnr_lab code."""
    t0 = time.perf_counter()
    n = 0.0
    for _ in range(reps):
        for i in range(10_000):
            n += i
        rows = [f"{i},{i % 7},{i}.25".split(",") for i in range(1_000)]
        n += sum(float(row[2]) for row in rows)
        for _ in range(30):
            n += float(np.exp(-_REF_X * _REF_X).sum())
    return time.perf_counter() - t0


def _median(xs):
    return statistics.median(xs) if xs else None


def _commit():
    """HEAD of the checkout's git repository, read from .git without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def stamp(args, workload) -> dict:
    return {
        "commit": _commit(), "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "setup_reps": SETUP_REPS,
        "params": workload.params,
    }


def layer_metrics(tracer, wall_span, overheads, n_ops) -> dict:
    """Per-call medians and rates over the whole traced run, and each layer's
    share of the operations' wall time."""
    m = {}
    for name, span in CALLS.items():
        m[name] = _median(tracer.durations(span))
    for name, (span, factor) in RATES.items():
        secs = sum(tracer.durations(span))
        m[name] = factor * sum(tracer.sizes(span)) / secs if secs else None
    fits = [s for s in tracer.spans if s[0].startswith("fit.fit_spectrum[")]
    iters = [s[5] for s in fits]
    m["fit.iterations"] = _median(iters)
    m["fit.s_per_iteration"] = (sum(s[2] - s[1] for s in fits) / sum(iters)
                                if iters and sum(iters) else None)

    own = tracer.self_times()
    wall = 0.0
    per = dict.fromkeys(LAYERS, 0.0)
    for rec, t in zip(tracer.spans, own):
        name, start, end, _, op, _ = rec
        if op is None:
            continue
        if name == wall_span:
            wall += end - start
        elif name.split(".")[0] in per:
            per[name.split(".")[0]] += t
    covered = sum(per.values())
    if wall_span == "cli.run":
        # the CLI's own work outside the replayed calls: argparse, JSON,
        # CSV formatting of fit_curve and the analysis files, the manifest
        other = wall - covered
        m["cli.other_s"] = other / n_ops
        per["cli"] += other
    for layer, t in per.items():
        m[f"{layer}.op_share"] = t / wall if wall else None
    m["trace.coverage"] = covered / wall if wall else None
    m["trace.overhead_s"] = _median(overheads)
    return m


def measure(args, workloads):
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, work)
        tracer = Tracer() if args.trace else NullTracer()
        setup_s = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            with tracer.span("bench.setup"):
                w.setup(tracer)
            setup_s.append(time.perf_counter() - t0)

        outcomes, walls, overheads = [], [], []
        refs = [reference_s(w.ref_reps)]
        start = time.perf_counter()
        i = 0
        # whole passes only, so every distinct input weighs the same in the medians
        while i % w.pass_len or i == 0 or time.perf_counter() - start < args.seconds:
            t0 = time.perf_counter()
            try:
                if args.trace:
                    out, wall, overhead = w.traced_op(i, tracer)
                    overheads.append(overhead)
                else:
                    out = w.op(i, tracer)
                    wall = time.perf_counter() - t0
                    w.judge(i, out)
            except Exception as exc:  # keep going: the failure is counted
                traceback.print_exc(file=sys.stderr)
                out = workloads.Outcome(causes=[("op", type(exc).__name__)], crashed=True)
                wall = time.perf_counter() - t0
            outcomes.append(out)
            walls.append(wall)
            refs.append(reference_s(w.ref_reps))
            i += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    quality = workloads.fit_quality(outcomes[:w.pass_len])
    rusage = resource.RUSAGE_CHILDREN if w.rss_of == "children" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setup_s),
        # each operation over the mean of the reference times just before and after it
        "op_p50_ref": statistics.median(
            wall / ((a + b) / 2) for wall, a, b in zip(walls, refs, refs[1:])),
        "op_p50_s": statistics.median(walls),
        "ref_s": statistics.median(refs),
        "op_p90_s": statistics.quantiles(walls, n=10)[-1] if len(walls) > 1 else walls[0],
        "peak_rss_mb": resource.getrusage(rusage).ru_maxrss / 1024.0,
        **quality,
    }
    if args.trace:
        metrics.update(layer_metrics(tracer, w.wall_span, overheads, len(outcomes)))
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    causes = {}
    for out in outcomes:
        for call, err in out.causes:
            key = f"{call}: {err}"
            causes[key] = causes.get(key, 0) + 1
    return w, metrics, {
        "attempted": len(outcomes), "failed": sum(o.crashed for o in outcomes),
        "setup_runs_s": setup_s, "op_walls_s": walls, "ref_walls_s": refs,
        "causes": causes, "digests": w.digests,
        "errors": list(w.errors),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline_cli", "fit_designs", "reanalyze_pulses"))
    parser.add_argument("--seed", type=int, default=16,
                        help="workload seed (default 16, the shipped configs' seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a pnr-lab checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    w, metrics, run = measure(args, workloads)
    names = PER_LAYER if args.trace else E2E
    errors = run["errors"]
    reported = {}
    for name in names:
        value = metrics.get(name)
        if value is None or not math.isfinite(value):
            errors.append(f"{name} could not be measured")
            continue
        reported[name] = {"value": value, "unit": names[name]}

    info = stamp(args, w)
    print(f"# stamp {json.dumps(info)}")
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:38s} {shown:>14s} {UNITS[name]}")
    print(f"# attempted {run['attempted']}  failed {run['failed']}  "
          f"refusals by cause {json.dumps(run['causes'])}")
    print(f"# digests {json.dumps(run['digests'])}")
    for err in errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)

    report = {"stamp": info, "correct": not errors, "metrics": metrics, **run}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": not errors, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": reported}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

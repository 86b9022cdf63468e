import gzip
import hashlib
import math
import os
import re
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnr_lab import (CapacityError, DetectorModel, FormatError, SimConfig,
                     histogram_from_areas, read_histogram_csv, read_pulses_csv,
                     run, substream, write_histogram_csv, write_pulses_csv)
from pnr_lab import simulate
from pnr_lab.simulate import (CHUNK_PULSES, MAX_BINS, MAX_CELL_DETECTIONS, MAX_POISSON_MEAN,
                              MAX_PULSES, PULSE_DTYPE)


def plain_model(**over):
    base = dict(mean_photon_number=4.0, quantum_efficiency=0.85,
                gain_per_photon=135.0, mult_noise_var=276.0,
                electronic_noise_var=112.36, extra_per_photon_var=246.0)
    base.update(over)
    return DetectorModel(**base)


def test_same_seed_bit_identical():
    cfg = SimConfig(model=plain_model(), n_pulses=5000, seed=99)
    r1, h1 = run(cfg)
    r2, h2 = run(cfg)
    assert np.array_equal(r1, r2)
    assert np.array_equal(h1.counts, h2.counts)
    assert np.array_equal(h1.bin_edges, h2.bin_edges)


def test_worker_count_does_not_change_output():
    # `workers` is accepted and ignored: the keyword still runs and moves no
    # byte.  3 chunks worth of pulses, uneven tail
    cfg = SimConfig(model=plain_model(), n_pulses=2 * CHUNK_PULSES + 137, seed=5)
    r1, h1 = run(cfg, workers=1)
    r4, h4 = run(cfg, workers=4)
    assert np.array_equal(r1, r4)
    assert np.array_equal(h1.counts, h4.counts)


def test_detected_counts_are_thinned_poisson():
    # eta-thinned Poisson(4.0) at 85% is Poisson(3.4); compare the full pmf
    cfg = SimConfig(model=plain_model(), n_pulses=100_000, seed=31)
    recs, _ = run(cfg)
    d = recs["true_detected"]
    top = int(d.max()) + 1
    emp = np.bincount(d, minlength=top) / len(d)
    pmf = np.array([math.exp(-3.4) * 3.4 ** i / math.factorial(i) for i in range(top)])
    tv = 0.5 * np.abs(emp - pmf).sum() + 0.5 * (1.0 - pmf.sum())
    assert tv < 0.01


def test_detected_never_exceeds_incident_without_darks():
    cfg = SimConfig(model=plain_model(), n_pulses=20_000, seed=8)
    recs, _ = run(cfg)
    assert np.all(recs["true_detected"] <= recs["true_incident"])


def test_eta_zero_and_one():
    r0, _ = run(SimConfig(model=plain_model(quantum_efficiency=0.0),
                          n_pulses=2000, seed=1))
    assert np.all(r0["true_detected"] == 0)
    r1, _ = run(SimConfig(model=plain_model(quantum_efficiency=1.0),
                          n_pulses=2000, seed=1))
    assert np.array_equal(r1["true_detected"], r1["true_incident"])


@pytest.mark.parametrize("over, digest", [
    ({}, "1049b7387402ea86805bf0389e2abf4732a95531f1061980c7ba4a32b4a7fe6e"),
    ({"dark_rate_per_gate": 0.3},
     "16a9091b11919943cfb7b6bda80b580e1c45c36342213117e4ff3004f353b40e"),
    ({"dark_rate_per_gate": 0.3, "cell_count": 50},
     "5dc95a002a30daab9bb87d39a074a1b213e6440857a3c26ade6286f4427655d0"),
])
def test_eta_zero_runs_match_pinned_digests(over, digest):
    # binomial thinning at QE 0 must return zeros and draw nothing, so the
    # dark, cell and area draws keep their place in each chunk's stream
    recs, hist = run(SimConfig(model=plain_model(quantum_efficiency=0.0, **over),
                               n_pulses=2 * CHUNK_PULSES + 137, seed=1))
    blob = recs.tobytes() + hist.counts.tobytes() + hist.bin_edges.tobytes()
    assert hashlib.sha256(blob).hexdigest() == digest


SHAPE_DIGESTS = {
    # sha256 of records + counts + edges at seed 23
    ("qe1", 1): "1e04f2f0cb74dd227bbb352a2ccc74d7091fb6699f58952300eb176a2931b236",
    ("qe1", CHUNK_PULSES - 1): "0cf5590d8760139f200521cb53ed44778e4e262c27618c39702ebd7c05725e95",
    ("qe1", CHUNK_PULSES): "6f10d12447c993a419c1e7971d188fc1fac6b69f41e961954a08dcb3bec9ab55",
    ("qe1", CHUNK_PULSES + 1): "df23fd18da1b94ac034be375a43c6c5af99c2c7f3e9468ed52ff45905eb97dae",
    ("qe1", 3 * CHUNK_PULSES + 5):
        "78e40b22e984f1c329eea99dfa379da28f2013e57f2885a24ebd8ced915d3bf8",
    ("dark_cells", 1): "ab49163db9f8994c2728aa2786c8f1aefa38677ee65c4a962a229f393b71c6f2",
    ("dark_cells", CHUNK_PULSES - 1):
        "4947cc6ab65702a329dd36498aebd2ef348c6f6b08f079c36226ce5853b10c91",
    ("dark_cells", CHUNK_PULSES): "d70009827e6519d8feb74e6c16c96ce7a8fcc5d2f57e452d2010b9ab449f0cbf",
    ("dark_cells", CHUNK_PULSES + 1):
        "39fdeefc791c7af15da826fc530086a035ff2540d4c34246b75b223736fdc848",
    ("dark_cells", 3 * CHUNK_PULSES + 5):
        "f4ce1c31464f6d2ee93d6750421bc55477e8eb5be4968392170b340cc3e66727",
}


@pytest.mark.parametrize("name, n_pulses", list(SHAPE_DIGESTS), ids=str)
def test_run_shapes_match_pinned_digests(name, n_pulses):
    # one pulse, a chunk less one, a chunk, a chunk and one, and a ragged
    # tail: each chunk fills its own slice of the records
    over = {"qe1": {"quantum_efficiency": 1.0},
            "dark_cells": {"dark_rate_per_gate": 0.3, "cell_count": 50}}[name]
    recs, hist = run(SimConfig(model=plain_model(**over), n_pulses=n_pulses, seed=23))
    assert len(recs) == n_pulses
    blob = recs.tobytes() + hist.counts.tobytes() + hist.bin_edges.tobytes()
    assert hashlib.sha256(blob).hexdigest() == SHAPE_DIGESTS[name, n_pulses]


def reference_run(config):
    """`run` with per-pulse area arithmetic: the same RNG calls, each pulse's
    mean and variance computed from its own detection count d."""
    model = config.model
    incident_cdf = simulate._poisson_cdf(model.mean_photon_number)
    dark_cdf = simulate._poisson_cdf(model.dark_rate_per_gate)
    records = np.empty(config.n_pulses, dtype=PULSE_DTYPE)
    for k, start in enumerate(range(0, config.n_pulses, CHUNK_PULSES)):
        rng = substream(config.seed, k)
        n = min(CHUNK_PULSES, config.n_pulses - start)
        incident = simulate._poisson_inverse(rng, incident_cdf, n)
        detected = (incident if model.quantum_efficiency == 1.0 else
                    rng.binomial(incident, model.quantum_efficiency).astype(np.int64))
        if model.dark_rate_per_gate > 0:
            detected = detected + simulate._poisson_inverse(rng, dark_cdf, n)
        if model.cell_count is not None:
            detected = simulate._saturate(rng, detected, model.cell_count)
        d = detected.astype(np.float64)
        mean = model.area_offset + d * model.gain_per_photon - d * d * model.saturation_coeff
        var = (model.electronic_noise_var
               + np.where(detected > 0, model.extra_per_photon_var, 0.0)
               + d * model.mult_noise_var)
        chunk = records[start:start + n]
        chunk["true_incident"] = incident
        chunk["true_detected"] = detected
        chunk["area"] = mean + np.sqrt(var) * rng.standard_normal(n)
    return records, histogram_from_areas(records["area"], config.resolved_bin_width)


@st.composite
def detector_models(draw):
    def either(zero, values):
        return draw(st.one_of(st.just(zero), values))

    return DetectorModel(
        mean_photon_number=either(0.0, st.floats(0.01, 30.0)),
        quantum_efficiency=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        gain_per_photon=draw(st.floats(1.0, 500.0)),
        mult_noise_var=either(0.0, st.floats(0.01, 1000.0)),
        electronic_noise_var=draw(st.floats(0.01, 500.0)),
        extra_per_photon_var=either(0.0, st.floats(0.01, 500.0)),
        area_offset=either(0.0, st.floats(-1000.0, 1000.0)),
        saturation_coeff=either(0.0, st.floats(-2.0, 2.0)),
        dark_rate_per_gate=either(0.0, st.floats(0.01, 3.0)),
        cell_count=draw(st.one_of(st.none(), st.integers(1, 200))))


@settings(max_examples=40, deadline=None)
@given(model=detector_models(),
       n_pulses=st.sampled_from([1, CHUNK_PULSES - 1, CHUNK_PULSES, CHUNK_PULSES + 1,
                                 2 * CHUNK_PULSES + 137]),
       seed=st.integers(0, 2**64 - 1))
def test_run_matches_per_pulse_reference_sampler(model, n_pulses, seed):
    # the per-count tables move no byte of the records, counts or edges
    config = SimConfig(model=model, n_pulses=n_pulses, seed=seed)
    recs, hist = run(config)
    ref_recs, ref_hist = reference_run(config)
    assert recs.tobytes() == ref_recs.tobytes()
    assert hist.counts.tobytes() == ref_hist.counts.tobytes()
    assert hist.bin_edges.tobytes() == ref_hist.bin_edges.tobytes()
    assert (hist.underflow, hist.overflow) == (ref_hist.underflow, ref_hist.overflow)


def test_run_holds_the_pulse_set_once():
    # the records, one chunk's draws and one histogram block: a second copy
    # of the pulse set (2.4 MB here) would break the bound
    cfg = SimConfig(model=plain_model(), n_pulses=100_000, seed=16)
    tracemalloc.start()
    try:
        recs, _ = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= recs.nbytes + 1_000_000


def test_histogram_transient_stays_one_block():
    # np.histogram makes a contiguous copy of its input and sorts it in
    # blocks: over all 2e5 strided areas at once that held 2.65 MB
    recs, _ = run(SimConfig(model=plain_model(), n_pulses=200_000, seed=16))
    tracemalloc.start()
    try:
        histogram_from_areas(recs["area"], 11.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_dark_counts_add_detections():
    dark = plain_model(mean_photon_number=0.0, quantum_efficiency=0.5,
                       dark_rate_per_gate=0.7)
    recs, _ = run(SimConfig(model=dark, n_pulses=50_000, seed=3))
    assert np.all(recs["true_incident"] == 0)
    assert recs["true_detected"].mean() == pytest.approx(0.7, rel=0.05)


def test_zero_photon_peak_is_electronic_noise_only():
    quiet = plain_model(mean_photon_number=0.0, area_offset=42.0)
    recs, _ = run(SimConfig(model=quiet, n_pulses=50_000, seed=12))
    assert recs["area"].mean() == pytest.approx(42.0, abs=0.2)
    assert recs["area"].std() == pytest.approx(10.6, rel=0.02)


def test_noise_free_multiplication_gives_lattice():
    clean = plain_model(quantum_efficiency=1.0, mult_noise_var=0.0,
                        electronic_noise_var=0.0, extra_per_photon_var=0.0)
    recs, _ = run(SimConfig(model=clean, n_pulses=5000, seed=77))
    lattice = recs["true_detected"] * 135.0
    assert np.allclose(recs["area"], lattice, atol=1e-9)


def test_subpopulation_mean_and_variance_follow_the_model(ref_detector):
    recs, _ = run(SimConfig(model=ref_detector, n_pulses=100_000, seed=6))
    for d in range(7):
        sub = recs["area"][recs["true_detected"] == d]
        if len(sub) < 500:
            continue
        want_mean = (-0.285714285714365 + d * 134.4642857142858
                     - d * d * -1.4642857142857169)
        want_var = 112.36 + (246.0 if d > 0 else 0.0) + d * 276.0
        se_mean = math.sqrt(want_var / len(sub))
        se_var = want_var * math.sqrt(2.0 / (len(sub) - 1))
        assert abs(sub.mean() - want_mean) < 5 * se_mean
        assert abs(sub.var(ddof=1) - want_var) < 5 * se_var


def test_saturation_caps_detection():
    tiny = plain_model(mean_photon_number=30.0, quantum_efficiency=1.0,
                       cell_count=10)
    recs, _ = run(SimConfig(model=tiny, n_pulses=5000, seed=4))
    assert recs["true_detected"].max() <= 10
    assert recs["true_detected"].mean() < 10.0


def test_saturation_monotone_in_cell_count():
    means = []
    for cells in (None, 50, 20, 10, 5):
        m = plain_model(mean_photon_number=12.0, quantum_efficiency=1.0,
                        cell_count=cells)
        recs, _ = run(SimConfig(model=m, n_pulses=20_000, seed=9))
        means.append(recs["true_detected"].mean())
    assert all(a >= b - 1e-9 for a, b in zip(means, means[1:]))


def test_run_single_pulse(ref_detector):
    # one pulse is one partial chunk
    recs, hist = run(SimConfig(ref_detector, n_pulses=1, seed=123))
    assert len(recs) == 1
    assert recs["true_detected"][0] <= recs["true_incident"][0]
    assert np.isfinite(recs["area"][0])
    assert hist.counts.sum() == 1 and hist.total_pulses == 1


# ---------------------------------------------------------------- histograms

def test_histogram_grid_aligned_to_width():
    h = histogram_from_areas(np.array([0.3, 5.2, 11.9, 27.0]), 4.0)
    assert np.allclose(h.bin_edges % 4.0, 0.0)
    assert h.counts.sum() == 4
    assert h.underflow == 0 and h.overflow == 0


def test_histogram_counts_every_area_once():
    rng = np.random.default_rng(0)
    areas = rng.normal(50.0, 20.0, size=10_000)
    h = histogram_from_areas(areas, 2.5)
    assert h.counts.sum() + h.underflow + h.overflow == 10_000
    assert h.total_pulses == 10_000


HIST_BLOCK = 4 * CHUNK_PULSES   # rows per np.histogram call in histogram_from_areas


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 9, HIST_BLOCK - 1, HIST_BLOCK, HIST_BLOCK + 1,
                          2 * HIST_BLOCK + 3]),
       width=st.sampled_from([0.35, 0.7, 2.5, 11.25, 13.7]),
       seed=st.integers(0, 2**32 - 1),
       on_edges=st.sampled_from([0.0, 0.3, 1.0]),
       form=st.sampled_from(["array", "strided", "list"]))
def test_blocked_histogram_equals_one_np_histogram(n, width, seed, on_edges, form):
    rng = np.random.default_rng(seed)
    areas = rng.normal(300.0, 120.0, n)
    # move a share of the areas onto interior edges of their own grid
    inner = histogram_from_areas(areas, width).bin_edges[1:-1]
    snap = rng.random(n) < on_edges
    if len(inner) and snap.any():
        areas[snap] = rng.choice(inner, snap.sum())
    if form == "strided":
        recs = np.zeros(n, dtype=PULSE_DTYPE)
        recs["area"] = areas
        given_areas = recs["area"]
    else:
        given_areas = areas.tolist() if form == "list" else areas
    h = histogram_from_areas(given_areas, width)
    assert h.counts.dtype == np.int64 and h.total_pulses == n
    assert np.array_equal(h.counts, np.histogram(areas, bins=h.bin_edges)[0])


@pytest.mark.parametrize("width, top", [(0.7, 3), (0.35, 3), (13.7, 3), (1.1, 15)])
def test_blocked_histogram_counts_the_top_edge(width, top):
    # width * top rounds so that the grid ends exactly on the largest area,
    # which only the last, right-closed bin holds; a block boundary falls
    # inside the run of areas on that edge
    areas = np.concatenate([np.zeros(HIST_BLOCK - 2), np.full(5, width * top)])
    h = histogram_from_areas(areas, width)
    assert h.bin_edges[-1] == areas.max()
    assert h.counts[-1] == 5 and h.counts.sum() == len(areas)
    assert np.array_equal(h.counts, np.histogram(areas, bins=h.bin_edges)[0])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_histogram_refuses_non_finite_areas(tmp_path, bad):
    # the pulse reader round-trips non-finite areas; binning them is refused
    # with a ValueError that counts them, not an OverflowError from int()
    recs = np.zeros(5, dtype=PULSE_DTYPE)
    recs["area"] = [1.0, bad, 3.0, bad, 5.0]
    p = tmp_path / "pulses.csv"
    write_pulses_csv(p, recs)
    areas = read_pulses_csv(p)["area"]
    with pytest.raises(ValueError, match=r"^cannot histogram non-finite areas: 2 of 5$"):
        histogram_from_areas(areas, 1.0)


@pytest.mark.parametrize("width", [0.0, -1.0, math.nan, math.inf, -math.inf], ids=repr)
def test_bin_width_must_be_finite_and_positive(width):
    # both places a width enters: the run's config and the binning itself
    message = f"^bin_width must be a finite number > 0, got {re.escape(repr(width))}$"
    with pytest.raises(ValueError, match=message):
        histogram_from_areas(np.array([1.0, 2.0]), width)
    with pytest.raises(ValueError, match=message):
        SimConfig(model=plain_model(), n_pulses=100, seed=1, bin_width=width)


def test_auto_bin_width_tracks_gain():
    cfg = SimConfig(model=plain_model(gain_per_photon=120.0), n_pulses=100,
                    seed=2)
    assert cfg.resolved_bin_width == pytest.approx(10.0)
    explicit = SimConfig(model=plain_model(), n_pulses=100, seed=2,
                         bin_width=7.5)
    assert explicit.resolved_bin_width == 7.5


def test_capacity_guard():
    with pytest.raises(CapacityError):
        SimConfig(model=plain_model(), n_pulses=MAX_PULSES + 1, seed=0)
    # a Poisson mean whose draw table would hold ~1e9 log-factorials
    for name in ("mean_photon_number", "dark_rate_per_gate"):
        with pytest.raises(CapacityError, match=f"^{name}=1000000000.0 exceeds"):
            SimConfig(model=plain_model(**{name: 1e9}), n_pulses=1, seed=0)
    SimConfig(model=plain_model(mean_photon_number=MAX_POISSON_MEAN,
                                dark_rate_per_gate=MAX_POISSON_MEAN), n_pulses=1, seed=0)


def test_capacity_guard_on_cell_assignment():
    # at mean 1e6 one chunk would assign 8.2e9 cells, hundreds of GB
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"^cell_count saturation would assign 8.19e\+09 "
                                                r"expected detections per 8192-pulse chunk"):
            SimConfig(model=plain_model(mean_photon_number=1e6, quantum_efficiency=1.0,
                                        cell_count=100), n_pulses=1, seed=0)
        assert tracemalloc.get_traced_memory()[1] < 1_000_000
    finally:
        tracemalloc.stop()
    # the budget counts dark detections and the QE-thinned mean
    edge = MAX_CELL_DETECTIONS / CHUNK_PULSES
    SimConfig(model=plain_model(mean_photon_number=edge, quantum_efficiency=1.0,
                                cell_count=100), n_pulses=1, seed=0)
    with pytest.raises(CapacityError):
        SimConfig(model=plain_model(mean_photon_number=edge, quantum_efficiency=1.0,
                                    dark_rate_per_gate=1.0, cell_count=100), n_pulses=1, seed=0)
    SimConfig(model=plain_model(mean_photon_number=2 * edge, quantum_efficiency=0.5,
                                cell_count=100), n_pulses=1, seed=0)
    # without cell_count the chunk holds counts, not cells
    SimConfig(model=plain_model(mean_photon_number=1e6), n_pulses=1, seed=0)


def test_poisson_tables_built_once_per_run(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return real(n)

    real = simulate._log_factorials
    monkeypatch.setattr(simulate, "_log_factorials", counted)
    cfg = SimConfig(model=plain_model(dark_rate_per_gate=0.3), n_pulses=3 * CHUNK_PULSES + 5, seed=8)
    r1, h1 = run(cfg, workers=1)
    assert len(calls) == 2          # one table per mean, not one per chunk and mean
    r2, h2 = run(cfg, workers=2)
    assert len(calls) == 4
    assert r1.tobytes() == r2.tobytes()
    assert h1.counts.tobytes() == h2.counts.tobytes()


def test_histogram_refuses_grid_beyond_bin_budget():
    # 1e15 bins: numpy's MemoryError, had the grid been built
    with pytest.raises(CapacityError,
                       match=r"^areas 0.0 to 1000000000000000.0 need 1e\+15 bins of width 1.0"):
        histogram_from_areas(np.array([0.0, 1e15]), 1.0)
    # grid indices beyond float range
    with pytest.raises(CapacityError, match="need nan bins of width 1e-10"):
        histogram_from_areas(np.array([1e300]), 1e-10)
    assert histogram_from_areas(np.array([0.0, MAX_BINS - 1.0]), 1.0).n_bins == MAX_BINS


# ---------------------------------------------------------------- CSV round trips

def spy_loadtxt(monkeypatch, refuse_path=False):
    """Record which pass each np.loadtxt call is: "path" for numpy's C reader
    over the file, "lines" for the line-by-line pass over the open handle."""
    real, passes = np.loadtxt, []

    def spy(source, **kwargs):
        passes.append("path" if isinstance(source, str) else "lines")
        if refuse_path and isinstance(source, str):
            raise ValueError("path pass refused by the test")
        return real(source, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return passes


def test_pulse_csv_round_trip(tmp_path, monkeypatch):
    cfg = SimConfig(model=plain_model(), n_pulses=3000, seed=44)
    recs, _ = run(cfg)
    p = tmp_path / "pulses.csv"
    write_pulses_csv(p, recs)
    passes = spy_loadtxt(monkeypatch)
    back = read_pulses_csv(p)
    assert passes == ["path"]
    assert np.array_equal(back["true_incident"], recs["true_incident"])
    assert np.array_equal(back["true_detected"], recs["true_detected"])
    assert np.array_equal(back["area"].view(np.int64), recs["area"].view(np.int64))
    # writing the same records twice gives the same bytes
    p2 = tmp_path / "again.csv"
    write_pulses_csv(p2, recs)
    assert p.read_bytes() == p2.read_bytes()


def test_pulse_csv_writer_matches_per_row_format(tmp_path):
    # 8192 + 5 rows cross the writer's block boundaries; the awkward areas
    # are the shortest-repr cases (subnormal, exponent forms, signed zero,
    # non-finite) a vectorised formatter could get wrong
    n = CHUNK_PULSES + 5
    recs = np.empty(n, dtype=PULSE_DTYPE)
    recs["true_incident"] = np.arange(n) % 17
    recs["true_detected"] = np.arange(n) % 13
    recs["area"] = np.linspace(-50.0, 1200.0, n) / 3.0
    specials = [5e-324, 1e-05, 1e+16, -0.0, float("nan"), float("inf")]
    for offset in (0, CHUNK_PULSES - 3):
        recs["area"][offset:offset + len(specials)] = specials
    p = tmp_path / "pulses.csv"
    write_pulses_csv(p, recs)
    oracle = "# pnr-lab v1\ntrue_incident,true_detected,area\n" + "".join(
        f"{int(r['true_incident'])},{int(r['true_detected'])},{float(r['area'])!r}\n"
        for r in recs)
    assert p.read_bytes() == oracle.encode()
    back = read_pulses_csv(p)
    assert np.array_equal(back.view(np.uint8), recs.view(np.uint8))


def render_by_row_format(header, specs, *columns) -> str:
    """A table as the writer rendered it before it went column-wise: one
    `str.format` call per row over the tolist()ed columns."""
    row_format = ",".join("{!r}" if spec == "r" else f"{{:{spec}}}" for spec in specs)
    return f"# pnr-lab v1\n{header}\n" + "".join(
        map((row_format + "\n").format, *(np.asarray(c).tolist() for c in columns)))


TABLE_ROWS = simulate._TABLE_ROWS


def random_column(draw, rng, n, integer):
    """n values: int64 counts with repeats or over the whole int64 range, or
    float64 of random bit patterns or at pulse-area scale.  The awkward values
    (int64's ends; both zeros, a subnormal, exponent forms and non-finite
    floats) and a few drawn ones are spliced in at drawn rows."""
    if integer:
        column = (rng.integers(0, 20, n) if draw(st.booleans())
                  else rng.integers(-2**63, 2**63 - 1, n, endpoint=True))
        awkward, special = [-2**63, 2**63 - 1, 0, -1], st.integers(-2**63, 2**63 - 1)
    else:
        column = (rng.integers(0, 2**64 - 1, n, np.uint64, endpoint=True).view(np.float64)
                  if draw(st.booleans()) else rng.normal(500.0, 300.0, n))
        awkward = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-05, 1e+16,
                   math.nan, math.inf, -math.inf]
        special = st.floats()
    if n:
        column[rng.integers(0, n, len(awkward))] = awkward
        for value in draw(st.lists(special, max_size=6)):
            column[draw(st.integers(0, n - 1))] = value
    return column


@st.composite
def tables(draw, specs=None):
    """(specs, columns) of 0, 1 or a block's length +-1 rows, or a few: the
    pulse, histogram and K + 3 column fit_curve.csv layouts, with whole
    numbers in "" columns, or any specs over int64 and float64 columns."""
    n = draw(st.sampled_from([0, 1, TABLE_ROWS - 1, TABLE_ROWS, TABLE_ROWS + 1,
                              2 * TABLE_ROWS + 1]) | st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    k = draw(st.integers(1, 14))
    layouts = st.sampled_from([("", "", "r"), ("r", "r", ""), (".10g", "") + (".10g",) * (k + 1)])
    mixed = specs is None and draw(st.booleans())
    if mixed:
        specs = tuple(draw(st.lists(st.sampled_from(["", "r", ".10g"]), min_size=1, max_size=5)))
    specs = specs or draw(layouts)
    return specs, [random_column(draw, rng, n, draw(st.booleans()) if mixed else spec == "")
                   for spec in specs]


@settings(max_examples=40, deadline=None)
@given(table=tables())
def test_write_table_matches_the_row_format_renderer(tmp_path_factory, table):
    specs, columns = table
    header = ",".join(f"c{i}" for i in range(len(specs)))
    path = tmp_path_factory.getbasetemp() / "table.csv"
    simulate.write_table(path, header, specs, *columns)
    assert path.read_bytes() == render_by_row_format(header, specs, *columns).encode()


@settings(max_examples=20, deadline=None)
@given(table=tables(specs=("", "", "r")))
def test_pulse_csv_round_trips_random_records(tmp_path_factory, table):
    specs, columns = table
    recs = np.empty(len(columns[0]), dtype=PULSE_DTYPE)
    for name, column in zip(PULSE_DTYPE.names, columns):
        recs[name] = column
    path = tmp_path_factory.getbasetemp() / "pulses.csv"
    write_pulses_csv(path, recs)
    assert path.read_bytes() == render_by_row_format(
        "true_incident,true_detected,area", specs, *columns).encode()
    back = read_pulses_csv(path)
    for name in ("true_incident", "true_detected"):
        assert np.array_equal(back[name], recs[name])
    # every area comes back bit for bit, but a NaN reads back as numpy's one NaN
    area, back_area = recs["area"], back["area"]
    assert ((area.view(np.int64) == back_area.view(np.int64))
            | np.isnan(area) & np.isnan(back_area)).all()


PULSE_HEAD = "# pnr-lab v1\ntrue_incident,true_detected,area\n"


# "default" overrides the suite's warnings-as-errors, so the refusals below
# are the readers' own and not an artefact of the test configuration
@pytest.mark.filterwarnings("default")
@pytest.mark.parametrize("text", [PULSE_HEAD + body for body in [
    "1,2\n",
    "1,2,100.5,7\n",
    "1,2,100.5,\n",
    "1.0,2,100.5\n",
    "1,2.7,100.5\n",
    "1e3,2,100.5\n",
    "1,2,abc\n",
    "1,2,100.5\n# note\n3,3,400.0\n",
    "1,2,1_000.5\n",
    "99999999999999999999,2,100.5\n",
]] + ["# pnr-lab v1\ntrue_incident,area,true_detected\n1,100.5,2\n"],
    ids=["two_fields", "four_fields", "trailing_comma", "float_count",
         "fractional_count", "exponent_count", "non_numeric_area", "comment_in_body",
         "underscore_float", "beyond_int64", "wrong_columns"])
def test_pulse_csv_malformed_row_is_format_error(tmp_path, text):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(FormatError, match=re.escape(str(p))):
        read_pulses_csv(p)


def test_pulse_csv_skips_blank_lines(tmp_path, monkeypatch):
    p = tmp_path / "blank.csv"
    p.write_text(PULSE_HEAD + "\n1,2,100.5\n   \n\t\n3,3,-0.0\n\n")
    passes = spy_loadtxt(monkeypatch)
    back = read_pulses_csv(p)
    # the C reader refuses whitespace-only lines; the line pass drops them
    assert passes == ["path", "lines"]
    assert back["true_incident"].tolist() == [1, 3]
    assert back["true_detected"].tolist() == [2, 3]
    assert back["area"].tolist() == [100.5, -0.0]
    assert math.copysign(1.0, back["area"][1]) == -1.0


def test_pulse_csv_header_only_is_empty_without_warning(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text(PULSE_HEAD + "\n  \n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_pulses_csv(p)
    assert back.dtype == PULSE_DTYPE
    assert len(back) == 0


@pytest.mark.filterwarnings("default")
@pytest.mark.parametrize("text", [
    "# pnr-lab v1\n# total_pulses=ten\nbin_left,bin_right,count\n0.0,1.0,5\n",
    "# pnr-lab v1\nbin_left,bin_right,count\n0.0,1.0,5\n1.0,2.0,x\n",
    "# pnr-lab v1\nbin_left,bin_right,count\n0.0,1.0,2.7\n",
    "# pnr-lab v1\nbin_left,bin_right,count\n0.0,1.0,99999999999999999999\n",
    "# pnr-lab v1\nbin_left,bin_right,count\n0.0,1.0\n",
    "# pnr-lab v1\nbin_left,bin_right,count\n\n",
    "# pnr-lab v1\nbin_left,bin_right,count\n0.0,1.0,-5\n",
    "# pnr-lab v1\n# total_pulses=9 underflow=-7 overflow=-1\n"
    "bin_left,bin_right,count\n0.0,1.0,4\n1.0,2.0,5\n",
    "# pnr-lab v1\n# total_pulses=9 underflow=50\n"
    "bin_left,bin_right,count\n0.0,1.0,4\n1.0,2.0,5\n",
    "# pnr-lab v1\n# total_pulses=1_0\nbin_left,bin_right,count\n0.0,1.0,4\n1.0,2.0,5\n",
    "# pnr-lab v1\n# total_pulses=99999999999999999999\n"
    "bin_left,bin_right,count\n0.0,1.0,4\n1.0,2.0,5\n",
    "# pnr-lab v1\n# total_pulses=9\nbin_left,bin_right,counts\n0.0,1.0,4\n1.0,2.0,5\n",
], ids=["bad_meta_value", "bad_count", "fractional_count", "beyond_int64", "two_fields",
        "no_bins", "negative_count", "negative_underflow", "tallies_exceed_total",
        "underscore_meta_value", "meta_beyond_int64", "wrong_columns"])
def test_histogram_csv_malformed_is_format_error(tmp_path, text):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(FormatError, match=re.escape(str(p))):
        read_histogram_csv(p)


@pytest.mark.filterwarnings("default")
@pytest.mark.parametrize("reader, head", [
    (read_pulses_csv, PULSE_HEAD),
    (read_histogram_csv, "# pnr-lab v1\nbin_left,bin_right,count\n"),
], ids=["pulses", "histogram"])
def test_integer_via_float_fallback_is_refused(tmp_path, monkeypatch, reader, head):
    # numpy releases that still carry the 1.23 deprecation parse a count
    # such as "2.7" as a float, warn once and truncate; loadtxt turns the
    # warning into its ValueError only when warnings are errors.  Mimic that
    # loadtxt: the readers must refuse the row under default filters too.
    def fallback_loadtxt(rows, *, dtype, **kwargs):
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
        except DeprecationWarning as exc:
            raise ValueError("could not convert string '2.7' to int64") from exc
        return np.array([(0, 1, 2)], dtype)  # a well-formed row of either file

    monkeypatch.setattr(np, "loadtxt", fallback_loadtxt)
    p = tmp_path / "fallback.csv"
    p.write_text(head + "2.7,2.7,2.7\n")
    with pytest.raises(FormatError, match=re.escape(str(p))):
        reader(p)


# ------------------------------------------------- one C pass, a line pass on refusal

def table_bytes(table):
    if isinstance(table, np.ndarray):
        return table.tobytes()
    return (table.bin_edges.tobytes(), table.counts.tobytes(),
            table.total_pulses, table.underflow, table.overflow)


HIST_COLUMNS = "bin_left,bin_right,count\n"
HIST_HEAD = "# pnr-lab v1\n" + HIST_COLUMNS
HIST_BODY = "0.0,1.5,4\n1.5,3.0,5\n3.0,4.5,0\n"


@pytest.mark.parametrize("reader, text", [
    (read_pulses_csv, PULSE_HEAD + "\n1,2,100.5\n\n3,3,-0.0\n4,0,5e-324\n\n"),
    (read_pulses_csv, (PULSE_HEAD + "1,2,100.5\n\n3,3,-0.0\n").replace("\n", "\r\n")),
    (read_pulses_csv, PULSE_HEAD + "1,2,nan\n3,3,inf\n4,4,-inf"),
    (read_pulses_csv, PULSE_HEAD),
    (read_histogram_csv, HIST_HEAD + HIST_BODY),
    (read_histogram_csv, "# pnr-lab v1\n# total_pulses=12\n" + HIST_COLUMNS + HIST_BODY),
    (read_histogram_csv, "# pnr-lab v1\n# total_pulses=12 underflow=1\n# overflow=2\n# note\n"
                         + HIST_COLUMNS + HIST_BODY),
    (read_histogram_csv, ("# pnr-lab v1\n# total_pulses=12\n# overflow=2\n"
                          + HIST_COLUMNS + HIST_BODY).replace("\n", "\r\n")),
], ids=["pulses_empty_lines", "pulses_crlf", "pulses_non_finite", "pulses_header_only",
        "histogram_no_meta", "histogram_one_meta", "histogram_three_meta",
        "histogram_crlf_two_meta"])
def test_well_formed_tables_take_one_c_pass(tmp_path, monkeypatch, reader, text):
    # a miscounted skiprows would make the C reader refuse every file and the
    # line pass read it correctly, slowly: only the pass taken shows it
    p = tmp_path / "table.csv"
    p.write_bytes(text.encode())
    passes = spy_loadtxt(monkeypatch)
    fast = reader(p)
    assert passes == ["path"]
    # the line pass returns the same bits
    monkeypatch.undo()
    passes = spy_loadtxt(monkeypatch, refuse_path=True)
    assert table_bytes(reader(p)) == table_bytes(fast)
    assert passes == ["path", "lines"]


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_compressed_suffix_on_plain_text_round_trips(tmp_path, monkeypatch, suffix):
    # numpy would open these names through a decompressor; the readers do
    # not interpret the suffix, and the line pass reads the plain text
    recs, _ = run(SimConfig(model=plain_model(), n_pulses=300, seed=44))
    p = tmp_path / f"pulses.csv{suffix}"
    write_pulses_csv(p, recs)
    passes = spy_loadtxt(monkeypatch)
    assert read_pulses_csv(p).tobytes() == recs.tobytes()
    assert passes == ["path", "lines"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pulse_csv_through_a_pipe_reads_every_row(tmp_path, monkeypatch):
    # reopening a pipe would find only what the open handle has not yet
    # buffered, or block for a writer that has gone: a pipe takes the line
    # pass over the handle whose header was checked
    recs, _ = run(SimConfig(model=plain_model(), n_pulses=300, seed=44))
    p = tmp_path / "pulses.csv"
    write_pulses_csv(p, recs)
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    passes = spy_loadtxt(monkeypatch)
    with ThreadPoolExecutor(2) as pool:
        pool.submit(fifo.write_bytes, p.read_bytes())
        back = pool.submit(read_pulses_csv, fifo)
        try:
            rows = back.result(timeout=10)
        finally:
            if not back.done():  # a reader blocked reopening the pipe: release it
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    assert rows.tobytes() == recs.tobytes()
    assert passes == ["lines"]


def test_table_replaced_after_header_read_is_read_from_its_handle(tmp_path, monkeypatch):
    # the body must come from the file whose header was checked, not from
    # one renamed over its path in between
    recs, _ = run(SimConfig(model=plain_model(), n_pulses=300, seed=44))
    p = tmp_path / "pulses.csv"
    write_pulses_csv(p, recs)
    other = tmp_path / "other.csv"
    write_pulses_csv(other, recs[:1])
    real_read_rows = simulate._read_rows

    def replace_then_read(fh, path, dtype, skiprows):
        os.replace(other, path)
        return real_read_rows(fh, path, dtype, skiprows)

    monkeypatch.setattr(simulate, "_read_rows", replace_then_read)
    passes = spy_loadtxt(monkeypatch)
    assert read_pulses_csv(p).tobytes() == recs.tobytes()
    assert passes == ["lines"]


def test_malformed_row_among_whitespace_lines_keeps_its_message(tmp_path):
    # the line pass words the error, so the row number counts non-blank body
    # rows from 0, as it did when every file took that pass
    p = tmp_path / "bad.csv"
    p.write_text(PULSE_HEAD + "1,2,3\n  \n\n4,5,x\n")
    with pytest.raises(FormatError) as info:
        read_pulses_csv(p)
    assert str(info.value) == (
        f"{p}: bad row: could not convert string 'x' to float64 at row 1, column 3.")


@pytest.mark.parametrize("reader, text", [
    (read_pulses_csv, PULSE_HEAD + "1,2,100.5\n"),
    (read_histogram_csv, HIST_HEAD + HIST_BODY),
], ids=["pulses", "histogram"])
def test_gzip_compressed_table_is_format_error(tmp_path, reader, text):
    p = tmp_path / "table.csv.gz"
    p.write_bytes(gzip.compress(text.encode()))
    with pytest.raises(FormatError, match=re.escape(f"{p}: not a text file: ")):
        reader(p)


def test_histogram_csv_round_trip(tmp_path, monkeypatch):
    _, hist = run(SimConfig(model=plain_model(), n_pulses=3000, seed=44))
    p = tmp_path / "hist.csv"
    write_histogram_csv(p, hist)
    passes = spy_loadtxt(monkeypatch)
    back = read_histogram_csv(p)
    assert passes == ["path"]
    assert np.allclose(back.bin_edges, hist.bin_edges)
    assert np.array_equal(back.counts, hist.counts)
    assert back.total_pulses == hist.total_pulses


def test_version_header_is_checked(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("true_incident,true_detected,area\n1,1,100.0\n")
    with pytest.raises(FormatError):
        read_pulses_csv(bad)
    bad2 = tmp_path / "bad2.csv"
    bad2.write_text("# pnr-lab v999\nbin_left,bin_right,count\n0,1,5\n")
    with pytest.raises(FormatError):
        read_histogram_csv(bad2)


def test_histogram_csv_requires_contiguous_bins(tmp_path):
    p = tmp_path / "gap.csv"
    p.write_text("# pnr-lab v1\nbin_left,bin_right,count\n0.0,1.0,5\n2.0,3.0,4\n")
    with pytest.raises(FormatError):
        read_histogram_csv(p)

import math
import re
import warnings

import numpy as np
import pytest

from pnr_lab import (CapacityError, DetectorModel, FormatError, SimConfig,
                     histogram_from_areas, read_histogram_csv, read_pulses_csv,
                     run, sample_pulse, substream, write_histogram_csv,
                     write_pulses_csv)
from pnr_lab.simulate import CHUNK_PULSES, MAX_PULSES, PULSE_DTYPE


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
    # 3 chunks worth of pulses, uneven tail
    cfg = SimConfig(model=plain_model(), n_pulses=2 * CHUNK_PULSES + 137, seed=5)
    r1, h1 = run(cfg, workers=1)
    r4, h4 = run(cfg, workers=4)
    assert np.array_equal(r1, r4)
    assert np.array_equal(h1.counts, h4.counts)


def test_detected_counts_are_thinned_poisson():
    # eta-thinned Poisson(4.0) at 85% is Poisson(3.4); compare the full pmf
    cfg = SimConfig(model=plain_model(), n_pulses=100_000, seed=31)
    recs, _ = run(cfg, workers=4)
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
    recs, _ = run(SimConfig(model=ref_detector, n_pulses=100_000, seed=6),
                  workers=4)
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


def test_sample_pulse_single_draw(ref_detector):
    rec = sample_pulse(ref_detector, substream(123, 0))
    assert rec.true_detected <= rec.true_incident
    assert np.isfinite(rec.area)


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


# ---------------------------------------------------------------- CSV round trips

def test_pulse_csv_round_trip(tmp_path):
    cfg = SimConfig(model=plain_model(), n_pulses=3000, seed=44)
    recs, _ = run(cfg)
    p = tmp_path / "pulses.csv"
    write_pulses_csv(p, recs)
    back = read_pulses_csv(p)
    assert np.array_equal(back["true_incident"], recs["true_incident"])
    assert np.array_equal(back["true_detected"], recs["true_detected"])
    assert np.array_equal(back["area"].view(np.int64), recs["area"].view(np.int64))
    # writing the same records twice gives the same bytes
    p2 = tmp_path / "again.csv"
    write_pulses_csv(p2, recs)
    assert p.read_bytes() == p2.read_bytes()


def test_pulse_csv_writer_matches_per_row_format(tmp_path):
    # 8192 + 5 rows cross the writer's block boundary; the awkward areas
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


PULSE_HEAD = "# pnr-lab v1\ntrue_incident,true_detected,area\n"


# "default" overrides the suite's warnings-as-errors, so the refusals below
# are the readers' own and not an artefact of the test configuration
@pytest.mark.filterwarnings("default")
@pytest.mark.parametrize("body", [
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
], ids=["two_fields", "four_fields", "trailing_comma", "float_count",
        "fractional_count", "exponent_count", "non_numeric_area", "comment_in_body",
        "underscore_float", "beyond_int64"])
def test_pulse_csv_malformed_row_is_format_error(tmp_path, body):
    p = tmp_path / "bad.csv"
    p.write_text(PULSE_HEAD + body)
    with pytest.raises(FormatError, match=re.escape(str(p))):
        read_pulses_csv(p)


def test_pulse_csv_skips_blank_lines(tmp_path):
    p = tmp_path / "blank.csv"
    p.write_text(PULSE_HEAD + "\n1,2,100.5\n   \n\t\n3,3,-0.0\n\n")
    back = read_pulses_csv(p)
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
], ids=["bad_meta_value", "bad_count", "fractional_count", "beyond_int64", "two_fields",
        "no_bins", "negative_count"])
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


def test_histogram_csv_round_trip(tmp_path):
    _, hist = run(SimConfig(model=plain_model(), n_pulses=3000, seed=44))
    p = tmp_path / "hist.csv"
    write_histogram_csv(p, hist)
    back = read_histogram_csv(p)
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

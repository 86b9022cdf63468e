"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see every line; without -s,
pytest still shows the captured line for any failing criterion.

Criterion 1 is expected to fail: the reference per-number error column (a
fixed target table this suite ships with) cannot be derived from the
seven-peak catalog the test builds under any decision-integral definition
tried.  Worst per-entry gap against the table, by definition:

    leak-in column sum (what build_scheme computes)        7.26 pp
    leak-out 1 - P(i|i)                                    6.98 pp
    posterior error 1 - P(true i | decided i),
      Poisson priors with mean 3, equal-prior thresholds   3.51 pp
    midpoint thresholds, leak-in or leak-out               7.52 / 6.70 pp

Only one combination reproduces all seven entries, to within 0.43 pp, and it
needs all three of: leak-out errors; an eighth peak at mean 1012.7 and
width 48.0 (the catalog's own ladder and its sigma^2-vs-n line over
n = 1..6, extrapolated to n = 7); and every width scaled by 1.086.  Fitted
one entry at a time the factor lies between 1.066 and 1.105.  Nothing in the
package or its documents explains a 1.086 width factor, so it is not settled
whether the program or the table is wrong; build_scheme does what its
docstring says (tests/test_discriminate.py pins that identity).  The
assertion is kept at the stated tolerance rather than widened, and the
table and catalog are left as shipped; the test's output line carries the
full per-entry comparison.
"""

import math
import time

import numpy as np
import pytest

from pnr_lab import (
    DetectorModel,
    MixtureModel,
    SimConfig,
    build_scheme,
    excess_noise_factor,
    fit_spectrum,
    histogram_from_areas,
    measured_efficiency,
    n_max,
    one_vs_many_error,
    photon_flux,
    run,
    threshold,
    variance_law,
    write_histogram_csv,
    write_pulses_csv,
)
from pnr_lab.core import Constraint
from pnr_lab.fit import FitConfig
from pnr_lab.noise import EfficiencyInput

from conftest import (
    CATALOG_MEANS,
    CATALOG_STDS,
    REF_SAT,
    REF_SPACING,
    REF_X0,
)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPT-{num}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def catalog():
    return MixtureModel.from_peaks(CATALOG_MEANS, CATALOG_STDS)


def table_detector(offset: float = REF_X0) -> DetectorModel:
    return DetectorModel(
        mean_photon_number=3.0 / 0.85,
        quantum_efficiency=0.85,
        gain_per_photon=REF_SPACING,
        mult_noise_var=276.0,
        electronic_noise_var=112.36,
        extra_per_photon_var=246.0,
        area_offset=offset,
        saturation_coeff=REF_SAT,
    )


def test_accept_1_reference_error_column():
    t0 = time.perf_counter()
    sch = build_scheme(catalog(), "equal")
    got_pct = [100.0 * e for e in sch.error_per_number]
    want_pct = [0.01, 1.1, 3.4, 6.1, 8.5, 10.6, 11.3]
    diffs = [abs(g - w) for g, w in zip(got_pct, want_pct)]
    elapsed = time.perf_counter() - t0
    ok = max(diffs) <= 0.6 and elapsed < 1.0
    report(1, ok,
           f"error% per peak {['%.3f' % g for g in got_pct]} vs "
           f"{want_pct} ±0.6pp; |diff| {['%.2f' % d for d in diffs]}; "
           f"{elapsed * 1e3:.0f} ms")
    assert elapsed < 1.0
    for i, (g, w) in enumerate(zip(got_pct, want_pct)):
        assert abs(g - w) <= 0.6, (
            f"peak {i}: computed {g:.3f}% vs reference {w}% "
            f"(diff {abs(g - w):.2f}pp > 0.6pp)")


def test_accept_2_threshold_against_bisection():
    def bisect(x1, s1, x2, s2):
        def logdiff(x):
            return (-0.5 * ((x - x1) / s1) ** 2 - math.log(s1)) - (
                -0.5 * ((x - x2) / s2) ** 2 - math.log(s2))
        lo, hi = x1, x2
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if logdiff(mid) > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for case in range(1000):
        x1 = rng.uniform(-100.0, 100.0)
        dx = rng.uniform(1.0, 1000.0)
        s1 = rng.uniform(0.01, 0.45) * dx
        if case % 10 == 0:
            s2 = s1  # exercise the equal-variance midpoint limit
        else:
            s2 = rng.uniform(0.01, 0.45) * dx
        t = threshold(x1, s1, x1 + dx, s2)
        worst = max(worst, abs(t - bisect(x1, s1, x1 + dx, s2)))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0 and checked == 1000
    report(2, ok, f"{checked} cases, worst |closed-form − bisection| "
                  f"{worst:.3e} (≤1e-6), {elapsed * 1e3:.0f} ms (<1 s)")
    assert checked == 1000
    assert worst <= 1e-6
    assert elapsed < 1.0


def test_accept_3_excess_noise_anchors():
    f = excess_noise_factor(276.0, 135.0)
    checks = [
        ("F", f, 1.015, 0.0005),
        ("n_max(F)", n_max(f), 66.0, 3.0),
        ("n_max(2)", n_max(2.0), 1.0, 1e-12),
        ("n_max(1.2)", n_max(1.2), 5.0, 1e-9),
        ("n_max(1.03)", n_max(1.03), 33.3, 0.1),
    ]
    ok = all(abs(got - want) <= tol for _, got, want, tol in checks)
    report(3, ok, "; ".join(f"{name}={got:.5g} (want {want}±{tol:g})"
                            for name, got, want, tol in checks))
    for name, got, want, tol in checks:
        assert abs(got - want) <= tol, name


def test_accept_4_quantum_efficiency_chain():
    flux_rate = photon_flux(543e-9, 2e-9)
    res = measured_efficiency(EfficiencyInput(
        wavelength=543e-9, power=2e-9, nd_transmission=1e-4,
        counts=100.0 + 0.85 * 1e-4 * flux_rate, dark_counts=100.0,
        loss_factors=(0.93, 0.99)))
    unit_flux = photon_flux(543e-9, 3.658e-19)
    ok = (abs(res.intrinsic - 0.923) <= 0.001
          and abs(res.raw - 0.85) <= 1e-9
          and abs(unit_flux - 1.0) <= 0.001)
    report(4, ok, f"raw {res.raw:.4f} → intrinsic {res.intrinsic:.4f} "
                  f"(want 0.923±0.001); flux(543nm, 3.658e-19 W) "
                  f"= {unit_flux:.6f}/s (want 1±0.001)")
    assert abs(res.raw - 0.85) <= 1e-9
    assert abs(res.intrinsic - 0.923) <= 0.001
    assert abs(unit_flux - 1.0) <= 0.001


def test_accept_5_round_trip_recovery():
    t0 = time.perf_counter()
    recs, hist = run(SimConfig(model=table_detector(), n_pulses=100_000, seed=16))
    # the 7-peak model describes the photon numbers 0..6; pulses beyond the
    # modeled ladder would otherwise be absorbed into the last peak's width
    areas = recs["area"][recs["true_detected"] <= 6]
    h = histogram_from_areas(areas, hist.widths[0])
    rep = fit_spectrum(h, FitConfig(n_peaks=7))
    nr = variance_law(rep.model.peaks)
    f_gen = 1.0 + 276.0 / REF_SPACING**2
    d_delta = abs(rep.model.spacing - REF_SPACING) / REF_SPACING
    d_sig_m = abs(nr.sigma_m_sq - 276.0) / 276.0
    d_sig_0 = abs(nr.sigma_0_sq - 246.0) / 246.0
    d_f = abs(nr.enf - f_gen)
    elapsed = time.perf_counter() - t0
    ok = (rep.converged and d_delta <= 0.02 and d_sig_m <= 0.15
          and d_sig_0 <= 0.15 and d_f <= 0.003 and elapsed < 60.0)
    report(5, ok, f"Δ off {d_delta:.2%} (≤2%), σ_M² off {d_sig_m:.2%} (≤15%), "
                  f"σ₀² off {d_sig_0:.2%} (≤15%), F off {d_f:.5f} (≤0.003), "
                  f"{elapsed:.1f} s (<60 s)")
    assert rep.converged
    assert d_delta <= 0.02
    assert d_sig_m <= 0.15
    assert d_sig_0 <= 0.15
    assert d_f <= 0.003
    assert elapsed < 60.0


def test_accept_6_poisson_constraint_insensitivity():
    t0 = time.perf_counter()
    # nonzero offset keeps the relative difference on x0 well-posed
    recs, hist = run(SimConfig(model=table_detector(offset=450.0),
                               n_pulses=100_000, seed=16))
    areas = recs["area"][recs["true_detected"] <= 6]
    h = histogram_from_areas(areas, hist.widths[0])
    free = fit_spectrum(h, FitConfig(n_peaks=7))
    pois = fit_spectrum(h, FitConfig(n_peaks=7,
                                     constraint=Constraint.POISSON_WEIGHTS))
    d_x0 = abs(free.model.x0 - pois.model.x0) / abs(free.model.x0)
    d_delta = abs(free.model.spacing - pois.model.spacing) / free.model.spacing
    elapsed = time.perf_counter() - t0
    ok = (free.converged and pois.converged and d_x0 < 0.02 and d_delta < 0.02
          and elapsed < 60.0)
    report(6, ok, f"x0 differs {d_x0:.2e}, Δ differs {d_delta:.2e} "
                  f"(both <2%); fitted μ {pois.model.poisson_mu:.3f}; "
                  f"{elapsed:.1f} s (<60 s)")
    assert free.converged and pois.converged
    assert d_x0 < 0.02
    assert d_delta < 0.02
    assert elapsed < 60.0


def test_accept_7_one_vs_many():
    err = one_vs_many_error(catalog(), [0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
    ok = err <= 0.015
    report(7, ok, f"binary 1-vs-≥2 error {err:.4%} (≤1.5%), "
                  f"accuracy {1 - err:.2%}")
    assert err <= 0.015


def test_accept_8_error_monotone_in_photon_number():
    rng = np.random.default_rng(88)
    violations = 0
    for _ in range(100):
        k = int(rng.integers(4, 9))
        delta = rng.uniform(50.0, 200.0)
        alpha = rng.uniform(0.0, delta / (8 * k))
        min_spacing = delta - alpha * (2 * k - 3)
        top_frac = rng.uniform(0.15, 0.35)
        v_total = (top_frac * min_spacing) ** 2
        split = rng.dirichlet([1.0, 1.0, 2.0])
        v_elec, v_0 = split[0] * v_total, split[1] * v_total
        v_m = split[2] * v_total / (k - 1)
        i = np.arange(k)
        stds = np.sqrt(v_elec + np.where(i > 0, v_0, 0.0) + i * v_m)
        m = MixtureModel.from_ladder(0.0, delta, alpha, stds,
                                     np.full(k, 1.0 / k),
                                     constraint_kind=Constraint.LINEAR_VARIANCE)
        err = build_scheme(m, "equal").error_per_number
        interior = err[1:k - 1]
        if any(b < a - 1e-15 for a, b in zip(interior, interior[1:])):
            violations += 1
    ok = violations == 0
    report(8, ok, f"{violations}/100 draws with decreasing interior error "
                  "(want 0)")
    assert violations == 0


def test_accept_9_byte_identical_runs(tmp_path):
    # `workers` is accepted and ignored; the 1-vs-4 half checks that it still
    # runs and moves no byte
    cfg = SimConfig(model=table_detector(), n_pulses=50_000, seed=7)
    blobs = {}
    for label, workers in (("run1_w1", 1), ("run2_w1", 1), ("run3_w4", 4)):
        recs, hist = run(cfg, workers=workers)
        p = tmp_path / f"{label}_pulses.csv"
        h = tmp_path / f"{label}_hist.csv"
        write_pulses_csv(p, recs)
        write_histogram_csv(h, hist)
        blobs[label] = (p.read_bytes(), h.read_bytes())
    same_rerun = blobs["run1_w1"] == blobs["run2_w1"]
    same_workers = blobs["run1_w1"] == blobs["run3_w4"]
    ok = same_rerun and same_workers
    report(9, ok, f"re-run byte-identical: {same_rerun}; "
                  f"workers 1 vs 4 byte-identical: {same_workers} "
                  f"({len(blobs['run1_w1'][0])} pulse bytes)")
    assert same_rerun
    assert same_workers

import numpy as np
import pytest

from pnr_lab import (Constraint, FitConfig, FitSetupError, Histogram,
                     MixtureModel, SimConfig, expected_counts, fit_spectrum,
                     histogram_from_areas, init_guess, report_from_json,
                     report_to_json, run)
from pnr_lab.fit import _Problem

from conftest import (REF_ELEC_VAR, REF_EXTRA_VAR, REF_MULT_VAR, REF_SAT, REF_SPACING,
                      REF_X0, CATALOG_MEANS, CATALOG_STDS, law_stds)


def synthetic_hist(model, n=200_000, width=11.0, seed=0, lo=None, hi=None):
    """Deterministic expected-count histogram with Poisson noise on top."""
    means = model.means()
    stds = model.std_devs()
    if lo is None:
        lo = means[0] - 5 * stds[0]
    if hi is None:
        hi = means[-1] + 5 * stds[-1]
    first = np.floor(lo / width) * width
    nbins = int(np.ceil((hi - first) / width))
    edges = first + width * np.arange(nbins + 1)
    _, curve = expected_counts(model, edges, n)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(curve)
    return Histogram(bin_edges=edges, counts=counts, total_pulses=int(counts.sum()))


# ---------------------------------------------------------------- init_guess

def test_init_guess_two_clean_peaks():
    rng = np.random.default_rng(1)
    areas = np.concatenate([rng.normal(450.0, 12.0, 6000),
                            rng.normal(585.0, 12.0, 6000)])
    h = histogram_from_areas(areas, 5.0)
    g = init_guess(h, 2)
    assert g.x0 == pytest.approx(450.0, abs=6.0)
    assert g.spacing == pytest.approx(135.0, abs=8.0)
    assert g.sat == 0.0
    assert np.allclose(g.weights(), [0.5, 0.5], atol=0.03)
    with pytest.raises(ValueError, match="n_peaks must be a whole number"):
        init_guess(h, 5.7)
    # FitConfig's peak-count rule: one peak defines no ladder spacing
    for bad in (1, 0, -1):
        with pytest.raises(ValueError, match=f"n_peaks must be >= 2, got {bad}"):
            init_guess(h, bad)


def test_init_guess_auto_is_maxima_plus_two():
    rng = np.random.default_rng(2)
    areas = np.concatenate([rng.normal(100.0 * i, 9.0, 5000) for i in range(4)])
    g = init_guess(histogram_from_areas(areas, 8.0), "auto")
    assert g.n_peaks == 6   # 4 clear maxima + 2


def test_init_guess_flat_histogram_fails():
    h = Histogram(bin_edges=np.linspace(0, 10, 11),
                  counts=np.full(10, 7), total_pulses=70)
    with pytest.raises(FitSetupError):
        init_guess(h, "auto")


def test_init_guess_needs_bins():
    h = Histogram(bin_edges=np.array([0.0, 1.0]), counts=np.array([5]),
                  total_pulses=5)
    with pytest.raises(FitSetupError):
        init_guess(h, 2)


# ---------------------------------------------------------------- machinery

def test_free_parameter_counts():
    h = synthetic_hist(MixtureModel.from_ladder(0, 100, 0, [8, 9, 10],
                                                [0.3, 0.4, 0.3]))
    for kind, expect in [(Constraint.FREE_WEIGHTS_FREE_SIGMAS, 2 * 3 + 2),
                         (Constraint.POISSON_WEIGHTS, 3 + 4),
                         (Constraint.LINEAR_VARIANCE, 3 + 5)]:
        p = _Problem(h, kind, 3)
        assert p.n_params() == expect, kind


@pytest.mark.parametrize("kind, log_v0", [
    pytest.param(Constraint.FREE_WEIGHTS_FREE_SIGMAS, None, id="free"),
    pytest.param(Constraint.POISSON_WEIGHTS, None, id="poisson"),
    pytest.param(Constraint.LINEAR_VARIANCE, None, id="linear_variance"),
    # log v_0 past the +/-30 clip: the model does not move with it
    pytest.param(Constraint.LINEAR_VARIANCE, -40.0, id="linear_variance-v0_clipped_low"),
    pytest.param(Constraint.LINEAR_VARIANCE, 40.0, id="linear_variance-v0_clipped_high"),
])
def test_jacobian_matches_finite_differences(kind, log_v0):
    model = MixtureModel.from_ladder(2.0, 100.0, 1.0, [9.0, 12.0, 15.0],
                                     [0.3, 0.45, 0.25])
    h = synthetic_hist(model, n=50_000, seed=3)
    prob = _Problem(h, kind, 3)
    p0 = prob.pack(init_guess(h, 3))
    if log_v0 is not None:
        p0[4] = log_v0
    _, _, parts = prob.counts_model(p0)
    jac = prob.jacobian(p0, *parts)
    step = 1e-6
    for j in range(prob.n_params()):
        up = p0.copy(); up[j] += step
        dn = p0.copy(); dn[j] -= step
        num = (prob.counts_model(up)[0] - prob.counts_model(dn)[0]) / (2 * step)
        scale = max(np.abs(num).max(), 1.0)
        assert np.allclose(jac[:, j], num, atol=5e-4 * scale), f"column {j}"
    if log_v0 is not None:
        assert np.all(jac[:, 4] == 0.0)


# ---------------------------------------------------------------- fitting

def test_fit_two_separated_peaks_exactly():
    rng = np.random.default_rng(7)
    areas = np.concatenate([rng.normal(0.0, 3.0, 40_000),
                            rng.normal(100.0, 3.0, 40_000)])
    h = histogram_from_areas(areas, 1.5)
    rep = fit_spectrum(h, FitConfig(n_peaks=2))
    assert rep.converged
    # With two peaks only the means are identifiable, not the spacing /
    # curvature split (any pair with spacing - sat = 100 gives the same mean).
    means = rep.model.means()
    assert means[0] == pytest.approx(0.0, abs=0.1)
    assert means[1] == pytest.approx(100.0, abs=0.15)
    assert np.allclose(rep.model.weights(), [0.5, 0.5], atol=0.01)
    for std in rep.model.std_devs():
        assert std == pytest.approx(3.0, rel=0.03)


def test_fit_recovers_seven_peak_ladder(ref_detector):
    recs, hist = run(SimConfig(model=ref_detector, n_pulses=100_000, seed=16),
                     workers=4)
    # restrict to the subpopulation the 7-peak model describes
    areas = recs["area"][recs["true_detected"] <= 6]
    h = histogram_from_areas(areas, hist.widths[0])
    rep = fit_spectrum(h, FitConfig(n_peaks=7))
    assert rep.converged
    for mean, target in zip(rep.model.means(), CATALOG_MEANS):
        assert abs(mean - target) < 3.0
    for std, target in zip(rep.model.std_devs(), CATALOG_STDS):
        assert abs(std - target) / target < 0.10


def test_poisson_constraint_recovers_mu(ref_detector):
    recs, hist = run(SimConfig(model=ref_detector, n_pulses=100_000, seed=16),
                     workers=4)
    areas = recs["area"][recs["true_detected"] <= 6]
    h = histogram_from_areas(areas, hist.widths[0])
    rep = fit_spectrum(h, FitConfig(n_peaks=7, constraint=Constraint.POISSON_WEIGHTS))
    assert rep.converged
    assert rep.model.poisson_mu == pytest.approx(3.0, abs=0.1)
    w = rep.model.weights()
    assert np.all(w[:-1] > 0) and abs(w.sum() - 1.0) < 1e-9


def test_linear_variance_constraint_recovers_components(law_model):
    h = synthetic_hist(law_model, n=300_000, seed=11)
    rep = fit_spectrum(h, FitConfig(n_peaks=7, constraint=Constraint.LINEAR_VARIANCE))
    assert rep.converged
    stds = rep.model.std_devs()
    assert np.allclose(stds, law_stds(7), rtol=0.05)
    # regime invariant: the std ladder satisfies the three-component law exactly
    v = stds ** 2
    second_diff = np.diff(np.diff(v[1:]))
    assert np.allclose(second_diff, 0.0, atol=1e-6 * v.max())


@pytest.mark.parametrize("weights", [np.full(7, 1 / 7), [0.5, 0.5, 0, 0, 0, 0, 0]])
def test_linear_variance_pack_returns_law_components(law_model, weights):
    # an explicit init on the law packs to its own components, even with empty peaks
    init = MixtureModel.from_ladder(REF_X0, REF_SPACING, REF_SAT, law_stds(7), weights,
                                    constraint_kind=Constraint.LINEAR_VARIANCE)
    prob = _Problem(synthetic_hist(law_model, n=50_000), Constraint.LINEAR_VARIANCE, 7)
    assert np.exp(prob.pack(init)[3:6]) == pytest.approx(
        [REF_ELEC_VAR, REF_EXTRA_VAR, REF_MULT_VAR], rel=1e-9)
    assert prob.to_model(prob.pack(init)).std_devs() == pytest.approx(law_stds(7), rel=1e-12)


def test_objective_never_increases(law_model):
    # the fit is deterministic, so max_iterations=n stops the same run after n steps
    h = synthetic_hist(law_model, n=80_000, seed=13)
    trace = np.array([fit_spectrum(h, FitConfig(n_peaks=7, max_iterations=n)).objective
                      for n in range(1, 9)])
    assert trace[-1] < trace[0]
    assert np.all(np.diff(trace) <= 1e-9 * np.maximum(trace[:-1], 1.0))


def test_shift_equivariance(law_model):
    h = synthetic_hist(law_model, n=150_000, seed=17)
    shifted = Histogram(bin_edges=h.bin_edges + 500.0, counts=h.counts,
                        total_pulses=h.total_pulses)
    rep = fit_spectrum(h, FitConfig(n_peaks=7))
    rep2 = fit_spectrum(shifted, FitConfig(n_peaks=7))
    assert rep2.model.x0 - rep.model.x0 == pytest.approx(500.0, abs=0.05)
    assert rep2.model.spacing == pytest.approx(rep.model.spacing, abs=0.05)
    assert np.allclose(rep2.model.std_devs(), rep.model.std_devs(), rtol=2e-3)


def test_non_convergence_is_reported_not_raised(law_model):
    h = synthetic_hist(law_model, n=80_000, seed=19)
    rep = fit_spectrum(h, FitConfig(n_peaks=7, max_iterations=2))
    assert not rep.converged
    assert rep.iterations <= 2
    assert np.isfinite(rep.objective)


def test_rank_deficiency_warning():
    # 12 requested peaks on a two-peak spectrum: the ladder extends far past
    # the data, so the columns for the outer peaks are identically zero.  The
    # uniform background only supplies enough nonempty bins to run the fit.
    rng = np.random.default_rng(23)
    areas = np.concatenate([rng.normal(0.0, 5.0, 30_000),
                            rng.normal(100.0, 5.0, 30_000),
                            rng.uniform(-150.0, 400.0, 4_000)])
    h = histogram_from_areas(areas, 2.0)
    init = MixtureModel.from_ladder(0.0, 100.0, 0.0, np.full(12, 25.0),
                                    np.full(12, 1 / 12))
    rep = fit_spectrum(h, FitConfig(n_peaks=12, init=init, max_iterations=40))
    assert any("rank" in w for w in rep.warnings)


def test_empty_histogram_rejected():
    h = Histogram(bin_edges=np.linspace(0, 100, 11), counts=np.zeros(10, int),
                  total_pulses=0)
    with pytest.raises(FitSetupError):
        fit_spectrum(h, FitConfig(n_peaks=3))


def test_too_few_nonempty_bins_rejected():
    h = Histogram(bin_edges=np.linspace(0, 12, 13),
                  counts=np.array([0, 9, 7, 0, 0, 0, 0, 8, 6, 0, 0, 0]),
                  total_pulses=30)
    with pytest.raises(FitSetupError):
        fit_spectrum(h, FitConfig(n_peaks=3))


def test_init_and_n_peaks_must_agree(law_model):
    h = synthetic_hist(law_model, n=50_000)
    with pytest.raises(FitSetupError):
        fit_spectrum(h, FitConfig(n_peaks=5, init=law_model))


# ---------------------------------------------------------------- reports

def test_report_json_schema(law_model):
    h = synthetic_hist(law_model, n=100_000, seed=29)
    rep = fit_spectrum(h, FitConfig(n_peaks=7, constraint=Constraint.POISSON_WEIGHTS))
    doc = report_to_json(rep)
    assert set(doc) >= {"constraint", "x0", "delta", "sat", "peaks",
                        "objective", "converged", "iterations"}
    assert doc["constraint"] == "poisson"
    assert "mu" in doc
    assert len(doc["peaks"]) == 7
    assert set(doc["peaks"][0]) == {"i", "mean", "std", "weight"}
    assert [p["i"] for p in doc["peaks"]] == list(range(7))


def test_report_json_round_trip(law_model):
    h = synthetic_hist(law_model, n=100_000, seed=29)
    rep = fit_spectrum(h, FitConfig(n_peaks=7))
    back = report_from_json(report_to_json(rep))
    assert np.allclose(back.model.means(), rep.model.means())
    assert np.allclose(back.model.std_devs(), rep.model.std_devs())
    assert np.allclose(back.model.weights(), rep.model.weights())
    assert back.converged == rep.converged
    assert back.iterations == rep.iterations


def test_report_from_json_rejects_garbage():
    with pytest.raises(FitSetupError):
        report_from_json({"x0": 0.0})
    with pytest.raises(FitSetupError):
        report_from_json({"constraint": "free", "x0": 0, "delta": 1, "sat": 0,
                          "peaks": [], "objective": 0, "converged": True,
                          "iterations": 1})


@pytest.mark.parametrize("field, value", [("objective", None), ("warnings", 5),
                                          ("warnings", "rank"), ("converged", "false"),
                                          ("converged", 1), ("converged", None),
                                          ("iterations", 2.9), ("iterations", -1),
                                          ("iterations", True), ("iterations", "3")])
def test_report_from_json_rejects_mistyped_fields(field, value):
    doc = {"constraint": "free",
           "peaks": [{"i": i, "mean": 100.0 * i, "std": 5.0, "weight": 1 / 3}
                     for i in range(3)],
           "objective": 1.0, "converged": True, "iterations": 3, field: value}
    with pytest.raises(FitSetupError, match="malformed fit report"):
        report_from_json(doc)


def test_report_from_json_defaults_missing_fields():
    doc = {"constraint": "free",
           "peaks": [{"i": i, "mean": 100.0 * i, "std": 5.0, "weight": 1 / 3}
                     for i in range(3)]}
    rep = report_from_json(doc)
    assert rep.converged is False and rep.iterations == 0 and np.isnan(rep.objective)
    rep = report_from_json(dict(doc, converged=True, iterations=3.0))
    assert rep.converged is True and rep.iterations == 3 and type(rep.iterations) is int


def test_expected_counts_totals(law_model):
    edges = np.linspace(-100.0, 1200.0, 200)
    per_peak, total = expected_counts(law_model, edges, 5000.0)
    assert per_peak.shape == (7, 199)
    assert np.allclose(per_peak.sum(axis=0), total)
    assert total.sum() == pytest.approx(5000.0, rel=2e-3)  # tails clipped

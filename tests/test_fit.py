import hashlib
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pnr_lab import (Constraint, DegenerateDesignError, DetectorModel, FitConfig, FitReport,
                     FitSetupError, Histogram, MixtureModel, SimConfig, expected_counts,
                     fit_spectrum, histogram_from_areas, init_guess, report_from_json,
                     report_to_json, run)
from pnr_lab.cli import _json
from pnr_lab.core import _ladder
from pnr_lab.fit import _guess, _plateau_maxima, _Problem

from conftest import (REF_ELEC_VAR, REF_EXTRA_VAR, REF_MULT_VAR, REF_SAT, REF_SPACING,
                      REF_X0, CATALOG_MEANS, CATALOG_STDS, DESIGN_BOX, box_model, law_stds)


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

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def packed(prob, model):
    """`prob.pack` of a mixture model, the way `fit_spectrum` packs an explicit init."""
    return prob.pack(model.x0, model.spacing, model.sat, model.std_devs(), model.weights(),
                     model.poisson_mu)


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


def region_masses(hist, guess):
    """Counts between the midpoints of the guess's ladder, bin by bin."""
    ladder = guess.x0 + guess.spacing * np.arange(guess.n_peaks)
    cuts = [-math.inf, *(0.5 * (ladder[:-1] + ladder[1:])), math.inf]
    return [sum(int(c) for c, x in zip(hist.counts, hist.centers) if lo <= x < hi)
            for lo, hi in zip(cuts[:-1], cuts[1:])]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 60), min_size=8, max_size=60),
       st.one_of(st.just("auto"), st.integers(2, 12)), st.floats(0.5, 20.0))
def test_init_guess_widths_are_clipped_region_spreads(counts, n_peaks, bin_width):
    h = Histogram(bin_edges=bin_width * np.arange(len(counts) + 1),
                  counts=np.array(counts), total_pulses=sum(counts))
    try:
        g = init_guess(h, n_peaks)
    except FitSetupError:
        assume(False)
    sig, d, masses = g.std_devs(), g.spacing, region_masses(h, g)
    w = np.maximum(np.array(masses) / sum(masses), 1e-6)
    assert np.allclose(g.weights(), w / w.sum(), rtol=1e-12, atol=0)
    for j, mass in enumerate(masses):
        if mass == 0:
            assert sig[j] == d / 4
        else:
            assert d / 64 <= sig[j] <= d / 2


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.floats(60.0, 250.0), st.floats(-50.0, 50.0),
       st.floats(0.04, 0.08), st.floats(0.0, 0.04), st.data())
def test_init_guess_widths_match_a_clean_ladder(k, spacing, x0, elec_rel, mult_rel, data):
    # widths grow as the variance law does, up to spacing * 0.12: every region
    # holds its own peak to beyond 4 sigma
    i = np.arange(k)
    true_sig = spacing * np.sqrt(elec_rel**2 + i * mult_rel**2)
    w = np.array(data.draw(st.lists(st.floats(0.25, 1.0), min_size=k, max_size=k)))
    model = MixtureModel.from_ladder(x0, spacing, 0.0, true_sig, w / w.sum())
    edges = x0 - spacing + spacing / 40 * np.arange(40 * (k + 1) + 1)
    counts = np.round(expected_counts(model, edges, 50_000)[1]).astype(int)
    h = Histogram(bin_edges=edges, counts=counts, total_pulses=int(counts.sum()))
    g = init_guess(h, k)
    for j, mass in enumerate(region_masses(h, g)):
        if mass >= 1000:
            assert g.std_devs()[j] == pytest.approx(true_sig[j], rel=0.2)


def scalar_plateau_maxima(y, floor):
    """Bin-by-bin reference scan: middle index of each run of equal values that
    rises from the bin before it, falls to the bin after it and exceeds floor."""
    y, found, a = list(y), [], 0
    while a < len(y):
        b = a
        while b + 1 < len(y) and y[b + 1] == y[a]:
            b += 1
        if a > 0 and b < len(y) - 1 and y[a] > y[a - 1] and y[b] > y[b + 1] and y[a] > floor:
            found.append((a + b) // 2)
        a = b + 1
    return found


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=40), st.integers(0, 4))
def test_plateau_maxima_match_scalar_scan(levels, floor):
    # few distinct levels: plateaus, ties at either end and flat input are common
    y = np.array(levels, dtype=float) / 3.0
    assert _plateau_maxima(y, floor / 3.0).tolist() == scalar_plateau_maxima(y, floor / 3.0)


def test_plateau_maxima_cases():
    assert _plateau_maxima(np.full(6, 2.0), 0.0).tolist() == []
    assert _plateau_maxima(np.array([0.0, 1, 1, 0, 2, 2, 2, 2]), 0.0).tolist() == [1]
    assert _plateau_maxima(np.array([0.0, 3, 3, 3, 3, 1, 2, 0]), 1.5).tolist() == [2, 6]
    assert _plateau_maxima(np.array([0.0, 3, 3, 3, 3, 1, 2, 0]), 2.0).tolist() == [2]


# ---------------------------------------------------------------- machinery

# a regime no member has yet: the variance law with Poisson weights
LAW_X_POISSON = SimpleNamespace(variance_law=True, poisson=True)


def test_free_parameter_counts():
    h = synthetic_hist(MixtureModel.from_ladder(0, 100, 0, [8, 9, 10],
                                                [0.3, 0.4, 0.3]))
    for kind, expect in [(Constraint.FREE_WEIGHTS_FREE_SIGMAS, 2 * 3 + 2),
                         (Constraint.POISSON_WEIGHTS, 3 + 4),
                         (Constraint.LINEAR_VARIANCE, 3 + 5),
                         (LAW_X_POISSON, 3 + 3 + 1)]:
        p = _Problem(h, kind, 3)
        assert p.n_params() == expect, kind


@pytest.mark.parametrize("kind", list(Constraint))
@given(k=st.integers(2, 12), x0=st.floats(-1e4, 1e4), spacing=st.floats(1.0, 1e3),
       sat=st.floats(-10.0, 10.0))
def test_problem_ladder_is_the_core_ladder(kind, k, x0, spacing, sat):
    # evaluate's means and the Jacobian's ladder columns are `_ladder`'s
    h = synthetic_hist(MixtureModel.from_ladder(0, 100, 0, [8, 9, 10], [0.3, 0.4, 0.3]))
    prob = _Problem(h, kind, k)
    assert np.array_equal(prob.idx, _ladder(k, 0.0, 1.0, 0.0)[0])
    assert np.array_equal(prob.neg_idx_sq, _ladder(k, 0.0, 0.0, 1.0)[0])
    p = prob.pack(x0, spacing, sat, np.linspace(5.0, 9.0, k), np.full(k, 1.0 / k), 2.0)
    means = prob.evaluate(p)[2]
    assert means.tobytes() == _ladder(k, *p[:3])[0].tobytes()


@pytest.mark.parametrize("k", [2, 3, "auto", 9])
def test_init_guess_ladder_is_the_core_ladder(k):
    model = MixtureModel.from_ladder(-40.0, 120.0, 0.0, [10.0, 12.0, 14.0, 16.0],
                                     [0.2, 0.3, 0.3, 0.2])
    h = synthetic_hist(model, seed=5)
    x0, spacing, sat, *_ = _guess(h, k)
    guess = init_guess(h, k)
    assert sat == 0.0
    assert guess.means().tobytes() == _ladder(guess.n_peaks, x0, spacing, sat)[0].tobytes()


@pytest.mark.parametrize("kind, log_v0", [
    pytest.param(Constraint.FREE_WEIGHTS_FREE_SIGMAS, None, id="free"),
    pytest.param(Constraint.POISSON_WEIGHTS, None, id="poisson"),
    pytest.param(Constraint.LINEAR_VARIANCE, None, id="linear_variance"),
    # log v_0 past the +/-30 clip: the model does not move with it
    pytest.param(Constraint.LINEAR_VARIANCE, -40.0, id="linear_variance-v0_clipped_low"),
    pytest.param(Constraint.LINEAR_VARIANCE, 40.0, id="linear_variance-v0_clipped_high"),
    pytest.param(LAW_X_POISSON, None, id="law_x_poisson"),
])
def test_jacobian_matches_finite_differences(kind, log_v0):
    model = MixtureModel.from_ladder(2.0, 100.0, 1.0, [9.0, 12.0, 15.0],
                                     [0.3, 0.45, 0.25])
    h = synthetic_hist(model, n=50_000, seed=3)
    prob = _Problem(h, kind, 3)
    p0 = packed(prob, init_guess(h, 3))
    if log_v0 is not None:
        p0[4] = log_v0
    *_, parts = prob.evaluate(p0)
    jac = prob.jacobian(p0, *parts)

    def model_counts(p):
        return prob.counts - prob.evaluate(p)[0]

    step = 1e-6
    for j in range(prob.n_params()):
        up = p0.copy(); up[j] += step
        dn = p0.copy(); dn[j] -= step
        num = (model_counts(up) - model_counts(dn)) / (2 * step)
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
    recs, hist = run(SimConfig(model=ref_detector, n_pulses=100_000, seed=16))
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
    recs, hist = run(SimConfig(model=ref_detector, n_pulses=100_000, seed=16))
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
    assert np.exp(packed(prob, init)[3:6]) == pytest.approx(
        [REF_ELEC_VAR, REF_EXTRA_VAR, REF_MULT_VAR], rel=1e-9)
    assert prob.to_model(packed(prob, init)).std_devs() == pytest.approx(law_stds(7), rel=1e-12)


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


def test_rank_deficiency_warning(rank_deficient_case):
    h, init = rank_deficient_case
    rep = fit_spectrum(h, FitConfig(n_peaks=12, init=init, max_iterations=40))
    assert any("rank" in w for w in rep.warnings)
    # no damping lowers the objective at iteration 2: the stop is named after
    # the rank warning, with the iteration and the objective it stopped at
    assert not rep.converged and rep.iterations == 2
    assert rep.warnings[1] == ("stalled: no damping up to 1e12 lowers the objective "
                               f"{rep.objective:.10g} at iteration 2")
    # the warnings reach the report's JSON form and come back from it
    doc = report_to_json(rep)
    assert doc["warnings"] == list(rep.warnings)
    assert doc["warnings"][0].startswith("rank_deficient: ")
    assert doc["warnings"][1].startswith("stalled: ")
    assert report_from_json(json.loads(json.dumps(doc))).warnings == rep.warnings


# ---------------------------------------------------------------- stopping rule

def sigma_distance(hist, constraint, model, ref):
    """Distance of `model` from `ref` in the metric of H = J^T W J at `ref`,
    over the packed parameters.  It bounds every |p_i - ref_i| / sigma_i with
    sigma_i^2 = [H^-1]_ii (Cauchy-Schwarz), and needs no inverse: a clipped
    log parameter's zero column, or a dead peak's near-zero one, adds nothing."""
    prob = _Problem(hist, constraint, ref.n_peaks)
    p_ref = packed(prob, ref)
    *_, parts = prob.evaluate(p_ref)
    jac = prob.jacobian(p_ref, *parts)
    move = jac @ (packed(prob, model) - p_ref)
    return math.sqrt(float(prob.wls @ (move * move)))


def undamped_decrement(hist, constraint, model):
    """g.H^+g at `model`: the objective drop a full Gauss-Newton step predicts,
    whatever the fit's own stopping rule made of that point."""
    prob = _Problem(hist, constraint, model.n_peaks)
    p = packed(prob, model)
    r, _, _, parts = prob.evaluate(p)
    jw = prob.jacobian(p, *parts) * np.sqrt(prob.wls)[:, None]
    grad = jw.T @ (np.sqrt(prob.wls) * r)
    return float(grad @ np.linalg.pinv(jw.T @ jw, hermitian=True) @ grad)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_fit_is_certified_where_a_tight_refit_confirms_it(seed):
    # uniform over the box, as the benchmark draws its designs
    rng = np.random.default_rng(seed)
    lo, hi = DESIGN_BOX.T
    _, hist = run(SimConfig(box_model(*(lo + rng.random(6) * (hi - lo))), 20_000, seed))
    for constraint in Constraint:
        try:
            rep = fit_spectrum(hist, FitConfig(constraint=constraint))
        except (FitSetupError, DegenerateDesignError):     # the fit's documented refusals
            continue
        tight = fit_spectrum(hist, FitConfig(constraint=constraint, tolerance=1e-3,
                                             max_iterations=5000))
        if rep.iterations == 500:   # out of budget: no verdict to check
            continue
        try:
            # the refit ends where no parameter can move 1e-3 sigma, checked
            # here rather than taken from the rule under test
            confirmed = undamped_decrement(hist, constraint, tight.model) < 1e-6
            close = confirmed and sigma_distance(hist, constraint, rep.model, tight.model) < 0.1
        except DegenerateDesignError:       # fewer than three weighted peaks: no metric
            continue
        # a stall at the optimum is no failure: the refit is certified there,
        # and so is a fit that ended within 0.1 sigma of it
        assert tight.converged or not confirmed, (constraint, tight.iterations)
        assert rep.converged or not close, (constraint, rep.iterations, tight.iterations)


def test_undamped_decrement_of_a_near_collapsed_width_stays_finite():
    # a log-sigma column near collapse leaves a tiny but positive diagonal
    # entry in J^T W J, whose 1/sqrt scale squared overflows; under the
    # suite's warnings-as-errors such an overflow raises instead of reporting
    model = box_model(3.731838, 0.804609, 160.219541, 0.121439, 0.080069, 0.119453)
    _, hist = run(SimConfig(model, 20_000, 4111506281))
    rep = fit_spectrum(hist, FitConfig())
    assert not rep.converged and rep.iterations == 74
    assert rep.warnings[-1].startswith("stalled: ")


def test_pipeline_config_fit_does_not_depend_on_its_start():
    doc = json.loads((CONFIGS / "pipeline.json").read_text())
    sim = doc["simulate"]
    _, hist = run(SimConfig(DetectorModel(**sim["model"]), sim["n_pulses"], sim["seed"]))
    cfg = FitConfig(n_peaks=doc["fit"]["n_peaks"],
                    constraint=Constraint.parse(doc["fit"]["constraint"]))
    guess = init_guess(hist, cfg.n_peaks)
    displaced = MixtureModel.from_ladder(guess.x0 + 10.0, guess.spacing * 1.03, 1.0,
                                         guess.std_devs() * 1.3, guess.weights())
    rep = fit_spectrum(hist, cfg)
    other = fit_spectrum(hist, FitConfig(n_peaks=cfg.n_peaks, init=displaced))
    assert rep.converged and other.converged
    # within 0.13 sigma by iteration 4: unit Gauss-Newton steps then crawled
    # to iteration 44, steps scaled to the ray's minimum end by 11
    assert rep.iterations <= 15
    assert sigma_distance(hist, cfg.constraint, other.model, rep.model) < 0.1


def test_empty_histogram_rejected():
    h = Histogram(bin_edges=np.linspace(0, 100, 11), counts=np.zeros(10, int),
                  total_pulses=0)
    with pytest.raises(FitSetupError):
        fit_spectrum(h, FitConfig(n_peaks=3))


def test_too_few_nonempty_bins_rejected():
    h = Histogram(bin_edges=np.linspace(0, 12, 13),
                  counts=np.array([0, 9, 7, 0, 0, 0, 0, 8, 6, 0, 0, 0]),
                  total_pulses=30)
    # an explicit init: init_guess would refuse this histogram first
    init = MixtureModel.from_ladder(1.5, 6.0, 0.0, [1.0, 1.0, 1.0], [0.4, 0.3, 0.3])
    with pytest.raises(FitSetupError, match="4 nonempty bins cannot support 8 free "
                                            r"parameters \(need at least 32\)"):
        fit_spectrum(h, FitConfig(n_peaks=3, init=init))


def test_init_and_n_peaks_must_agree(law_model):
    h = synthetic_hist(law_model, n=50_000)
    with pytest.raises(FitSetupError):
        fit_spectrum(h, FitConfig(n_peaks=5, init=law_model))


def test_constraint_is_a_constraint_or_its_name():
    """FitConfig.constraint and MixtureModel.constraint_kind share one rule."""
    def model(kind):
        return MixtureModel.from_peaks([0.0, 100.0], [5.0, 5.0], constraint_kind=kind,
                                       poisson_mu=1.0)

    for make, field in ((lambda c: FitConfig(constraint=c), "constraint"),
                        (model, "constraint_kind")):
        for text, member in (("linear_variance", Constraint.LINEAR_VARIANCE),
                             ("poisson", Constraint.POISSON_WEIGHTS),
                             ("FREE_WEIGHTS_FREE_SIGMAS", Constraint.FREE_WEIGHTS_FREE_SIGMAS)):
            assert getattr(make(text), field) is member
            assert getattr(make(member), field) is member
        with pytest.raises(ValueError, match="unknown constraint 'lin'"):
            make("lin")
        for bad in (2, None, Constraint):
            with pytest.raises(TypeError, match=f"constraint must be a Constraint or its name, "
                                                f"got {bad!r}"):
                make(bad)
    # a model built from a name serializes as one built from the member
    assert report_to_json(FitReport(model("poisson"), 0.0, 1, True))["constraint"] == "poisson"


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
    back = report_from_json(json.loads(json.dumps(report_to_json(rep))))
    assert back.objective == rep.objective
    for view in ("means", "std_devs", "weights"):       # bit for bit
        assert getattr(back.model, view)().tobytes() == getattr(rep.model, view)().tobytes()
    # the ladder is refitted to the means: equal to rounding only (measured
    # 1.4e-13 here), within 1e-15 of the largest |mean| as report_from_json states
    scale = 1e-15 * np.abs(rep.model.means()).max()
    for name in ("x0", "spacing", "sat"):
        assert abs(getattr(back.model, name) - getattr(rep.model, name)) <= scale, name
    assert back.converged == rep.converged
    assert back.iterations == rep.iterations


def test_report_from_json_rejects_garbage():
    with pytest.raises(FitSetupError):
        report_from_json({"x0": 0.0})
    with pytest.raises(FitSetupError):
        report_from_json({"constraint": "free", "x0": 0, "delta": 1, "sat": 0,
                          "peaks": [], "objective": 0, "converged": True,
                          "iterations": 1})


@pytest.mark.parametrize("field, value", [("objective", None), ("objective", True),
                                          ("objective", "12.5"),
                                          pytest.param("objective", 10**400, id="objective-10**400"),
                                          ("warnings", 5), ("warnings", "rank"), ("converged", "false"),
                                          ("converged", 1), ("converged", None),
                                          ("iterations", 2.9), ("iterations", -1),
                                          ("iterations", True), ("iterations", "3"),
                                          ("mu", -2), ("mu", 0)])
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
    # a JSON number, NaN included, is an objective
    assert report_from_json(dict(doc, objective=12)).objective == 12.0
    assert np.isnan(report_from_json(dict(doc, objective=math.nan)).objective)


def test_expected_counts_totals(law_model):
    edges = np.linspace(-100.0, 1200.0, 200)
    per_peak, total = expected_counts(law_model, edges, 5000.0)
    assert per_peak.shape == (7, 199)
    assert np.allclose(per_peak.sum(axis=0), total)
    assert total.sum() == pytest.approx(5000.0, rel=2e-3)  # tails clipped


# sha256 of the fit_report.json text of one small seeded run under each regime
REGIME_REPORT_SHA256 = {
    "free": "34eb82ddae2ee4042a112da1799b2948d6c1730bdd181e9af79c1cb0738165ac",
    "poisson": "95b07fbcb6bf5584352bc44269f47916b64761c49b7ae573513e6dd0061f6d94",
    "linear_variance": "a1c4cf6a2dd738eea090ba07302e5b55ffb6cae610461f64466e8aeedea09eac",
}


def test_every_regime_report_matches_pinned_digest():
    """A refactor of the fit moves no byte of any regime's report."""
    model = DetectorModel(mean_photon_number=1.411764705882353, quantum_efficiency=0.85,
                          gain_per_photon=135.0, mult_noise_var=276.0,
                          electronic_noise_var=112.36, extra_per_photon_var=246.0)
    _, hist = run(SimConfig(model=model, n_pulses=20_000, seed=31))
    digests = {}
    for kind in Constraint:
        rep = fit_spectrum(hist, FitConfig(n_peaks=5, constraint=kind))
        assert rep.converged and not rep.warnings, kind
        digests[kind.value] = hashlib.sha256(_json(report_to_json(rep)).encode()).hexdigest()
    assert digests == REGIME_REPORT_SHA256

"""Decision thresholds, regions, error rates, confusion matrices."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnr_lab import (
    ConfusionMatrix,
    DecisionScheme,
    DetectorModel,
    InvalidModelError,
    MixtureModel,
    NoIntersectionError,
    SimConfig,
    build_scheme,
    classify,
    confusion,
    one_vs_many_error,
    run,
    threshold,
)
from pnr_lab import discriminate

from conftest import REF_SAT, REF_SPACING, REF_X0, law_stds


def bisect_intersection(x1, s1, x2, s2, w1=1.0, w2=1.0):
    """Crossing of the two weighted log-densities between the means
    (independent oracle); None when they do not cross there."""
    def f(x):
        return (math.log(w1) - 0.5 * ((x - x1) / s1) ** 2 - math.log(s1)) - (
            math.log(w2) - 0.5 * ((x - x2) / s2) ** 2 - math.log(s2))
    lo, hi = x1, x2
    if f(lo) <= 0 or f(hi) >= 0:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------- threshold

def test_threshold_equal_sigma_is_midpoint():
    assert threshold(0.0, 5.0, 100.0, 5.0) == pytest.approx(50.0, abs=1e-12)


@pytest.mark.parametrize("pair", [(0.0, 10.6, 135.0, 24.8),
                                  (135.0, 24.8, 275.0, 31.7)])
def test_threshold_matches_bisection(pair):
    t = threshold(*pair)
    assert pair[0] < t < pair[2]
    assert t == pytest.approx(bisect_intersection(*pair), abs=1e-6)


def test_threshold_matches_bisection_randomized():
    rng = np.random.default_rng(11)
    for _ in range(300):
        x1 = rng.uniform(-50, 50)
        dx = rng.uniform(5.0, 500.0)
        s1 = rng.uniform(0.5, 0.45 * dx)
        s2 = rng.uniform(0.5, 0.45 * dx)
        try:
            t = threshold(x1, s1, x1 + dx, s2)
        except NoIntersectionError:
            continue
        assert t == pytest.approx(bisect_intersection(x1, s1, x1 + dx, s2),
                                  abs=1e-6)


def test_threshold_nearly_equal_widths_keeps_precision():
    # 50-digit value of the crossing; the unrationalized quotient gave 50.0000128
    assert threshold(0.0, 10.0, 100.0, 10.0 * (1 + 1e-10)) == pytest.approx(
        49.9999999976, abs=1e-9)


def test_threshold_scale_invariance():
    t = threshold(0.0, 10.6, 135.0, 24.8)
    for c in (0.01, 3.0, 1e4):
        assert threshold(0.0, c * 10.6, c * 135.0, c * 24.8) == pytest.approx(
            c * t, rel=1e-12)


def test_threshold_no_interior_crossing():
    # sigma ratio 100 at separation 0.5: the wide peak dominates everywhere
    # between the means, so the equal-weight crossing lies outside (x_i, x_next)
    with pytest.raises(NoIntersectionError):
        threshold(0.0, 1.0, 0.5, 100.0)


def test_threshold_input_validation():
    with pytest.raises(ValueError):
        threshold(100.0, 5.0, 0.0, 5.0)  # reversed means
    with pytest.raises(ValueError):
        threshold(0.0, -1.0, 100.0, 5.0)
    with pytest.raises(ValueError):
        threshold(0.0, 5.0, math.inf, 5.0)


# ---------------------------------------------------------------- build_scheme

def test_scheme_thresholds_interleave_means(catalog_model):
    sch = build_scheme(catalog_model, "equal")
    means = catalog_model.means()
    assert len(sch.thresholds) == 6
    for i, t in enumerate(sch.thresholds):
        assert means[i] < t < means[i + 1]
    assert all(a < b for a, b in zip(sch.thresholds, sch.thresholds[1:]))


def test_scheme_well_separated_errors_negligible():
    m = MixtureModel.from_peaks([0.0, 100.0], [5.0, 5.0])  # spacing = 20 sigma
    sch = build_scheme(m, "equal")
    assert all(e < 1e-15 for e in sch.error_per_number)


def test_scheme_middle_peak_has_double_error():
    # spacing 6 sigma: non-adjacent leakage is ~4*Phi(-9) ~ 5e-19, so the
    # two-neighbours-vs-one symmetry holds to 1e-12
    s = 30.0
    m = MixtureModel.from_peaks([0.0, 6 * s, 12 * s], [s, s, s])
    sch = build_scheme(m, "equal")
    e0, e1, e2 = sch.error_per_number
    assert e0 == pytest.approx(e2, abs=1e-15)
    assert e1 == pytest.approx(2 * e0, abs=1e-12)
    assert e0 > 1e-5  # not trivially zero


def test_scheme_from_weights_shifts_cut_toward_light_peak():
    m_eq = MixtureModel.from_peaks([0.0, 100.0], [20.0, 20.0], [0.5, 0.5])
    m_sk = MixtureModel.from_peaks([0.0, 100.0], [20.0, 20.0], [0.9, 0.1])
    t_eq = build_scheme(m_eq, "from-weights").thresholds[0]
    t_sk = build_scheme(m_sk, "from-weights").thresholds[0]
    assert t_eq == pytest.approx(50.0, abs=1e-9)
    assert t_sk > t_eq  # the heavy low peak claims more of the axis


def test_scheme_from_weights_matches_bisection_randomized():
    rng = np.random.default_rng(12)
    outcomes = set()
    for trial in range(600):
        x1 = rng.uniform(-50, 50)
        dx = rng.uniform(5.0, 500.0)
        s1 = rng.uniform(0.5, 0.45 * dx)
        s2 = s1 if trial % 3 == 0 else rng.uniform(0.5, 0.45 * dx)
        w1 = rng.uniform(0.005, 0.995)
        m = MixtureModel.from_peaks([x1, x1 + dx], [s1, s2], [w1, 1.0 - w1])
        expected = bisect_intersection(x1, s1, x1 + dx, s2, w1, 1.0 - w1)
        outcomes.add((trial % 3 == 0, expected is None))
        if expected is None:
            with pytest.raises(NoIntersectionError):
                build_scheme(m, "from-weights")
        else:
            assert build_scheme(m, "from-weights").thresholds[0] == pytest.approx(
                expected, abs=1e-6)
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_scheme_from_weights_far_apart_peaks():
    # both densities underflow at the midpoint; the crossing is 50 + ln(9)/100
    m = MixtureModel.from_peaks([0.0, 100.0], [1.0, 1.0], [0.9, 0.1])
    assert build_scheme(m, "from-weights").thresholds[0] == pytest.approx(
        50.0 + math.log(9.0) / 100.0, abs=1e-9)


def test_scheme_from_weights_no_crossing_anywhere():
    # a light narrow peak inside a heavy wide one: the weighted densities
    # never cross, so the crossing's quadratic has a negative radicand
    w = 1.0 / (1.0 + math.exp(5.0))         # ln(w / (1 - w)) = -5
    m = MixtureModel.from_peaks([0.0, 3.0], [1.0, 10.0], [w, 1.0 - w])
    with pytest.raises(NoIntersectionError, match=r"^no density intersection for peaks "
                                                  r"at 0\.0 and 3\.0 \(radicand -5\.251e\+02\)$"):
        build_scheme(m, "from-weights")


def test_scheme_rejects_bad_inputs(catalog_model):
    with pytest.raises(InvalidModelError):
        build_scheme(MixtureModel.from_peaks([0.0, 100.0, 50.0],
                                             [5.0, 5.0, 5.0]), "equal")
    with pytest.raises(ValueError):
        build_scheme(catalog_model, "bayes")


def _scheme_or_refusal(model, priors):
    try:
        return build_scheme(model, priors).thresholds
    except NoIntersectionError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(2, 9))
def test_scheme_cuts_are_one_closed_form(data, k):
    """Equal-prior cuts are `threshold` of each adjacent pair, and from-weights
    cuts with uniform weights are the equal-prior cuts, bit for bit; where no
    crossing exists both sides refuse with the same error."""
    x0 = data.draw(st.floats(-1e3, 1e3))
    gaps = data.draw(st.lists(st.floats(0.5, 500.0), min_size=k - 1, max_size=k - 1))
    means = (x0 + np.concatenate([[0.0], np.cumsum(gaps)])).tolist()
    sigmas = data.draw(st.lists(st.floats(0.1, 300.0), min_size=k, max_size=k))
    raw = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    weighted = MixtureModel.from_peaks(means, sigmas, raw / raw.sum())
    try:
        expected = tuple(threshold(means[i], sigmas[i], means[i + 1], sigmas[i + 1])
                         for i in range(k - 1))
    except NoIntersectionError as exc:
        expected = str(exc)
    assert _scheme_or_refusal(weighted, "equal") == expected
    uniform = MixtureModel.from_peaks(means, sigmas, np.full(k, 1.0 / k))
    assert _scheme_or_refusal(uniform, "from-weights") == expected


# ---------------------------------------------------------------- classify

def test_classify_regions_and_tie_break(catalog_model):
    sch = build_scheme(catalog_model, "equal")
    t1 = sch.thresholds[0]
    assert classify(t1 - 1.0, sch) == 0
    assert classify(t1, sch) == 0          # boundary goes to the lower region
    assert classify(np.nextafter(t1, np.inf), sch) == 1
    assert classify(-1e9, sch) == 0
    assert classify(1e9, sch) == 6
    arr = classify(np.array([-50.0, 135.0, 859.0]), sch)
    assert arr.dtype == np.int64 and list(arr) == [0, 1, 6]


def test_classify_monotone(catalog_model):
    sch = build_scheme(catalog_model, "equal")
    x = np.linspace(-100, 1000, 4001)
    d = classify(x, sch)
    assert (np.diff(d) >= 0).all()
    assert set(d) == set(range(7))


def test_classify_against_simulation(ref_detector):
    # simulate, restrict to the 7 modeled photon numbers, decide with the
    # generator's own ladder and the empirical mix, compare the per-region
    # wrong-decision rate against the scheme's prediction
    recs, _ = run(SimConfig(model=ref_detector, n_pulses=100_000, seed=5))
    keep = recs["true_detected"] <= 6
    areas, true_d = recs["area"][keep], recs["true_detected"][keep]
    n = len(areas)
    emp = np.bincount(true_d, minlength=7) / n
    gen = MixtureModel.from_ladder(REF_X0, REF_SPACING, REF_SAT, law_stds(7),
                                   weights=emp)
    sch = build_scheme(gen, "from-weights")
    decided = classify(areas, sch)
    for i in range(7):
        rate = np.sum((decided == i) & (true_d != i)) / n
        pred = sch.error_per_number[i] / 7
        se = math.sqrt(max(pred * (1 - pred), 1e-12) / n)
        assert abs(rate - pred) <= 3 * se, f"region {i}: {rate} vs {pred}"


_thresholds = st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100,
                       unique=True).map(sorted)


@settings(max_examples=150, deadline=None)
@given(thr=_thresholds, more=st.lists(st.floats(), max_size=20), pick=st.integers(0, 2 ** 16))
def test_classify_is_searchsorted_left(thr, more, pick):
    # every threshold, its neighbours either side, signed zeros, infinities
    # and NaN, beside any other floats: the oracle is a left binary search
    k = len(thr) + 1
    sch = DecisionScheme(thresholds=tuple(thr), priors=(1.0 / k,) * k,
                         error_per_number=(0.0,) * k)
    t = np.array(thr)
    areas = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
                            [0.0, -0.0, np.inf, -np.inf, np.nan], more])
    want = np.searchsorted(t, areas, side="left")
    kept = areas.copy()
    got = classify(areas, sch)
    assert type(got) is np.ndarray and got.dtype == np.int64
    assert np.array_equal(got, want)
    assert areas.tobytes() == kept.tobytes()        # the input is only read
    again = classify(areas, sch)
    assert again is not got and not np.shares_memory(again, got)
    assert not np.shares_memory(got, areas)
    grid = areas[:len(areas) // 2 * 2].reshape(2, -1)
    got2 = classify(grid, sch)
    assert got2.dtype == np.int64 and np.array_equal(got2, want[:grid.size].reshape(2, -1))
    as_list = classify(areas.tolist(), sch)
    assert type(as_list) is np.ndarray and as_list.dtype == np.int64
    assert np.array_equal(as_list, want)
    # one area, as a 0-d array (a numpy integer back, as from searchsorted),
    # a Python float or a numpy scalar (a Python int back)
    i = pick % len(areas)
    zero_d = classify(np.array(areas[i]), sch)
    assert type(zero_d) is np.int64 and zero_d == want[i]
    for one in (float(areas[i]), areas[i]):
        got1 = classify(one, sch)
        assert type(got1) is int and got1 == want[i]


def test_classify_refuses_non_numeric_areas(catalog_model):
    sch = build_scheme(catalog_model, "equal")
    with pytest.raises(ValueError, match="could not convert string to float"):
        classify("abc", sch)
    with pytest.raises(ValueError):
        classify(["1.0", "x"], sch)


# ---------------------------------------------------------------- one vs many

def test_one_vs_many_catalog(catalog_model):
    err = one_vs_many_error(catalog_model, [0, 0.5, 0.5, 0, 0, 0, 0])
    assert err == pytest.approx(0.0065527842461901705, rel=1e-9)
    assert err <= 0.015


def test_one_vs_many_limits():
    base = one_vs_many_error(
        MixtureModel.from_peaks([0, 135, 270], [15.0, 20.0, 25.0]),
        [0, 0.5, 0.5])
    far = one_vs_many_error(
        MixtureModel.from_peaks([0, 1350, 2700], [15.0, 20.0, 25.0]),
        [0, 0.5, 0.5])
    sharp = one_vs_many_error(
        MixtureModel.from_peaks([0, 135, 270], [1e-3, 1e-3, 1e-3]),
        [0, 0.5, 0.5])
    assert far < base
    assert far < 1e-15
    assert sharp < 1e-15


def test_one_vs_many_validation(catalog_model):
    with pytest.raises(InvalidModelError):
        one_vs_many_error(MixtureModel.from_peaks([0.0, 100.0], [5.0, 5.0]),
                          [0.5, 0.5])
    with pytest.raises(ValueError):
        one_vs_many_error(catalog_model, [0.5, 0.5])  # wrong length
    with pytest.raises(ValueError):
        one_vs_many_error(catalog_model, [1, 0, 0, 0, 0, 0, 0])  # no mass on 1/many
    for bad in ([-1, 2, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0],
                [math.nan, 1, 1, 1, 1, 1, 1], [math.inf, 1, 1, 1, 1, 1, 1]):
        with pytest.raises(ValueError, match="priors"):
            one_vs_many_error(catalog_model, bad)


# ---------------------------------------------------------------- confusion

def test_confusion_rows_and_diagonal(catalog_model):
    cm = confusion(catalog_model, np.full(7, 1 / 7))
    assert cm.matrix.shape == (7, 7)
    assert np.allclose(cm.matrix.sum(axis=1), 1.0, atol=1e-9)
    sch = build_scheme(catalog_model, "equal")
    for i in range(7):
        # exact consistency: with equal priors, error_per_number[i] is the
        # off-diagonal mass of column i (foreign density inside region i)
        col_foreign = cm.matrix[:, i].sum() - cm.matrix[i, i]
        assert col_foreign == pytest.approx(sch.error_per_number[i], abs=1e-12)
        # leak-out of a peak tracks foreign leak-in only approximately (the
        # two integrals differ in which density crosses which cut; widening
        # sigmas make the last peak leak out ~3e-3 more than leaks in)
        assert cm.matrix[i, i] >= 1 - sch.error_per_number[i] - 3e-3
        assert cm.matrix[i, i] > 0.9


def test_confusion_matrix_validation():
    bad = np.array([[0.9, 0.2], [0.1, 0.9]])  # rows do not sum to 1
    with pytest.raises(ValueError):
        ConfusionMatrix(bad, (0.5, 0.5))
    with pytest.raises(ValueError):
        ConfusionMatrix(np.ones((2, 3)) / 3, (0.5, 0.5))
    # a NaN entry makes its row sum NaN, which a `> 1e-9` test would let through
    with pytest.raises(ValueError, match=r"matrix\[0, 0\] must be a finite number, got nan"):
        ConfusionMatrix([[math.nan, math.nan], [0.5, 0.5]], (0.5, 0.5))
    with pytest.raises(ValueError, match=r"matrix\[1, 0\] must be a finite number, got -inf"):
        ConfusionMatrix([[1.0, 0.0], [-math.inf, math.inf]], (0.5, 0.5))
    for bad, shown in ((math.nan, "nan"), (-0.5, "-0.5"), (math.inf, "inf")):
        with pytest.raises(ValueError, match=rf"priors\[1\] must be a finite number >= 0, got {shown}"):
            ConfusionMatrix(np.eye(2), (0.5, bad))
    # one prior per class, as DecisionScheme asks
    for bad in ((0.5, 0.5, 0.3), (1.0,)):
        with pytest.raises(ValueError, match=rf"priors must have length 2, got {len(bad)}"):
            ConfusionMatrix(np.eye(2), bad)
    model = MixtureModel.from_peaks([0.0, 100.0, 200.0, 300.0], [10.0] * 4)
    for bad in ([0.5, 0.5], [-1, 2, 0, 0], [0, 0, 0, 0], [math.nan, 1, 1, 1],
                [math.inf, 1, 1, 1]):
        with pytest.raises(ValueError, match="priors"):
            confusion(model, bad)
    # kept as given, not normalized: analysis.json publishes them
    assert confusion(model, [2, 2, 0, 0]).priors == (2.0, 2.0, 0.0, 0.0)
    # read by the package's number rule: a bool or a string is not a prior
    for bad, shown in (([1.0, True, 0.0, 0.0], "True"), ([1.0, "1", 0.0, 0.0], "'1'")):
        for call in (confusion, one_vs_many_error):
            with pytest.raises(ValueError, match=rf"priors\[1\] must be a finite number >= 0, "
                                                 rf"got {shown}"):
                call(model, bad)



# ---------------------------------------------------------------- one partition per model

def _skewed_model():
    """A fresh law ladder with unequal weights, so the two prior modes differ."""
    return MixtureModel.from_ladder(REF_X0, REF_SPACING, REF_SAT, law_stds(7),
                                    [0.05, 0.15, 0.25, 0.25, 0.15, 0.1, 0.05])


DECISIONS = {
    "scheme": lambda m: build_scheme(m, "equal"),
    "weighted": lambda m: build_scheme(m, "from-weights"),
    "confusion": lambda m: confusion(m, np.full(m.n_peaks, 1 / m.n_peaks)),
    "one_vs_many": lambda m: one_vs_many_error(m, m.weights()),
}


def _bits(result):
    """The bytes of every number in a decision result."""
    if isinstance(result, DecisionScheme):
        return [np.array(v).tobytes()
                for v in (result.thresholds, result.priors, result.error_per_number)]
    if isinstance(result, ConfusionMatrix):
        return [result.matrix.tobytes(), np.array(result.priors).tobytes()]
    return np.float64(result).tobytes()


def test_decisions_agree_bitwise_in_every_call_order():
    # each reference is computed on its own equal-valued but distinct model
    model = _skewed_model()
    assert _skewed_model() == model and _skewed_model() is not model
    fresh = {name: _bits(call(_skewed_model())) for name, call in DECISIONS.items()}
    for order in itertools.permutations(DECISIONS):
        shared = _skewed_model()
        for name in order + order:          # the second round asks each one again
            assert _bits(DECISIONS[name](shared)) == fresh[name], (order, name)


def test_decisions_partition_each_model_once(monkeypatch):
    masses = []
    real = discriminate._interval_mass
    monkeypatch.setattr(discriminate, "_interval_mass",
                        lambda *args: masses.append(args) or real(*args))
    first, second = _skewed_model(), _skewed_model()
    for model in (first, second, first):
        for call in DECISIONS.values():
            call(model)
    # one partition per mode and model; going back to `first` partitions it again
    assert len(masses) == 6


def test_decision_arrays_are_read_only():
    model = _skewed_model()
    for mode in ("equal", "from-weights"):
        cuts, pri, mass = discriminate._cuts_and_mass(model, mode)
        assert isinstance(cuts, tuple)
        for a in (pri, mass):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        confusion(model, np.full(7, 1 / 7)).matrix[0, 0] = 0.0


def test_confusion_matrix_leaves_the_callers_array_writeable():
    m = np.eye(2)
    cm = ConfusionMatrix(m, (0.5, 0.5))
    assert m.flags.writeable and not cm.matrix.flags.writeable
    assert np.array_equal(cm.matrix, m)
    m[0, 0] = 0.0                          # the stored matrix is a copy
    assert cm.matrix[0, 0] == 1.0
    # the shared partition's mass is read-only already, so it is not copied
    model = _skewed_model()
    _, _, mass = discriminate._cuts_and_mass(model, "equal")
    assert confusion(model, np.full(7, 1 / 7)).matrix is mass


@pytest.mark.parametrize("model, mode, error", [
    # sigma ratio 100 at separation 0.5: no equal-weight crossing between the means
    (MixtureModel.from_peaks([0.0, 0.5, 200.0], [1.0, 100.0, 100.0]), "equal",
     NoIntersectionError),
    (MixtureModel.from_peaks([0.0, 3.0], [1.0, 10.0], [1 / (1 + math.exp(5.0)),
                                                       1 - 1 / (1 + math.exp(5.0))]),
     "from-weights", NoIntersectionError),
    (MixtureModel.from_peaks([0.0, 100.0, 50.0], [5.0, 5.0, 5.0]), "equal", InvalidModelError),
])
def test_a_refused_model_is_refused_again(model, mode, error):
    good = _skewed_model()
    expected = _bits(build_scheme(good, mode))
    messages = set()
    for _ in range(2):
        with pytest.raises(error) as info:
            build_scheme(model, mode)
        messages.add(str(info.value))
        if mode == "equal":
            for call in (DECISIONS["confusion"], DECISIONS["one_vs_many"]):
                with pytest.raises(error):
                    call(model)
    assert len(messages) == 1
    # the refusal leaves the last model partitioned as it was
    assert _bits(build_scheme(good, mode)) == expected

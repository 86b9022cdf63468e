import ast
import collections.abc as abc
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pnr_lab
from pnr_lab import (Constraint, DecisionScheme, DetectorModel, EfficiencyInput, FitConfig,
                     GaussianPeak, Histogram, MixtureModel, NoiseReport, SimConfig, confusion,
                     excess_noise_factor, histogram_from_areas, n_max, one_vs_many_error,
                     photon_flux, substream, threshold)
from pnr_lab.core import (_finite, _interval_mass, _ladder, _log_factorials, _normalized_exp,
                          _poisson_log_pmf, _std_normal_cdf_pdf, _variance_parts)


# ---------------------------------------------------------------- dependencies

def test_no_module_imports_scipy():
    importers = set()
    for path in Path(pnr_lab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                importers.add(path.name)
    assert importers == set()


def _loaded_after_import(package: str, module: str) -> str:
    """Whether importing `package` in a fresh interpreter loads `module`."""
    src = str(Path(pnr_lab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c",
                           f"import sys, {package}; print({module!r} in sys.modules)"],
                          env=env, capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    assert _loaded_after_import("pnr_lab", "scipy") == "False"


def test_cli_import_loads_no_thread_pool():
    # chunks are drawn in order; concurrent.futures and the logging it pulls
    # in cost every CLI process several ms of start-up
    assert _loaded_after_import("pnr_lab.cli", "concurrent.futures") == "False"


def test_every_exported_name_resolves():
    """Every name in the package's and each module's `__all__` exists, so a
    name deleted from a module cannot stay behind in an export list."""
    modules = ["pnr_lab"] + [f"pnr_lab.{path.stem}"
                             for path in sorted(Path(pnr_lab.__file__).parent.glob("*.py"))
                             if not path.stem.startswith("__")]
    for name in modules:
        module = importlib.import_module(name)
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
        namespace = {}
        exec(f"from {name} import *", namespace)
        assert set(module.__all__) <= set(namespace), name


def test_no_module_holds_mutable_state():
    """No module binds a dict, list, set or writeable array at module level
    beyond `__all__` and what the import system sets: a memo belongs on the
    value it describes, where it cannot leak between callers or threads."""
    mutable = (abc.MutableMapping, abc.MutableSequence, abc.MutableSet)
    found = []
    for path in sorted(Path(pnr_lab.__file__).parent.glob("*.py")):
        name = "pnr_lab" if path.stem == "__init__" else f"pnr_lab.{path.stem}"
        for attr, value in vars(importlib.import_module(name)).items():
            if attr in ("__all__", "__builtins__", "__path__"):
                continue
            if isinstance(value, mutable) or (isinstance(value, np.ndarray)
                                              and value.flags.writeable):
                found.append(f"{name}.{attr}")
    assert found == []


# ---------------------------------------------------------------- substream

def test_substream_reproducible():
    a = substream(1234, 0).standard_normal(8)
    b = substream(1234, 0).standard_normal(8)
    assert np.array_equal(a, b)


def test_substream_independent_indices():
    a = substream(1234, 0).standard_normal(8)
    b = substream(1234, 1).standard_normal(8)
    assert not np.array_equal(a, b)


def test_substream_refuses_seeds_beyond_64_bits():
    # seeds were masked to 64 bits, so 10**30 ran as 10**30 % 2**64
    for seed, message in [(-1, "seed must be >= 0"), (2**64, "seed must be <= "),
                          (10**30, "seed must be <= ")]:
        with pytest.raises(ValueError, match=f"^{message}"):
            substream(seed, 0)
    substream(2**64 - 1, 0)


def test_substream_seed_matters():
    assert not np.array_equal(substream(1, 5).standard_normal(4),
                              substream(2, 5).standard_normal(4))


# ---------------------------------------------------------------- gaussians

def test_interval_mass_values_and_limits():
    mass, z, phi = _interval_mass([-np.inf, 0.0, 1.0, np.inf], np.array([0.0]), np.array([1.0]))
    assert mass.shape == (3, 1) and z.shape == phi.shape == (4, 1)
    assert mass[0, 0] == pytest.approx(0.5)
    assert mass[0, 0] + mass[1, 0] == pytest.approx(0.8413447460685429, abs=1e-12)
    assert mass.sum() == 1.0
    assert phi[0, 0] == phi[-1, 0] == 0.0


def test_interval_mass_columns_match_one_peak_calls():
    edges = np.array([-np.inf, 0.5, 2.0, np.inf])
    means = np.array([0.0, 1.0, 3.0])
    sigmas = np.array([1.0, 0.5, 2.0])
    grid = _interval_mass(edges, means, sigmas)
    assert [a.shape for a in grid] == [(3, 3), (4, 3), (4, 3)]
    for j in range(3):
        one = _interval_mass(edges, means[j:j + 1], sigmas[j:j + 1])
        for whole, col in zip(grid, one):
            assert np.array_equal(whole[:, j], col[:, 0])


def _scopes_using(node, name, scope=None):
    """The enclosing function (None at module level) of every reference to
    `name` below `node`: a load, an attribute or an import."""
    for child in ast.iter_child_nodes(node):
        ref = (child.id if isinstance(child, ast.Name) else
               child.attr if isinstance(child, ast.Attribute) else
               child.name if isinstance(child, ast.alias) else None)
        if ref == name:
            yield scope
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _scopes_using(child, name, inner)


def test_normal_kernel_has_one_caller():
    """The fit's bin masses and the decision regions' masses share one path:
    the only reference to `_std_normal_cdf_pdf` is `core._interval_mass`'s call."""
    users = [(path.name, scope) for path in sorted(Path(pnr_lab.__file__).parent.glob("*.py"))
             for scope in _scopes_using(ast.parse(path.read_text()), "_std_normal_cdf_pdf")]
    assert users == [("core.py", "_interval_mass")]


def _function(path: Path, name: str) -> ast.FunctionDef:
    return next(node for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_ladder_is_spelled_once():
    """The sampler reads the ladder and its variance law from `run`'s
    `_ladder` tables, never from the model's gain or noise fields, and the
    regression's explicit design matrix stays inside core and fit."""
    src = Path(pnr_lab.__file__).parent
    read = {node.attr for node in ast.walk(_function(src / "simulate.py", "_sample_chunk"))
            if isinstance(node, ast.Attribute)}
    assert not read & {"gain_per_photon", "saturation_coeff", "area_offset",
                       "electronic_noise_var", "extra_per_photon_var", "mult_noise_var"}
    users = {path.name for path in src.glob("*.py")
             for _ in _scopes_using(ast.parse(path.read_text()), "_variance_parts")}
    assert users == {"core.py", "fit.py"}


_ladder_floats = st.floats(-1e6, 1e6)


@given(n=st.integers(1, 60), x0=_ladder_floats, spacing=_ladder_floats, sat=_ladder_floats,
       v_elec=_ladder_floats, v_0=_ladder_floats, v_m=_ladder_floats)
def test_ladder_matches_the_per_element_formula(n, x0, spacing, sat, v_elec, v_0, v_m):
    means, variances = _ladder(n, x0, spacing, sat, v_elec, v_0, v_m)
    assert means.tolist() == [x0 + i * spacing - i * i * sat for i in range(n)]
    assert variances.tolist() == [v_elec + (v_0 if i > 0 else 0.0) + i * v_m for i in range(n)]


@given(k=st.integers(1, 60), v=st.lists(st.floats(0.0, 1e6), min_size=3, max_size=3))
def test_variance_parts_agree_with_the_ladder_law(k, v):
    # the regression's design matrix is the same law as `_ladder`'s variances
    law = _ladder(k, 0.0, 0.0, 0.0, *v)[1]
    assert (np.abs(_variance_parts(k) @ v - law) <= 1e-15 * law).all()


def _cdf_oracle(z):
    return np.array([0.5 * math.erfc(-q / math.sqrt(2.0)) for q in np.ravel(z)])


def test_normal_kernel_matches_erfc_oracle():
    rng = np.random.default_rng(2024)
    z = np.concatenate([rng.uniform(-40.0, 40.0, 20_000), rng.standard_normal(20_000)])
    cdf, _ = _std_normal_cdf_pdf(z)
    ref = _cdf_oracle(z)
    err = np.abs(cdf - ref)
    assert err.max() <= 1e-15
    resolved = ref >= 1e-250
    assert (err[resolved] / ref[resolved]).max() <= 1e-12


@given(st.floats(-45.0, 45.0))
def test_normal_kernel_property(z):
    cdf, pdf = _std_normal_cdf_pdf(z)
    ref = 0.5 * math.erfc(-z / math.sqrt(2.0))
    assert abs(cdf - ref) <= 1e-15
    assert abs(cdf - ref) <= 1e-12 * ref or ref < 1e-250
    assert 0.0 <= cdf <= 1.0 and 0.0 <= pdf < 0.4


def test_normal_kernel_limits_and_nan():
    # the suite turns warnings into errors, so NaN passes through silently
    cdf, pdf = _std_normal_cdf_pdf(np.array([-np.inf, np.inf, np.nan, -0.0, 0.0]))
    assert cdf[0] == 0.0 and cdf[1] == 1.0 and np.isnan(cdf[2])
    assert cdf[3] == cdf[4] == 0.5
    assert pdf[0] == pdf[1] == 0.0 and np.isnan(pdf[2])
    assert _std_normal_cdf_pdf(-40.0)[0] == 0.0 and _std_normal_cdf_pdf(40.0)[0] == 1.0


def test_normal_kernel_shapes():
    cdf, pdf = _std_normal_cdf_pdf(0.3)
    assert cdf.shape == pdf.shape == ()
    assert cdf == pytest.approx(0.6179114221889527, abs=1e-15)
    grid = np.random.default_rng(5).normal(scale=10.0, size=(3, 4, 5))
    cdf, pdf = _std_normal_cdf_pdf(grid)
    assert cdf.shape == pdf.shape == (3, 4, 5)
    flat_cdf, flat_pdf = _std_normal_cdf_pdf(grid.ravel())
    assert np.array_equal(cdf.ravel(), flat_cdf) and np.array_equal(pdf.ravel(), flat_pdf)


def test_normal_kernel_density_is_exact():
    z = np.linspace(-40.0, 40.0, 80_001)
    _, pdf = _std_normal_cdf_pdf(z)
    ref = np.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
    normal = ref >= sys.float_info.min
    assert np.array_equal(pdf[normal], ref[normal])
    assert np.all(pdf[~normal] == 0.0)


# ---------------------------------------------------------------- detector model

def test_detector_model_validation():
    ok = DetectorModel(mean_photon_number=2.0, quantum_efficiency=0.9,
                       gain_per_photon=100.0, mult_noise_var=10.0,
                       electronic_noise_var=5.0)
    assert ok.cell_count is None
    with pytest.raises(ValueError):
        DetectorModel(mean_photon_number=-1.0, quantum_efficiency=0.9,
                      gain_per_photon=100.0, mult_noise_var=10.0,
                      electronic_noise_var=5.0)
    with pytest.raises(ValueError):
        DetectorModel(mean_photon_number=2.0, quantum_efficiency=1.5,
                      gain_per_photon=100.0, mult_noise_var=10.0,
                      electronic_noise_var=5.0)
    with pytest.raises(ValueError):
        DetectorModel(mean_photon_number=2.0, quantum_efficiency=0.9,
                      gain_per_photon=100.0, mult_noise_var=-1.0,
                      electronic_noise_var=5.0)
    with pytest.raises(ValueError):
        DetectorModel(mean_photon_number=2.0, quantum_efficiency=0.9,
                      gain_per_photon=100.0, mult_noise_var=10.0,
                      electronic_noise_var=5.0, cell_count=0)
    for bad in (None, "1.0", math.inf, math.nan, 10**400):
        with pytest.raises(ValueError, match="area_offset must be a finite number"):
            _small_model(area_offset=bad)
    # the fit config's tolerance takes the same finite-number check
    for bad in (math.nan, math.inf, -math.inf, 0.0, None, "1e-9"):
        with pytest.raises(ValueError, match="tolerance must be a finite number > 0"):
            FitConfig(tolerance=bad)


def _small_model(**extra):
    return DetectorModel(mean_photon_number=2.0, quantum_efficiency=0.9,
                         gain_per_photon=100.0, mult_noise_var=10.0,
                         electronic_noise_var=5.0, **extra)


def _four_peaks():
    return MixtureModel.from_peaks([0.0, 100.0, 200.0, 300.0], [10.0] * 4)


# a bool is a numbers.Real, but never one of these numbers
@pytest.mark.parametrize("make", [
    lambda: FitConfig(tolerance=True),
    lambda: DetectorModel(mean_photon_number=True, quantum_efficiency=0.9,
                          gain_per_photon=100.0, mult_noise_var=10.0, electronic_noise_var=5.0),
    lambda: histogram_from_areas(np.array([1.0, 2.0, 3.0]), True),
    lambda: GaussianPeak(0, True, 1.0, 0.5),
    lambda: MixtureModel.from_ladder(True, 100.0, 0.0, [5.0, 6.0], [0.5, 0.5]),
    lambda: MixtureModel.from_ladder(0.0, 100.0, 0.0, [5.0, True], [0.5, 0.5]),
    lambda: MixtureModel.from_ladder(0.0, 100.0, 0.0, [5.0, 6.0], [0.5, 0.5],
                                     Constraint.POISSON_WEIGHTS, poisson_mu=True),
    lambda: threshold(True, 1.0, 2.0, 1.0),
    lambda: EfficiencyInput(wavelength=543e-9, power=2e-9, nd_transmission=True,
                            counts=0.0, dark_counts=0.0),
    lambda: EfficiencyInput(wavelength=543e-9, power=2e-9, nd_transmission=1e-4,
                            counts=0.0, dark_counts=0.0, loss_factors=(True, 0.99)),
    lambda: photon_flux(True, 2e-9),
    lambda: excess_noise_factor(True, 135.0),
    lambda: n_max(True),
    lambda: confusion(_four_peaks(), [True, True, False, False]),
    lambda: one_vs_many_error(_four_peaks(), [True, True, True, "1"]),
], ids=["tolerance", "mean_photon_number", "bin_width", "peak_mean", "x0", "std_devs",
        "poisson_mu", "threshold", "nd_transmission", "loss_factors", "photon_flux",
        "excess_noise_factor", "n_max", "confusion_priors", "one_vs_many_priors"])
def test_finite_number_fields_refuse_bools(make):
    with pytest.raises(ValueError, match="must be a finite number.*got True"):
        make()


@pytest.mark.parametrize("value, shown", [
    (np.float64("nan"), "nan"), (np.float32("-inf"), "-inf"), (np.int64(-3), "-3"),
    (np.True_, "True"), (np.str_("x"), "'x'"),
], ids=["float64", "float32", "int64", "bool", "str"])
def test_finite_words_numpy_scalars_like_python_ones(value, shown):
    with pytest.raises(ValueError, match=rf"^x must be a finite number >= 0, got {shown}$"):
        _finite("x", value, at_least=0)


def test_fit_tolerance_is_in_standard_errors_with_a_floor():
    assert FitConfig().tolerance == 0.01
    assert FitConfig(tolerance=1e-3).tolerance == 1e-3
    # a relative-drop tolerance from an old config is refused, not run as 1e-9 sigma
    with pytest.raises(ValueError, match=r"tolerance is in standard errors, >= 0\.001; got 1e-09"):
        FitConfig(tolerance=1e-9)


WHOLE_NUMBER_FIELDS = {
    "n_pulses": lambda v: SimConfig(model=_small_model(), n_pulses=v, seed=1),
    "seed": lambda v: SimConfig(model=_small_model(), n_pulses=10, seed=v),
    "n_peaks": lambda v: FitConfig(n_peaks=v),
    "max_iterations": lambda v: FitConfig(max_iterations=v),
    "cell_count": lambda v: _small_model(cell_count=v),
}


@pytest.mark.parametrize("field", sorted(WHOLE_NUMBER_FIELDS))
def test_config_types_take_whole_numbers(field):
    """Integral floats (JSON may write 1e1) become ints; fractions, bools and
    non-numbers are refused where the value is set, not deep inside a run."""
    build = WHOLE_NUMBER_FIELDS[field]
    value = getattr(build(1e1), field)
    assert value == 10 and type(value) is int
    assert getattr(build(np.int64(10)), field) == 10
    for bad, error in ((7.5, ValueError), (True, TypeError), ("10", TypeError), ([10], TypeError)):
        with pytest.raises(error, match=f"{field} must be a whole number"):
            build(bad)


# ---------------------------------------------------------------- histogram

def test_histogram_props():
    h = Histogram(bin_edges=np.array([0.0, 1.0, 2.0, 3.0]),
                  counts=np.array([4, 5, 6]), total_pulses=15)
    assert h.n_bins == 3
    assert np.allclose(h.centers, [0.5, 1.5, 2.5])
    assert np.allclose(h.widths, 1.0)


def test_histogram_arrays_read_only():
    h = Histogram(bin_edges=np.array([0.0, 1.0, 2.0]),
                  counts=np.array([1, 2]), total_pulses=3)
    with pytest.raises(ValueError):
        h.counts[0] = 99


def test_histogram_leaves_the_callers_arrays_writeable():
    edges, counts = np.array([0.0, 1.0, 2.0]), np.array([1, 2])
    h = Histogram(bin_edges=edges, counts=counts, total_pulses=3)
    assert edges.flags.writeable and counts.flags.writeable
    assert not h.bin_edges.flags.writeable and not h.counts.flags.writeable
    assert np.array_equal(h.bin_edges, edges) and np.array_equal(h.counts, counts)
    edges[0], counts[0] = -1.0, 7          # the stored arrays are copies
    assert h.bin_edges[0] == 0.0 and h.counts[0] == 1
    # arrays that are read-only already are kept as they are
    again = Histogram(bin_edges=h.bin_edges, counts=h.counts, total_pulses=3)
    assert again.bin_edges is h.bin_edges and again.counts is h.counts


def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram(bin_edges=np.array([0.0, 1.0]), counts=np.array([1, 2]),
                  total_pulses=3)
    with pytest.raises(ValueError):
        Histogram(bin_edges=np.array([0.0, 1.0, 0.5]), counts=np.array([1, 2]),
                  total_pulses=3)
    # an infinite end edge gives an infinite bin centre, which the fit's guess reads
    for edges in ([-math.inf, 1.0, 2.0], [0.0, 1.0, math.inf]):
        with pytest.raises(ValueError, match="bin_edges must be finite and strictly increasing"):
            Histogram(bin_edges=np.array(edges), counts=np.array([1, 2]), total_pulses=3)


@pytest.mark.parametrize("underflow, overflow, match", [
    (-7, -1, "must be >= 0"),
    (0, -1, "must be >= 0"),
    (50, 0, "exceeds total_pulses"),
    (1, 1, "exceeds total_pulses"),
])
def test_histogram_rejects_impossible_tallies(underflow, overflow, match):
    edges, counts = np.array([0.0, 1.0, 2.0]), np.array([4, 5])
    with pytest.raises(ValueError, match=match):
        Histogram(edges, counts, total_pulses=10, underflow=underflow, overflow=overflow)
    h = Histogram(edges, counts, total_pulses=10, underflow=1, overflow=0)
    assert h.counts.sum() + h.underflow + h.overflow == h.total_pulses


# ---------------------------------------------------------------- constraints

@pytest.mark.parametrize("text,member", [
    ("free", Constraint.FREE_WEIGHTS_FREE_SIGMAS),
    ("poisson", Constraint.POISSON_WEIGHTS),
    ("linear_variance", Constraint.LINEAR_VARIANCE),
])
def test_constraint_parse(text, member):
    assert Constraint.parse(text) is member


def test_constraint_parse_rejects_unknown():
    with pytest.raises(ValueError):
        Constraint.parse("bananas")


@pytest.mark.parametrize("member, value, variance_law, poisson", [
    (Constraint.FREE_WEIGHTS_FREE_SIGMAS, "free", False, False),
    (Constraint.POISSON_WEIGHTS, "poisson", False, True),
    (Constraint.LINEAR_VARIANCE, "linear_variance", True, False),
])
def test_constraint_pairs_a_width_law_with_a_weight_law(member, value, variance_law, poisson):
    """Each member's laws match its name, and its config spellings are unchanged."""
    assert (member.variance_law, member.poisson) == (variance_law, poisson)
    assert member.value == value and Constraint(value) is member
    for text in (value, member.name, member.name.lower()):
        assert Constraint.parse(text) is member
    assert len(Constraint) == 3


def test_no_module_compares_a_constraint_member():
    """A regime's laws are read from its flags: no `is`, `==` or `in` test
    against a particular member anywhere in the package."""
    found = []
    for path in sorted(Path(pnr_lab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                found += [(path.name, node.lineno) for ref in ast.walk(node)
                          if isinstance(ref, ast.Attribute) and ref.attr in Constraint.__members__
                          and isinstance(ref.value, ast.Name) and ref.value.id == "Constraint"]
    assert found == []


@pytest.mark.parametrize("mu", [0, 0.0, -2.0, -1e-300])
def test_poisson_mean_must_be_positive(mu):
    with pytest.raises(ValueError, match=f"poisson_mu must be a finite number > 0, got {mu!r}"):
        MixtureModel.from_ladder(0.0, 100.0, 0.0, [5.0, 6.0], [0.5, 0.5],
                                 Constraint.POISSON_WEIGHTS, poisson_mu=mu)
    with pytest.raises(ValueError, match="POISSON_WEIGHTS model requires poisson_mu"):
        MixtureModel.from_ladder(0.0, 100.0, 0.0, [5.0, 6.0], [0.5, 0.5],
                                 Constraint.POISSON_WEIGHTS)


def test_poisson_weights_normalized_pmf():
    # the fit's POISSON_WEIGHTS weights, as _Problem.unpack computes them
    w = _normalized_exp(_poisson_log_pmf(3.0, _log_factorials(8)))
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    raw = np.array([math.exp(-3.0) * 3.0 ** i / math.factorial(i) for i in range(8)])
    assert np.allclose(w, raw / raw.sum(), rtol=1e-12)


# ---------------------------------------------------------------- mixture model

def test_from_ladder_means_are_exact():
    m = MixtureModel.from_ladder(10.0, 100.0, 2.0, [5.0, 6.0, 7.0],
                                 [0.5, 0.3, 0.2])
    assert np.allclose(m.means(), [10.0, 108.0, 202.0])   # x0 + i*100 - i^2*2
    i = np.arange(3.0)
    assert np.abs(m.means() - (m.x0 + i * m.spacing - i * i * m.sat)).max() == pytest.approx(
        0.0, abs=1e-18)


@given(k=st.integers(1, 40), x0=_ladder_floats, spacing=_ladder_floats, sat=_ladder_floats)
def test_from_ladder_means_are_the_ladder_bit_for_bit(k, x0, spacing, sat):
    m = MixtureModel.from_ladder(x0, spacing, sat, [1.0] * k, [1.0 / k] * k)
    assert m.means().tobytes() == _ladder(k, x0, spacing, sat)[0].tobytes()


def test_from_ladder_rejects_bad_weights():
    with pytest.raises(ValueError):
        MixtureModel.from_ladder(0.0, 100.0, 0.0, [5.0, 5.0], [0.7, 0.7])
    with pytest.raises(ValueError):
        MixtureModel.from_ladder(0.0, 100.0, 0.0, [5.0, -1.0], [0.5, 0.5])


def test_mixture_refuses_non_numeric_poisson_mu():
    with pytest.raises(ValueError, match="poisson_mu must be a finite number"):
        MixtureModel.from_ladder(0.0, 100.0, 0.0, [5.0, 6.0], [0.5, 0.5],
                                 Constraint.POISSON_WEIGHTS, poisson_mu="1.5")


def test_from_peaks_keeps_explicit_means(catalog_model):
    assert np.allclose(catalog_model.means(),
                       [0.0, 135.0, 275.0, 416.0, 561.0, 709.0, 859.0])
    # the ladder description is a least-squares summary of those means
    assert catalog_model.x0 == pytest.approx(-0.285714285714365, abs=1e-9)
    assert catalog_model.spacing == pytest.approx(134.4642857142858, rel=1e-12)
    assert catalog_model.sat == pytest.approx(-1.4642857142857169, rel=1e-9)
    i = np.arange(7.0)
    ladder = catalog_model.x0 + i * catalog_model.spacing - i * i * catalog_model.sat
    assert np.abs(catalog_model.means() - ladder).max() < 1.0


def test_from_peaks_two_point_fallback():
    m = MixtureModel.from_peaks([0.0, 100.0], [5.0, 5.0])
    assert m.spacing == pytest.approx(100.0)
    assert m.sat == pytest.approx(0.0)


def test_mixture_constraint_recorded(law_model):
    assert law_model.constraint_kind is Constraint.LINEAR_VARIANCE
    assert law_model.n_peaks == 7


# ---------------------------------------------------------------- schemes, reports

def test_decision_scheme_requires_increasing_thresholds():
    with pytest.raises(ValueError):
        DecisionScheme(thresholds=(1.0, 1.0), priors=(1 / 3,) * 3,
                       error_per_number=(0.0, 0.0, 0.0))


@pytest.mark.parametrize("field, values, message", [
    ("thresholds", (1.0, math.inf), r"thresholds\[1\] must be a finite number, got inf"),
    ("thresholds", (True, 2.0), r"thresholds\[0\] must be a finite number, got True"),
    ("priors", (0.5, math.nan, 0.5), r"priors\[1\] must be a finite number >= 0, got nan"),
    ("priors", (0.5, -0.1, 0.6), r"priors\[1\] must be a finite number >= 0, got -0.1"),
    ("error_per_number", (0.0, math.nan, 0.0),
     r"error_per_number\[1\] must be a finite number, got nan"),
    # a bool or a string is refused where a float array would take it as a number
    ("priors", (0.5, True, 0.5), r"priors\[1\] must be a finite number >= 0, got True"),
    ("error_per_number", (0.0, 0.0, "0.1"),
     r"error_per_number\[2\] must be a finite number, got '0.1'"),
    ("thresholds", (1.0, np.float64(math.nan)), r"thresholds\[1\] must be a finite number, got nan"),
])
def test_decision_scheme_refuses_non_finite_numbers(field, values, message):
    fields = dict(thresholds=(1.0, 2.0), priors=(1 / 3,) * 3, error_per_number=(0.0,) * 3)
    fields[field] = values
    with pytest.raises(ValueError, match=message):
        DecisionScheme(**fields)
    # errors are not bounded below: a tail mass may round below 0
    assert DecisionScheme(thresholds=(1.0, 2.0), priors=(1 / 3,) * 3,
                          error_per_number=(-1e-17, 0.0, 0.0)).error_per_number[0] == -1e-17


def test_noise_report_unbounded_flag():
    r = NoiseReport(sigma_m_sq=0.0, sigma_0_sq=1.0, enf=1.0,
                    n_max=math.inf, regression_residual=0.0)
    assert r.unbounded
    r2 = NoiseReport(sigma_m_sq=276.0, sigma_0_sq=246.0, enf=1.015,
                     n_max=66.0, regression_residual=0.0)
    assert not r2.unbounded


def test_gaussian_peak_fields():
    p = GaussianPeak(index=2, mean=275.0, std_dev=31.7, weight=0.25)
    assert (p.index, p.mean, p.std_dev, p.weight) == (2, 275.0, 31.7, 0.25)
    for field in ("mean", "std_dev", "weight"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"peak {field} must be a finite number"):
                GaussianPeak(**{"index": 2, "mean": 275.0, "std_dev": 31.7, "weight": 0.25,
                                field: bad})
    with pytest.raises(ValueError, match="peak std_dev must be a finite number > 0"):
        GaussianPeak(index=2, mean=275.0, std_dev=0.0, weight=0.25)

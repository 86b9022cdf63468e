"""Shared domain types and numerical primitives.

Everything downstream (simulation, fitting, discrimination, noise figures)
works in terms of the types defined here.  All types are immutable value
objects: construct, validate once, share freely between threads.

Units: pulse areas are in arbitrary integrator units (ADC-style).  Only
ratios of gain and noise are physical, so no conversion to electrons is
attempted anywhere.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "Constraint",
    "DetectorModel",
    "Histogram",
    "GaussianPeak",
    "MixtureModel",
    "DecisionScheme",
    "NoiseReport",
    "DegenerateDesignError",
    "substream",
]

_MAX_U64 = (1 << 64) - 1


class DegenerateDesignError(ValueError):
    """Raised when a regression design matrix has no usable rank."""


# ---------------------------------------------------------------------------
# random number generation contract
# ---------------------------------------------------------------------------

def substream(seed: int, index: int) -> np.random.Generator:
    """Return independent random stream number `index` for a 64-bit seed.

    Streams are derived by counter-based splitting (Philox keyed on
    (seed, index)), so any consumer can draw from stream k without
    generating streams 0..k-1 first.  The simulator draws pulse chunk k
    from stream k, so the seed and k alone fix that chunk's draws.
    """
    key = np.array([_whole("seed", seed, 0, _MAX_U64), _whole("stream index", index, 0, _MAX_U64)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# numerical primitives
# ---------------------------------------------------------------------------

# Normal CDF kernel: Phi(-|z|) = exp(-z^2/2) erfcx(|z|/sqrt 2)/2, where erfcx(u) =
# exp(u^2) erfc(u) is a degree-6 polynomial per unit cell of v = 400/(4+u) (the
# layout of S. G. Johnson's Faddeeva erfcx).  No step makes a subnormal, on which
# numpy's exp is about 10x slower; -z^2/2 below _LOG_DENSITY_MIN gives density 0.
_SQRT2PI = math.sqrt(2.0 * math.pi)
_Z_CAP = 38.0      # |z| cap, past the last live cell; NaN and inf land here too
_LOG_DENSITY_MIN = math.log(sys.float_info.min * _SQRT2PI) + 1e-9  # + rounding of log, exp


def _erfcx_cells() -> np.ndarray:
    """(101, 7) table: row c >= 14 holds erfcx(400/(c+x) - 4)/2 as a polynomial
    in x in [-1/2, 1/2], highest power first, interpolated from math.erfc at 7
    Chebyshev nodes (609 calls; float32 nodes make u*u exact).  Rows below 14
    (|z| > 36.25) are 0, so Phi is exactly 0 or 1 there."""
    k = np.arange(7)
    cells = np.arange(14, 101)[:, None]
    u = (400.0 / (cells + 0.5 * np.cos((2 * k + 1) * math.pi / 14)) - 4.0).astype(np.float32)
    y = np.array([[0.5 * math.exp(a * a) * math.erfc(a) for a in row] for row in u.tolist()])
    vander = (400.0 / (4.0 + u.astype(float)) - cells)[..., None] ** k
    table = np.zeros((101, 7))
    table[14:] = np.linalg.solve(vander, y[..., None])[..., ::-1, 0]
    table.setflags(write=False)
    return table


_ERFCX_CELLS = _erfcx_cells()


def _std_normal_cdf_pdf(z):
    """Standard normal CDF and density from one exp, elementwise and unvalidated:
    the kernel behind `_interval_mass`.  The CDF is within 1e-15 absolute and,
    where it is >= 1e-250, 1e-12 relative of 0.5*erfc(-z/sqrt 2), and exactly
    0 or 1 beyond |z| = 36.25.  NaN propagates; +/-inf give 1/0, density 0."""
    z = np.asarray(z, dtype=float)
    flat = z.reshape(-1)                                 # 1-D, so out= works for 0-d z
    a = np.abs(flat)
    e = np.minimum(a, _Z_CAP)                            # NaN stays NaN
    np.square(e, out=e)
    e *= -0.5
    e[e < _LOG_DENSITY_MIN] = -np.inf
    np.exp(e, out=e)                                     # exp(-z^2/2)
    v = np.fmin(a, _Z_CAP, out=a)
    v += 4.0 * math.sqrt(2.0)
    np.divide(400.0 * math.sqrt(2.0), v, out=v)
    cell = np.rint(v)                                    # v = 400 / (4 + |z|/sqrt 2)
    v -= cell
    coef = _ERFCX_CELLS.take(cell.astype(np.intp), axis=0).T
    tail = coef[0] * v
    for c in coef[1:-1]:
        tail += c
        tail *= v
    tail += coef[-1]
    tail *= e                                            # Phi(-|z|)
    cdf = np.subtract(1.0, tail)
    np.copyto(cdf, tail, where=flat < 0)
    e /= _SQRT2PI
    return cdf.reshape(z.shape), e.reshape(z.shape)


def _interval_mass(edges, means: np.ndarray, sigmas: np.ndarray):
    """(len(edges) - 1, K) unit mass of each peak between successive edges, and
    the (len(edges), K) edge z-scores and densities, for checked means and
    widths: the one path to the fit's bin masses and the decision regions'."""
    z = np.subtract(np.asarray(edges, dtype=float)[:, None], means)
    z /= sigmas
    cdf, phi = _std_normal_cdf_pdf(z)
    return cdf[1:] - cdf[:-1], z, phi


def _finite(name: str, value, above=None, at_least=None, at_most=None) -> None:
    """Refuse `value` unless it is a finite real number, > `above`, >= `at_least`
    and <= `at_most` where those are given: the one rule for every number a
    type or function takes.  JSON's NaN and Infinity, which Python's reader
    accepts, are refused, and so are bools and ints beyond the float range.
    A float (numpy's too) skips the costlier `numbers.Real` check."""
    try:
        if ((isinstance(value, float)
             or isinstance(value, numbers.Real) and not isinstance(value, bool))
                and math.isfinite(value) and (above is None or value > above)
                and (at_least is None or value >= at_least)
                and (at_most is None or value <= at_most)):
            return
    except OverflowError:           # an int beyond the float range
        pass
    bounds = ((">", above), (">=", at_least), ("<=", at_most))
    bound = " and".join(f" {op} {b}" for op, b in bounds if b is not None)
    shown = value.item() if isinstance(value, np.generic) else value   # nan, not np.float64(nan)
    raise ValueError(f"{name} must be a finite number{bound}, got {shown!r}")


def _finite_floats(name: str, values, at_least=None) -> tuple:
    """`values` as a tuple of floats by `_finite`'s rule, in one array pass if all are floats."""
    values = tuple(values)
    a = np.array(values, dtype=float) if set(map(type, values)) <= {float, np.float64} else None
    if a is None or not np.isfinite(a).all() or at_least is not None and not (a >= at_least).all():
        for i, v in enumerate(values):
            _finite(f"{name}[{i}]", v, at_least=at_least)
    return tuple(map(float, values))


def _checked_priors(priors, k: int) -> tuple:
    """`priors` as a tuple of floats if they are one finite number >= 0 for each
    of `k` classes with a positive finite sum: the one prior rule, read by
    `DecisionScheme`, `ConfusionMatrix` and `one_vs_many_error`."""
    priors = _finite_floats("priors", priors, 0)
    if len(priors) != k:
        raise ValueError(f"priors must have length {k}, got {len(priors)}")
    if not 0 < sum(priors) < math.inf:
        raise ValueError(f"priors must not all be zero and their sum must be finite, "
                         f"got {list(priors)}")
    return priors


def _read_only(a: np.ndarray) -> np.ndarray:
    """`a` if it is read-only, else a read-only copy: a caller's array stays writeable."""
    if a.flags.writeable:
        (a := a.copy()).setflags(write=False)
    return a


def _whole(name: str, value, least=None, most=None) -> int:
    """`value` as an int: an int, or a float with no fractional part (JSON may
    write 1e5), within [`least`, `most`] where those are given.  Bools,
    fractions and non-numbers are refused; a plain int skips the type checks."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer, float)):
            raise TypeError(f"{name} must be a whole number, got {value!r}")
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{name} must be a whole number, got {value!r}")
        value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be <= {most}, got {value}")
    return value


def _log_factorials(n: int) -> np.ndarray:
    """ln k! at k = 0..n-1 by math.lgamma (scipy's gammaln differs by a few ulp)."""
    return np.array([math.lgamma(j + 1.0) for j in range(n)])


def _poisson_log_pmf(mu: float, log_factorials: np.ndarray) -> np.ndarray:
    """ln Poisson pmf at k = 0..n-1 for mu > 0 from `_log_factorials(n)`: the one
    definition behind the simulator's draw table and the fit's weights."""
    return np.arange(len(log_factorials)) * math.log(mu) - mu - log_factorials


def _normalized_exp(logw: np.ndarray) -> np.ndarray:
    """exp(logw) scaled to unit sum, computed from logw - max(logw)."""
    e = np.exp(logw - logw.max())
    return e / e.sum()


def _ladder(n: int, x0, spacing, sat, v_elec=0.0, v_0=0.0, v_m=0.0):
    """Peaks 0..n-1's means x0 + i*spacing - i^2*sat and variances v_elec + [i>0]*v_0 + i*v_M."""
    i = np.arange(n, dtype=float)
    return x0 + i * spacing - i * i * sat, v_elec + np.where(i > 0, v_0, 0.0) + i * v_m


def _variance_parts(k: int) -> np.ndarray:
    """(k, 3) design matrix d sigma_i^2 / d(v_elec, v_0, v_M) of `_ladder`'s
    variance law at i = 0..k-1, the regression's explicit form of it, shared
    by the fit's LINEAR_VARIANCE regime and the noise report."""
    i = np.arange(k, dtype=float)
    return np.stack([np.ones(k), (i > 0).astype(float), i], axis=1)


def _variance_components(std_devs, weights):
    """(v_elec, v_0, v_M) of the variance law from the widths of peaks 0..K-1 by
    one weighted lstsq.  Row i weighs weights_i / (2 sigma_i^4), the information
    in sigma_i^2 (Var(sigma^2) ~ 2 sigma^4 / n for n = N*weights_i pulses; N
    cancels).  Row 0 alone sets v_elec = sigma_0^2, so (v_0, v_M) is the weighted
    line through sigma_i^2 - sigma_0^2 over i >= 1.  Returns (components,
    residual), residual = sum weights_i r_i^2 / (2 sigma_i^4): N * residual is the
    regression's chi^2.  DegenerateDesignError if the weighted rank is below 3.
    """
    var = np.square(np.asarray(std_devs, dtype=float))
    scale = np.sqrt(np.asarray(weights, dtype=float) / 2.0) / var
    parts = _variance_parts(len(var))
    coef, _, rank, _ = np.linalg.lstsq(parts * scale[:, None], var * scale, rcond=None)
    if rank < 3:
        raise DegenerateDesignError(
            f"variance law needs three peaks that carry weight; weighted design has rank {rank}")
    resid = (var - parts @ coef) * scale
    return coef, float(resid @ resid)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectorModel:
    """Parametric description of the source + detector + electronics chain.

    The pulse-area observable for a pulse with d surviving detections is
        area = area_offset + d*gain - d^2*saturation_coeff + noise
    with noise variance  electronic_noise_var + [d>0]*extra_per_photon_var
    + d*mult_noise_var.  The quadratic term models gain droop when several
    detections crowd the active area; `cell_count` adds the harder
    dead-spot saturation where coincident detections can be lost outright.

    Filter transmission and the quadratic droop are easy to conflate when
    both are written as a single symbol; here they are separate fields
    (`nd_transmission` lives in the efficiency calculator, never in this
    model) and can never be confused.
    """

    mean_photon_number: float          # Poisson mean per gate (source)
    quantum_efficiency: float          # detection probability per photon
    gain_per_photon: float             # mean area added per detection
    mult_noise_var: float              # per-detection area variance (gain noise)
    electronic_noise_var: float        # zero-photon peak variance
    extra_per_photon_var: float = 0.0  # extra variance whenever >= 1 detection fires
    area_offset: float = 0.0           # integrator pedestal (zero-peak center)
    saturation_coeff: float = 0.0      # quadratic mean droop coefficient
    dark_rate_per_gate: float = 0.0    # mean dark detections per gate
    cell_count: int | None = None      # None = infinite active-area cells

    def __post_init__(self):
        _finite("quantum_efficiency", self.quantum_efficiency, at_least=0, at_most=1)
        _finite("gain_per_photon", self.gain_per_photon, above=0)
        for name in ("mean_photon_number", "mult_noise_var", "electronic_noise_var",
                     "extra_per_photon_var", "dark_rate_per_gate"):
            _finite(name, getattr(self, name), at_least=0)
        _finite("area_offset", self.area_offset)
        _finite("saturation_coeff", self.saturation_coeff)
        if self.cell_count is not None:
            object.__setattr__(self, "cell_count", _whole("cell_count", self.cell_count, 1))


@dataclass(frozen=True)
class Histogram:
    """Binned pulse-area spectrum, the exchange format between simulator and fitter.

    `counts` covers the bins only; pulses falling outside [edges[0], edges[-1]]
    are tracked in `underflow`/`overflow`; the three sum to at most total_pulses.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    total_pulses: int
    underflow: int = 0
    overflow: int = 0

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts)
        if edges.ndim != 1 or len(edges) < 2:
            raise ValueError("bin_edges must be a 1-D array with at least 2 entries")
        if not (np.all(np.diff(edges) > 0) and np.isfinite(edges[[0, -1]]).all()):
            raise ValueError("bin_edges must be finite and strictly increasing")
        if counts.shape != (len(edges) - 1,):
            raise ValueError("counts length must be len(bin_edges) - 1")
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(counts == np.floor(counts)):
                raise ValueError("counts must be integers")
            counts = counts.astype(np.int64)
        if (counts < 0).any():
            raise ValueError("counts must be >= 0")
        for name in ("total_pulses", "underflow", "overflow"):
            object.__setattr__(self, name, _whole(name, getattr(self, name), 0))
        if counts.sum() + self.underflow + self.overflow > self.total_pulses:
            raise ValueError("sum of counts, underflow and overflow exceeds total_pulses")
        object.__setattr__(self, "bin_edges", _read_only(edges))
        object.__setattr__(self, "counts", _read_only(counts))

    @property
    def n_bins(self) -> int:
        return len(self.counts)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.bin_edges)


@dataclass(frozen=True)
class GaussianPeak:
    """One photon-number peak: index i, center x_i, width sigma_i, mass fraction."""

    index: int
    mean: float
    std_dev: float
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "index", _whole("peak index", self.index, 0))
        _finite("peak mean", self.mean)
        _finite("peak std_dev", self.std_dev, above=0)
        _finite("peak weight", self.weight, at_least=0)


class Constraint(Enum):
    """Fit regimes for the mixture: a config name, a width law and a weight law."""

    FREE_WEIGHTS_FREE_SIGMAS = ("free", False, False)      # (K log sigma, K-1 logits)
    POISSON_WEIGHTS = ("poisson", False, True)             # (K log sigma, log mu)
    LINEAR_VARIANCE = ("linear_variance", True, False)     # (3 log variances, K-1 logits)

    def __new__(cls, value, variance_law, poisson):
        member = object.__new__(cls)
        member._value_, member.variance_law, member.poisson = value, variance_law, poisson
        return member

    @classmethod
    def parse(cls, value) -> "Constraint":
        """A member as is, or the member its name spells: the one rule for both
        `FitConfig.constraint` and `MixtureModel.constraint_kind`."""
        if isinstance(value, cls):
            return value
        if not isinstance(value, str):
            raise TypeError(f"constraint must be a Constraint or its name, got {value!r}")
        for member in cls:
            if value in (member.value, member.name, member.name.lower()):
                return member
        raise ValueError(
            f"unknown constraint {value!r}; expected one of "
            + ", ".join(m.value for m in cls)
        )


@dataclass(frozen=True)
class MixtureModel:
    """Ordered Gaussian photon-number peaks plus the ladder that ties their means.

    The mean ladder is x_i = x0 + i*spacing - i^2*sat.  Models produced by
    the fitter always have means derived from the ladder (the exactness
    invariant); models built from externally supplied peak lists keep the
    supplied means authoritative and store the least-squares ladder as a
    description.
    """

    peaks: tuple
    x0: float
    spacing: float
    sat: float
    constraint_kind: Constraint = Constraint.FREE_WEIGHTS_FREE_SIGMAS
    poisson_mu: float | None = None
    # prior mode -> (DecisionScheme, read-only mass[j, i]) of discriminate._cuts_and_mass
    _partitions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        peaks = tuple(self.peaks)
        if len(peaks) < 1:
            raise ValueError("MixtureModel needs at least one peak")
        for i, p in enumerate(peaks):
            if not isinstance(p, GaussianPeak):
                raise TypeError("peaks must be GaussianPeak instances")
            if p.index != i:
                raise ValueError("peak indices must be 0..K-1 in order")
        total = sum(p.weight for p in peaks)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"peak weights must sum to 1 within 1e-9, got {total!r}")
        object.__setattr__(self, "constraint_kind", Constraint.parse(self.constraint_kind))
        if self.constraint_kind.poisson and self.poisson_mu is None:
            raise ValueError(f"{self.constraint_kind.name} model requires poisson_mu")
        if self.poisson_mu is not None:
            _finite("poisson_mu", self.poisson_mu, above=0)
        object.__setattr__(self, "peaks", peaks)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_ladder(cls, x0, spacing, sat, std_devs, weights,
                    constraint_kind=Constraint.FREE_WEIGHTS_FREE_SIGMAS,
                    poisson_mu=None) -> "MixtureModel":
        """Build peaks with means exactly on `_ladder`'s x0 + i*spacing - i^2*sat.

        Each width and weight goes to its `GaussianPeak` as given, so the peak
        checks every element of the two sequences."""
        _finite("x0", x0)
        _finite("spacing", spacing)
        _finite("sat", sat)
        if len(std_devs) != len(weights):
            raise ValueError("std_devs and weights must have the same length")
        means = _ladder(len(std_devs), x0, spacing, sat)[0].tolist()
        peaks = tuple(map(GaussianPeak, range(len(means)), means, std_devs, weights))
        return cls(peaks, float(x0), float(spacing), float(sat), constraint_kind, poisson_mu)

    @classmethod
    def from_peaks(cls, means, std_devs, weights=None,
                   constraint_kind=Constraint.FREE_WEIGHTS_FREE_SIGMAS,
                   poisson_mu=None) -> "MixtureModel":
        """Build from explicit peak positions (e.g. an external fit table).

        The supplied means are kept as-is; (x0, spacing, sat) are the
        least-squares quadratic-ladder description of them.  As in
        `from_ladder`, each peak checks its own elements.
        """
        k = len(means)
        if weights is None:
            weights = [1.0 / k] * k
        if not (len(std_devs) == len(weights) == k):
            raise ValueError("means, std_devs and weights must have the same length")
        peaks = tuple(GaussianPeak(n, m, s, w)
                      for n, (m, s, w) in enumerate(zip(means, std_devs, weights)))
        means = np.asarray(means, dtype=float)
        i = np.arange(k)
        if k >= 3:
            design = np.stack([np.ones(k), i, -(i.astype(float) ** 2)], axis=1)
            coef, *_ = np.linalg.lstsq(design, means, rcond=None)
            x0, spacing, sat = (float(c) for c in coef)
        elif k == 2:
            x0, spacing, sat = float(means[0]), float(means[1] - means[0]), 0.0
        else:
            x0, spacing, sat = float(means[0]), 1.0, 0.0
        return cls(peaks, x0, spacing, sat, constraint_kind, poisson_mu)

    # -- views ---------------------------------------------------------

    @property
    def n_peaks(self) -> int:
        return len(self.peaks)

    def means(self) -> np.ndarray:
        return np.array([p.mean for p in self.peaks])

    def std_devs(self) -> np.ndarray:
        return np.array([p.std_dev for p in self.peaks])

    def weights(self) -> np.ndarray:
        return np.array([p.weight for p in self.peaks])


@dataclass(frozen=True)
class DecisionScheme:
    """Thresholds t_1..t_{K-1} cutting the area axis into photon-number regions.

    Region i is (t_i, t_{i+1}] with t_0 = -inf and t_K = +inf; a pulse area
    equal to a threshold belongs to the lower region.  `error_per_number[i]`
    is the prior-weighted foreign mass inside region i (see
    discriminate.build_scheme for the exact normalization).  The priors
    follow `_checked_priors`, the rule `ConfusionMatrix` reads them by.
    """

    thresholds: tuple
    priors: tuple
    error_per_number: tuple

    def __post_init__(self):
        object.__setattr__(self, "thresholds", thr := _finite_floats("thresholds", self.thresholds))
        object.__setattr__(self, "priors", _checked_priors(self.priors, len(thr) + 1))
        # errors are not bounded below: the tail masses behind them are not
        # shown to be >= 0 to the last ulp
        object.__setattr__(self, "error_per_number",
                           _finite_floats("error_per_number", self.error_per_number))
        if any(b <= a for a, b in zip(thr, thr[1:])):
            raise ValueError("thresholds must be strictly increasing")
        if len(self.error_per_number) != len(thr) + 1:
            raise ValueError("need exactly K-1 thresholds for K classes")


@dataclass(frozen=True)
class NoiseReport:
    """Variance-law regression output plus the derived figures of merit.

    n_max is stored as +inf when the excess noise factor is <= 1 (noise-free
    gain resolves arbitrarily many photons); `unbounded` makes that explicit.
    """

    sigma_m_sq: float
    sigma_0_sq: float
    enf: float
    n_max: float
    regression_residual: float

    @property
    def unbounded(self) -> bool:
        return not math.isfinite(self.n_max)

"""Photon-number decision rules from a fitted mixture.

A decision scheme cuts the pulse-area axis at the points where adjacent
photon-number densities intersect; each interval between cuts is the
decision region for one photon number.  From there: per-number error
probabilities, a full confusion matrix, and the binary "exactly one vs
more than one" discriminator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (DecisionScheme, MixtureModel, _finite, _finite_floats, _interval_mass,
                   _read_only)

__all__ = [
    "ConfusionMatrix",
    "NoIntersectionError",
    "InvalidModelError",
    "threshold",
    "build_scheme",
    "classify",
    "one_vs_many_error",
    "confusion",
]

class NoIntersectionError(ValueError):
    """The two densities do not cross between their means (pathological overlap)."""


class InvalidModelError(ValueError):
    """The mixture cannot support a decision scheme (e.g. non-increasing means)."""


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row i, column j: probability of deciding j when the true number is i."""

    matrix: np.ndarray
    priors: tuple

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("confusion matrix must be square")
        if not np.isfinite(m).all():                        # word the first bad entry, row-major
            i, j = divmod(int(np.isfinite(m).argmin()), len(m))
            _finite(f"confusion matrix[{i}, {j}]", m[i, j])
        if not np.abs(m.sum(axis=1) - 1.0).max() <= 1e-9:   # a NaN sum fails too
            raise ValueError("confusion matrix rows must sum to 1 within 1e-9")
        object.__setattr__(self, "matrix", _read_only(m))
        object.__setattr__(self, "priors", _finite_floats("priors", self.priors, 0))
        if len(self.priors) != len(m):
            raise ValueError(f"priors must have length {len(m)}, got {len(self.priors)}")


def threshold(x_i: float, sigma_i: float, x_next: float, sigma_next: float) -> float:
    """Equal-weight crossing point of two Gaussian densities, between the means.

    Closed form: with dx = x_next - x_i, g = ln(sigma_next/sigma_i) and
    R = dx^2 + 2*(sigma_next^2 - sigma_i^2)*g,

        t = x_i + sigma_i^2*(dx^2 + 2*sigma_next^2*g)
                  / (sigma_i^2*dx + sigma_i*sigma_next*sqrt(R))

    This is the root of the quadratic that lies between the means, written
    without the difference of variances in a denominator, so it holds to
    full precision for equal and nearly equal widths (equal widths give the
    midpoint).

    Raises NoIntersectionError when no crossing exists strictly between the
    means (one density dominating the whole interval -- extreme width ratio
    at small separation).  A negative R would mean the same thing and is
    guarded too, although for equal weights it is provably nonnegative.
    """
    _finite("x_i", x_i)
    _finite("sigma_i", sigma_i, above=0)
    _finite("x_next", x_next)
    _finite("sigma_next", sigma_next, above=0)
    if x_next <= x_i:
        raise ValueError(f"x_next must exceed x_i, got {x_i} >= {x_next}")
    return _crossing(x_i, sigma_i, x_next, sigma_next, 0.0)


def _crossing(x_i, sigma_i, x_next, sigma_next, log_w_ratio) -> float:
    """Crossing of w_i*phi_i and w_next*phi_next between the means, where
    log_w_ratio = ln(w_i/w_next); the closed form of `threshold` with g
    shifted by log_w_ratio."""
    dx = x_next - x_i
    g = log_w_ratio + math.log(sigma_next / sigma_i)
    radicand = dx * dx + 2.0 * (sigma_next * sigma_next - sigma_i * sigma_i) * g
    if radicand < 0:
        raise NoIntersectionError(
            f"no density intersection for peaks at {x_i} and {x_next} "
            f"(radicand {radicand:.3e})")
    var_i = sigma_i * sigma_i
    t = x_i + var_i * (dx * dx + 2.0 * sigma_next * sigma_next * g) / (
        var_i * dx + sigma_i * sigma_next * math.sqrt(radicand))
    if not (x_i < t < x_next):
        raise NoIntersectionError(
            f"densities at {x_i} (sigma {sigma_i}) and {x_next} (sigma {sigma_next}) "
            "do not cross between the means; one peak dominates the interval")
    return t


def build_scheme(model: MixtureModel, priors: str = "equal") -> DecisionScheme:
    """Thresholds plus per-number error probabilities for a mixture.

    priors="equal" uses the equal-weight intersections (the worst case for
    discrimination); priors="from-weights" uses the intersections of the
    weighted densities.  Both come from the one closed form in `_crossing`,
    equal priors being a log weight ratio of 0.

    error_per_number[i] sums, over every other peak j, the unit-normalized
    mass of peak j inside region i, each term scaled by peak j's prior
    relative to a uniform prior.  With equal priors that reduces to the
    plain foreign-mass sum  sum_{j!=i} integral_region_i phi_j.  All modeled
    peaks contribute, not just neighbors (non-adjacent terms are tiny for
    realistic ladders but cost nothing).
    """
    cuts, pri, mass = _cuts_and_mass(model, priors)
    rel = pri * model.n_peaks  # prior relative to uniform
    err = rel @ mass - rel * mass.diagonal()
    return DecisionScheme(thresholds=cuts, priors=pri, error_per_number=err)


_LAST_PARTITION = {}    # prior mode -> (model, cuts, priors, mass) of the last model


def _cuts_and_mass(model: MixtureModel, priors: str):
    """Cuts, normalized priors and mass[j, i], the unit mass of peak j inside
    region i of the cuts, for the prior mode of `build_scheme`: a tuple and two
    read-only arrays, kept for the last model (by identity) of each mode."""
    last = _LAST_PARTITION.get(priors) if isinstance(priors, str) else None
    if last is not None and last[0] is model:
        return last[1:]
    k = model.n_peaks
    if k < 2:
        raise InvalidModelError("need at least 2 peaks for a decision scheme")
    means = model.means()
    sigmas = model.std_devs()
    if not np.all(np.diff(means) > 0):
        raise InvalidModelError("peak means must be strictly increasing")

    if priors == "equal":
        pri = np.full(k, 1.0 / k)
    elif priors == "from-weights":
        w = model.weights()
        if (w <= 0).any():
            raise InvalidModelError("from-weights priors require strictly positive weights")
        pri = w / w.sum()
    else:
        raise ValueError(f"priors must be 'equal' or 'from-weights', got {priors!r}")
    # Python floats: _crossing's scalar math is over twice as slow on numpy scalars
    x, s, g = means.tolist(), sigmas.tolist(), (-np.diff(np.log(pri))).tolist()
    cuts = tuple(_crossing(x[i], s[i], x[i + 1], s[i + 1], g[i]) for i in range(k - 1))
    mass = _interval_mass([-np.inf, *cuts, np.inf], means, sigmas)[0]
    # C order: matmul and row sums over a transposed view add in another order
    mass = np.ascontiguousarray(mass.T)
    for a in (pri, mass):
        a.setflags(write=False)
    _LAST_PARTITION[priors] = (model, cuts, pri, mass)
    return cuts, pri, mass


def _checked_priors(priors, k: int) -> np.ndarray:
    """`priors` as a float array of length k by `_finite`'s rule, >= 0, with a
    finite sum that is not zero."""
    pri = np.array(_finite_floats("priors", priors, 0))
    if pri.shape != (k,):
        raise ValueError(f"priors must have length {k}, got {len(pri)}")
    if not 0 < pri.sum() < math.inf:
        raise ValueError(f"priors must not all be zero and their sum must be finite, "
                         f"got {pri.tolist()}")
    return pri


def classify(area, scheme: DecisionScheme):
    """Photon number decided for a pulse area (scalar or array).

    Region i is (t_i, t_{i+1}] with t_0 = -inf, t_K = +inf: an area exactly
    on a threshold belongs to the lower region.  The region is a count: the
    number of thresholds strictly below the area, i.e. K-1 less the number
    at or above it, taken in one comparison pass per threshold (no branch
    per pulse, as a binary search has).  NaN is at or above no threshold,
    so it goes to the top region.  A non-numeric area raises ValueError.
    """
    thr = scheme.thresholds
    a = np.asarray(area, dtype=float)
    above = np.zeros(a.shape, dtype=np.min_scalar_type(len(thr)))
    for t in thr:
        above += a <= t
    idx = np.subtract(len(thr), above, dtype=np.int64)
    return int(idx) if np.isscalar(area) else idx


def one_vs_many_error(model: MixtureModel, priors) -> float:
    """Misclassification probability of "exactly one" against "more than one".

    Classes {0}, {1}, {>=2} are formed by collapsing the scheme's regions,
    so the only boundary that matters is the 1-2 threshold.  `priors` is a
    per-photon-number array; the result is the prior-weighted error
    probability restricted to the classes {1} and {>=2}.
    """
    if model.n_peaks < 3:
        raise InvalidModelError("one-vs-many needs peaks 0, 1 and at least one more")
    pri = _checked_priors(priors, model.n_peaks)
    pri = pri / pri.sum()
    _, _, mass = _cuts_and_mass(model, "equal")
    p_one = pri[1]
    p_many = pri[2:].sum()
    if p_one + p_many <= 0:
        raise ValueError("priors give zero mass to both '1' and '>=2'")
    # one-photon pulses decided >=2, many-photon pulses decided 0 or 1
    err = p_one * mass[1, 2:].sum() + pri[2:] @ mass[2:, :2].sum(axis=1)
    return float(err / (p_one + p_many))


def confusion(model: MixtureModel, priors) -> ConfusionMatrix:
    """Full decision matrix: entry (i, j) = P(decide j | true i).

    Rows are conditional on the true number, so the priors do not change the
    entries; they are carried along for downstream weighting.
    """
    _, _, mass = _cuts_and_mass(model, "equal")
    return ConfusionMatrix(mass, tuple(_checked_priors(priors, model.n_peaks)))


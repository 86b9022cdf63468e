"""Constrained Gaussian-mixture fitting of pulse-area histograms.

The objective is binned weighted least squares,

    sum_b w_b * (count_b - N * p_model(bin_b))^2,   w_b = 1 / max(count_b, 1),

with the bin probability computed as the Gaussian CDF difference across the
bin (correct for wide bins, unlike a midpoint-density approximation).  The
minimizer is a damped (Levenberg-Marquardt style) iteration: damping scales
x10 on a rejected step and /10 on an accepted one, and a step is never
accepted if it increases the objective.  Each trial moves t times the damped
Gauss-Newton step.  After an accepted trial a parabola along that ray, with
the exact slope and the measured drop, gives its minimum; the next t is the
smaller of this ray's and the last ray's minima, kept within [1, 8].  Only a
step within one standard error of the optimum (d^2 < 1, below) at damping
1e-4 or less is scaled; further out a longer step can end in another local
minimum.  A rejected trial, scaled or not, raises the damping, and the
next trial is unscaled.  On a misfit spectrum the unit steps fall short by
a steady factor, and this ends their linear crawl.

The fit stops once an accepted step leaves no parameter able to move
`tolerance` standard errors: the unit step's predicted drop
d^2 = step.(2g - H step), H = J^T W J and g = J^T W r, bounds each |step_i|
by d sigma_i, sigma_i^2 = [H^-1]_ii.  Above damping 1e-4 a step is too short
for that, so a d^2 below tolerance^2 is replaced by the undamped g.H^+g,
which it never exceeds.  A unit-step drop of (1+q) d^2 on the ray's parabola
says later steps shrink by q: stop at d < tolerance*min(1, 1-q), with the
largest q of the last three steps.  Unit steps line up with the slowest
direction, so one ray shows its q; scaled steps do not, and one ray can
understate it.

Three constraint regimes share the mean ladder x_i = x0 + i*D - i^2*a.  Each
is a (width law, weight law) pair, the member's `variance_law` and `poisson`
flags, which alone `_Problem` reads:

  FREE_WEIGHTS_FREE_SIGMAS : (K log sigmas, K-1 softmax logits, the first pinned to 0)
  POISSON_WEIGHTS          : (K log sigmas, log mu of a renormalized Poisson pmf)
  LINEAR_VARIANCE          : (log v_elec, v_0, v_M of sigma_i^2 = v_elec + v_0*[i>0] + i*v_M,
                              K-1 softmax logits)

Log parameters keep scales positive.  Every Jacobian column is
analytic: d(bin mass)/d log sigma_i is the difference of z*phi(z) across the
bin, and the variance components reach it by the chain rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Constraint, Histogram, MixtureModel, _finite, _interval_mass, _ladder,
                   _log_factorials, _normalized_exp, _poisson_log_pmf,
                   _variance_components, _variance_parts, _whole)

__all__ = [
    "FitConfig",
    "FitReport",
    "FitSetupError",
    "fit_spectrum",
    "init_guess",
    "expected_counts",
    "report_to_json",
    "report_from_json",
]

_LOG_CLIP = 30.0         # log parameters are clipped to +/- this before exp
_PROMINENCE = 0.02       # a maximum counts only above this fraction of the peak bin
_SMOOTH_BINS = 5


class FitSetupError(ValueError):
    """The histogram or configuration cannot support the requested fit."""


def _peak_count(n_peaks):
    """"auto", or a whole number >= 2: one peak defines no ladder spacing."""
    return n_peaks if n_peaks == "auto" else _whole("n_peaks", n_peaks, 2)


@dataclass(frozen=True)
class FitConfig:
    n_peaks: int | str = "auto"
    constraint: Constraint = Constraint.FREE_WEIGHTS_FREE_SIGMAS
    max_iterations: int = 500
    tolerance: float = 0.01      # in standard errors; see the module docstring
    init: MixtureModel | None = None

    def __post_init__(self):
        if isinstance(self.constraint, str):
            object.__setattr__(self, "constraint", Constraint.parse(self.constraint))
        elif not isinstance(self.constraint, Constraint):
            raise TypeError(f"constraint must be a Constraint or its name, "
                            f"got {self.constraint!r}")
        _finite("tolerance", self.tolerance, above=0)
        if self.tolerance < 1e-3:
            raise ValueError(f"tolerance is in standard errors, >= 0.001; got {self.tolerance!r}")
        object.__setattr__(self, "n_peaks", _peak_count(self.n_peaks))
        object.__setattr__(self, "max_iterations",
                           _whole("max_iterations", self.max_iterations, 1))


@dataclass(frozen=True)
class FitReport:
    model: MixtureModel
    objective: float
    iterations: int
    converged: bool
    warnings: tuple = ()


# ---------------------------------------------------------------------------
# initial guess
# ---------------------------------------------------------------------------

def init_guess(hist: Histogram, n_peaks="auto") -> MixtureModel:
    """Heuristic starting model from the smoothed histogram.

    Prominent local maxima of the 5-bin moving average locate the ladder:
    x0 sits on the first maximum and the spacing is the median gap between
    successive maxima.  The cuts midway between guessed peaks split the bins
    into regions; each peak's weight is its region's count mass, and its
    sigma the count-weighted standard deviation of its region, clipped to
    [spacing/64, spacing/2] (spacing/4 for an empty region).  `n_peaks`
    follows FitConfig's rule ("auto" or a whole number >= 2); with "auto" the
    model gets two more peaks than maxima found (weak high-number peaks
    rarely clear the prominence cut).
    """
    x0, spacing, sat, sigmas, weights, _ = _guess(hist, n_peaks)
    return MixtureModel.from_ladder(x0, spacing, sat, sigmas.tolist(), weights.tolist())


def _guess(hist: Histogram, n_peaks):
    """`init_guess`'s model as `_Problem.pack` takes it."""
    k = _peak_count(n_peaks)
    counts = hist.counts.astype(float)
    if len(counts) < 3:
        raise FitSetupError("histogram has too few bins for an automatic guess")
    smoothed = np.convolve(counts, np.ones(_SMOOTH_BINS) / _SMOOTH_BINS, mode="same")
    gmax = smoothed.max()
    if gmax <= 0:
        raise FitSetupError("histogram is empty; provide an explicit initial model")
    prominent = _plateau_maxima(smoothed, _PROMINENCE * gmax)
    if len(prominent) < 2:
        raise FitSetupError(
            f"found {len(prominent)} prominent maxima; need at least 2 — "
            "provide an explicit initial model")
    centers = hist.centers[prominent]
    x0 = float(centers[0])
    # the median gap, as np.median takes it, without np.median's numpy.ma import
    gaps = np.sort(np.diff(centers))
    half = len(gaps) // 2
    spacing = float(gaps[half] if len(gaps) % 2 else (gaps[half - 1] + gaps[half]) / 2.0)
    k = len(prominent) + 2 if k == "auto" else k

    # count moments of each region about its guessed peak -> weights and sigmas
    ladder = _ladder(k, x0, spacing, 0.0)[0]
    region = np.searchsorted(0.5 * (ladder[:-1] + ladder[1:]), hist.centers, side="right")
    dev = hist.centers - ladder[region]
    mass = np.bincount(region, counts, k)
    filled = np.maximum(mass, 1.0)             # counts are whole: 1 only divides a 0
    mean = np.bincount(region, counts * dev, k) / filled
    var = np.bincount(region, counts * dev * dev, k) / filled - mean * mean
    sigmas = np.where(mass > 0, np.clip(np.sqrt(np.maximum(var, 0.0)),
                                        spacing / 64.0, spacing / 2.0), spacing / 4.0)
    weights = np.maximum(mass / max(mass.sum(), 1.0), 1e-6)
    weights /= weights.sum()
    return x0, spacing, 0.0, sigmas, weights, None


def _plateau_maxima(y: np.ndarray, floor: float) -> np.ndarray:
    """Middle indices of the runs of equal values in `y` that rise from the run
    before, fall to the run after and exceed `floor`.

    A run counts as one candidate: a symmetric peak can tie two adjacent bins
    after averaging, and a bin-by-bin strict comparison would drop it
    entirely.  Runs touching either end of `y` are never maxima.
    """
    starts = np.flatnonzero(np.concatenate(([True], y[1:] != y[:-1])))
    level = y[starts]
    mid = level[1:-1]
    is_max = (mid > level[:-2]) & (mid > level[2:]) & (mid > floor)
    return ((starts[1:-1] + starts[2:] - 1) // 2)[is_max]


# ---------------------------------------------------------------------------
# model evaluation
# ---------------------------------------------------------------------------

def expected_counts(model: MixtureModel, edges: np.ndarray, total: float):
    """Per-peak and summed expected counts in the given bins.

    Returns (per_peak, total_curve): per_peak has shape (K, n_bins).
    """
    p, _, _ = _interval_mass(edges, model.means(), model.std_devs())
    per_peak = (total * model.weights()[None, :] * p).T
    return per_peak, per_peak.sum(axis=0)


# ---------------------------------------------------------------------------
# parameter packing per regime
# ---------------------------------------------------------------------------

class _Problem:
    def __init__(self, hist: Histogram, constraint: Constraint, k: int):
        self.edges = hist.bin_edges
        self.counts = hist.counts.astype(float)
        self.n_total = float(self.counts.sum())
        self.wls = 1.0 / np.maximum(self.counts, 1.0)
        self.constraint = constraint
        self.k = k
        self.idx = np.arange(k, dtype=float)
        self.neg_idx_sq = -self.idx**2
        self.variance_law, self.poisson = constraint.variance_law, constraint.poisson
        self.n_width = 3 if self.variance_law else k
        self.log_factorials = _log_factorials(k)
        self.var_parts = _variance_parts(k)

    # -- layout ---------------------------------------------------------

    def n_params(self) -> int:
        return 3 + self.n_width + (1 if self.poisson else self.k - 1)

    def pack(self, x0, spacing, sat, sig, weights, mu) -> np.ndarray:
        """Parameter vector of a ladder model, given as `unpack` returns it."""
        w = np.maximum(weights, 1e-12)
        if self.variance_law:           # split the sigma ladder into its three components
            mean_var = float(np.mean(sig**2))
            floor = max(1e-3 * mean_var, 1e-9)
            v_elec, v_0, v_m = (_variance_components(sig, w)[0] if self.k >= 3
                                else (sig[0] ** 2, floor, floor))
            if v_m < floor and v_0 < floor:
                # A flat sigma ladder (one hand-written width) would strand the optimizer
                # with everything in the electronic term: spread the variance evenly.
                v_elec = v_0 = mean_var / 3.0
                v_m = mean_var / (1.5 * self.k)    # v_m times the mean i, k/2, is mean_var/3
            else:
                v_0, v_m = max(v_0, floor), max(v_m, floor)
            widths = [math.log(v_elec), math.log(v_0), math.log(v_m)]
        else:
            widths = list(np.log(sig))
        if self.poisson:                # no mu given: the weights' mean number
            shares = [math.log(max(float(np.sum(weights * self.idx)), 0.1) if mu is None else mu)]
        else:
            shares = list(np.log(w[1:] / w[0]))
        return np.array([x0, spacing, sat] + widths + shares)

    def unpack(self, p: np.ndarray):
        """-> (x0, spacing, sat, sigmas, weights, mu_or_None)"""
        x0, spacing, sat = p[0], p[1], p[2]
        sig, tail = _bounded_exp(p[3:3 + self.n_width]), p[3 + self.n_width:]
        if self.variance_law:
            sig = np.sqrt(self.var_parts @ sig)
        if self.poisson:
            mu = float(_bounded_exp(tail[0]))
            w = _normalized_exp(_poisson_log_pmf(mu, self.log_factorials))
            return x0, spacing, sat, sig, w, mu
        return x0, spacing, sat, sig, _normalized_exp(np.concatenate([[0.0], tail])), None

    def to_model(self, p: np.ndarray) -> MixtureModel:
        x0, spacing, sat, sig, w, mu = self.unpack(p)
        return MixtureModel.from_ladder(
            float(x0), float(spacing), float(sat), sig.tolist(), w.tolist(),
            constraint_kind=self.constraint, poisson_mu=mu)

    # -- objective and Jacobian ------------------------------------------

    def evaluate(self, p: np.ndarray):
        """-> (count residuals, objective, peak means, the arrays `jacobian` takes)"""
        x0, spacing, sat, sig, w, _ = self.unpack(p)
        means = x0 + spacing * self.idx + sat * self.neg_idx_sq
        pmat, z, phi = _interval_mass(self.edges, means, sig)
        mix = pmat @ w                                       # per-bin model mass
        r = self.counts - self.n_total * mix
        return r, float((self.wls * r * r).sum()), means, (pmat, z, phi, sig, w, mix)

    def jacobian(self, p: np.ndarray, pmat, z, phi, sig, w, mix) -> np.ndarray:
        n_width = self.n_width
        nw = self.n_total * w
        cols = np.empty((len(self.counts), self.n_params()))
        # d(bin mass)/d(mean) for each peak, times N w_i
        wdpdx = phi[:-1] - phi[1:]
        wdpdx /= sig
        wdpdx *= nw
        cols[:, 0] = wdpdx.sum(axis=1)                       # x0
        cols[:, 1] = wdpdx @ self.idx                        # spacing
        cols[:, 2] = wdpdx @ self.neg_idx_sq                 # sat

        # d(bin mass)/d(log sigma) for each peak, times N w_i
        zphi = z * phi
        wdpds = zphi[:-1] - zphi[1:]
        wdpds *= nw
        if self.variance_law:
            # d log sigma_i / d log v_j = v_j * (d sigma_i^2 / d v_j) / (2 sigma_i^2)
            v = _bounded_exp(p[3:6])
            wdpds = wdpds @ (self.var_parts * v[None, :] / (2.0 * sig[:, None] ** 2))
        # a log parameter at or past the clip does not move the model
        cols[:, 3:3 + n_width] = wdpds * (np.abs(p[3:3 + n_width]) < _LOG_CLIP)

        if self.poisson:
            ibar = float((w * self.idx).sum())
            cols[:, 3 + n_width] = self.n_total * (pmat @ (w * (self.idx - ibar)))
        else:
            dlogit = pmat[:, 1:] - mix[:, None]
            dlogit *= nw[1:]
            cols[:, 3 + n_width:] = dlogit
        return cols


def _bounded_exp(logp: np.ndarray) -> np.ndarray:
    # Keeps scale parameters finite when a trial step or an unidentifiable
    # (near-zero-weight) peak sends a log parameter running.
    return np.exp(np.minimum(np.maximum(logp, -_LOG_CLIP), _LOG_CLIP))


def _window_excess(means: np.ndarray, edges: np.ndarray) -> float:
    """Distance by which peak centres overshoot the widened data window.

    Zero while every mean lies within one histogram span of the data.
    """
    lo, hi, m = edges[0], edges[-1], means.tolist()
    span = hi - lo
    return max(0.0, (lo - span) - min(m)) + max(0.0, max(m) - (hi + span))


def _trial(prob: _Problem, p: np.ndarray, obj: float, excess: float):
    """(p, residuals, objective, `jacobian` arrays, window excess) at `p` if it
    is an acceptable step from a point at `obj` and `excess`, else None."""
    try:
        r, obj2, means, parts = prob.evaluate(p)
    except (FloatingPointError, ValueError, OverflowError):
        return None
    excess2 = _window_excess(means, prob.edges)
    # A peak centre drifting further than a full histogram width beyond the
    # data is runaway along a near-flat direction, not progress: the data can
    # never pull it back.  Steps that move back toward the window stay allowed.
    if excess2 > excess or not math.isfinite(obj2) or obj2 >= obj:
        return None
    return p, r, obj2, parts, excess2


# ---------------------------------------------------------------------------
# the damped least-squares loop
# ---------------------------------------------------------------------------

def fit_spectrum(hist: Histogram, cfg: FitConfig) -> FitReport:
    """Fit the histogram under the configured constraint regime.

    Non-convergence is reported, never silently swallowed: the report comes
    back with converged=False after max_iterations, or after a dead-end
    damping escalation that a "stalled: " warning names, and the model is
    the best point reached.
    """
    if hist.counts.sum() == 0:
        raise FitSetupError("histogram has no counts")
    init = cfg.init
    if init is not None and isinstance(cfg.n_peaks, int) and cfg.n_peaks != init.n_peaks:
        raise FitSetupError(
            f"n_peaks={cfg.n_peaks} conflicts with explicit init of {init.n_peaks} peaks")
    start = _guess(hist, cfg.n_peaks) if init is None else (
        init.x0, init.spacing, init.sat, init.std_devs(), init.weights(), init.poisson_mu)
    k = len(start[3])
    if k < 2:
        raise FitSetupError("need at least 2 peaks to fit")
    prob = _Problem(hist, cfg.constraint, k)
    n_params = prob.n_params()
    nonempty = int((hist.counts > 0).sum())
    if nonempty < 4 * n_params:
        raise FitSetupError(
            f"{nonempty} nonempty bins cannot support {n_params} free parameters "
            f"(need at least {4 * n_params})")

    warnings = []
    p = prob.pack(*start)
    r, obj, means, parts = prob.evaluate(p)

    excess = _window_excess(means, prob.edges)
    lam = 1e-3
    scale = t_last = 1.0        # the next trial is p + scale * step
    rates = []                  # 1 - q of the last three accepted steps
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        if obj == 0.0:
            converged = True
            break
        jac = prob.jacobian(p, *parts)
        if iterations == 1:
            sv = np.linalg.svd(jac * np.sqrt(prob.wls)[:, None], compute_uv=False)
            if sv[-1] < 1e-10 * sv[0]:
                warnings.append(
                    "rank_deficient: the data cannot constrain all "
                    f"{n_params} parameters (singular value ratio {sv[-1] / sv[0]:.1e}); "
                    "consider fewer peaks")
        jw = jac * prob.wls[:, None]
        hess = jac.T @ jw
        grad = jw.T @ r
        diag = hess.diagonal()
        if not diag.min() > 0:      # also when NaN
            diag = diag.copy()
            diag[diag <= 0] = max(1e-12 * diag.max(), 1e-300)

        while lam <= 1e12:
            damped = hess.copy()
            damped.flat[::n_params + 1] += lam * diag
            try:
                step = np.linalg.solve(damped, grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = _trial(prob, p + scale * step, obj, excess)
            if trial is not None:
                break
            scale = 1.0
            lam *= 10.0
        else:                       # no damping gives an acceptable step
            warnings.append(f"stalled: no damping up to 1e12 lowers the objective "
                            f"{obj:.10g} at iteration {iterations}")
            break
        # Along p + t step the objective is obj - 2 t slope + curve t^2: the
        # slope is exact and the drop measured at t = scale fixes the curve.
        # unit_drop is its drop at t = 1, the measured one when scale is 1.
        slope, dec = grad @ step, step @ (2.0 * grad - hess @ step)
        unit_drop = (obj - trial[2]) / scale ** 2 + 2.0 * slope * (scale - 1.0) / scale
        curve = 2.0 * slope - unit_drop
        # next t: the nearer of this ray's and the last ray's minima, scaled
        # only near the optimum (module docstring)
        t_min = slope / curve if curve > 0 and dec < 1.0 and lam <= 1e-4 else 1.0
        scale, t_last = min(max(min(t_min, t_last), 1.0), 8.0), t_min
        p, r, obj, parts, excess = trial
        if lam > 1e-4 and dec < cfg.tolerance ** 2:
            # a step damped this much understates g.H^+g; the pseudo-inverse
            # passes over a clipped log parameter's zero column.  As
            # |H_ij| <= sqrt(H_ii H_jj), H_ij s_j <= sqrt(H_ii) and H_ij s_j s_i
            # <= 1 stay finite where s_i s_j overflows for tiny diagonals
            s = 1.0 / np.sqrt(diag)
            dec = (s * grad) @ np.linalg.pinv(hess * s * s[:, None], hermitian=True) @ (s * grad)
        # unit_drop = (1+q) d^2 measures q along this ray alone; the largest
        # q of the last three steps stands for the slowest direction's
        rates = rates[-2:] + [min(1.0, 2.0 - unit_drop / dec) if dec > 0 else 1.0]
        if dec > 0 and math.sqrt(dec) < cfg.tolerance * min(rates):
            converged = True
            break
        lam = max(lam / 10.0, 1e-12)

    return FitReport(model=prob.to_model(p), objective=obj, iterations=iterations,
                     converged=converged, warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def report_to_json(report: FitReport) -> dict:
    model = report.model
    doc = {
        "constraint": model.constraint_kind.value,
        "x0": model.x0,
        "delta": model.spacing,
        "sat": model.sat,
        "peaks": [
            {"i": pk.index, "mean": pk.mean, "std": pk.std_dev, "weight": pk.weight}
            for pk in model.peaks
        ],
        "objective": report.objective,
        "converged": report.converged,
        "iterations": report.iterations,
    }
    if model.poisson_mu is not None:
        doc["mu"] = model.poisson_mu
    if report.warnings:
        doc["warnings"] = list(report.warnings)
    return doc


def report_from_json(doc: dict) -> FitReport:
    """Rebuild a report from its JSON form.

    Peak means in the document are authoritative; the ladder description is
    recomputed, which reproduces the stored (x0, delta, sat) exactly for
    fitter-produced documents and gives the least-squares description for
    hand-written ones.
    """
    try:
        peaks = doc["peaks"]
        if not peaks:
            raise ValueError("empty peaks list")
        warnings = doc.get("warnings", [])
        if not (isinstance(warnings, list) and all(isinstance(w, str) for w in warnings)):
            raise TypeError(f"warnings must be a list of strings, got {warnings!r}")
        objective = doc.get("objective", math.nan)
        if not isinstance(objective, float):    # JSON's NaN and Infinity read as floats
            _finite("objective", objective)
        converged = doc.get("converged", False)
        if not isinstance(converged, bool):
            raise TypeError(f"converged must be true or false, got {converged!r}")
        model = MixtureModel.from_peaks(
            [pk["mean"] for pk in peaks], [pk["std"] for pk in peaks],
            [pk["weight"] for pk in peaks], Constraint.parse(doc["constraint"]),
            poisson_mu=doc.get("mu"))
        return FitReport(
            model=model,
            objective=float(objective),
            iterations=_whole("iterations", doc.get("iterations", 0), 0),
            converged=converged,
            warnings=tuple(warnings),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FitSetupError(f"malformed fit report: {exc}") from exc

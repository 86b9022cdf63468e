"""Constrained Gaussian-mixture fitting of pulse-area histograms.

The objective is binned weighted least squares,

    sum_b w_b * (count_b - N * p_model(bin_b))^2,   w_b = 1 / max(count_b, 1),

with the bin probability computed as the Gaussian CDF difference across the
bin (correct for wide bins, unlike a midpoint-density approximation).  The
minimizer is a damped (Levenberg-Marquardt style) iteration: damping scales
x10 on a rejected step and /10 on an accepted one, and a step is never
accepted if it increases the objective.

Three constraint regimes, all sharing the mean ladder x_i = x0 + i*D - i^2*a:

  FREE_WEIGHTS_FREE_SIGMAS : per-peak sigmas free, weights free on the simplex
  POISSON_WEIGHTS          : weights pinned to a renormalized Poisson pmf (mu free)
  LINEAR_VARIANCE          : sigma_i^2 = v_elec + v_0*[i>0] + i*v_M, weights free

Each regime pairs a width law (K log sigmas, or the three log variance
components) with a weight law (softmax logits with the first pinned to 0, or
log mu).  Log parameters keep scales positive.  Every Jacobian column is
analytic: d(bin mass)/d log sigma_i is the difference of z*phi(z) across the
bin, and the variance components reach it by the chain rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Constraint, Histogram, MixtureModel, _finite, _interval_mass,
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
    tolerance: float = 1e-9
    init: MixtureModel | None = None

    def __post_init__(self):
        _finite("tolerance", self.tolerance, above=0)
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
    x0 sits on the first maximum, the spacing is the median gap between
    successive maxima, all sigmas start at spacing/4, and weights are the
    count mass between region midpoints.  `n_peaks` follows FitConfig's rule
    ("auto" or a whole number >= 2); with "auto" the model gets two more
    peaks than maxima found (weak high-number peaks rarely clear the
    prominence cut).
    """
    k = _peak_count(n_peaks)
    counts = hist.counts.astype(float)
    if len(counts) < 3:
        raise FitSetupError("histogram has too few bins for an automatic guess")
    smoothed = np.convolve(counts, np.ones(_SMOOTH_BINS) / _SMOOTH_BINS, mode="same").tolist()
    gmax = max(smoothed)
    if gmax <= 0:
        raise FitSetupError("histogram is empty; provide an explicit initial model")
    # Scan runs of equal smoothed counts as single candidates: a symmetric
    # peak can tie two adjacent bins after averaging, and a bin-by-bin
    # strict comparison would drop it entirely.  (A list: numpy scalars are slow.)
    prominent = []
    n = len(smoothed)
    a = 0
    while a < n:
        b = a
        while b + 1 < n and smoothed[b + 1] == smoothed[a]:
            b += 1
        run_is_max = (a > 0 and b < n - 1
                      and smoothed[a] > smoothed[a - 1]
                      and smoothed[b] > smoothed[b + 1]
                      and smoothed[a] > _PROMINENCE * gmax)
        if run_is_max:
            prominent.append((a + b) // 2)
        a = b + 1
    prominent = np.asarray(prominent, dtype=int)
    if len(prominent) < 2:
        raise FitSetupError(
            f"found {len(prominent)} prominent maxima; need at least 2 — "
            "provide an explicit initial model")
    centers = hist.centers[prominent]
    x0 = float(centers[0])
    spacing = float(np.median(np.diff(centers)))
    k = len(prominent) + 2 if k == "auto" else k

    # mass between midpoints of the guessed ladder -> starting weights
    ladder = x0 + spacing * np.arange(k)
    cuts = np.concatenate([[-np.inf], 0.5 * (ladder[:-1] + ladder[1:]), [np.inf]])
    idx = np.searchsorted(hist.centers, cuts)
    cum = np.concatenate([[0.0], np.cumsum(counts)])
    mass = np.maximum(cum[np.clip(idx[1:], 0, len(counts))] -
                      cum[np.clip(idx[:-1], 0, len(counts))], 0.0)
    weights = np.maximum(mass / max(mass.sum(), 1.0), 1e-6)
    weights /= weights.sum()

    sigmas = np.full(k, spacing / 4.0)
    return MixtureModel.from_ladder(x0, spacing, 0.0, sigmas, weights)


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
        self.variance_law = constraint is Constraint.LINEAR_VARIANCE
        self.poisson = constraint is Constraint.POISSON_WEIGHTS
        self.n_width = 3 if self.variance_law else k
        self.log_factorials = _log_factorials(k)
        self.var_parts = _variance_parts(k)

    # -- layout ---------------------------------------------------------

    def n_params(self) -> int:
        return 3 + self.n_width + (1 if self.poisson else self.k - 1)

    def pack(self, model: MixtureModel) -> np.ndarray:
        k = self.k
        head = [model.x0, model.spacing, model.sat]
        w = np.maximum(model.weights(), 1e-12)
        logits = list(np.log(w[1:] / w[0]))
        sig = model.std_devs()
        if self.constraint is Constraint.FREE_WEIGHTS_FREE_SIGMAS:
            return np.array(head + list(np.log(sig)) + logits)
        if self.constraint is Constraint.POISSON_WEIGHTS:
            mu = model.poisson_mu
            if mu is None or mu <= 0:
                mu = max(float(np.sum(model.weights() * self.idx)), 0.1)
            return np.array(head + list(np.log(sig)) + [math.log(mu)])
        # LINEAR_VARIANCE: split the sigma ladder into its three components
        mean_var = float(np.mean(sig**2))
        floor = max(1e-3 * mean_var, 1e-9)
        if k >= 3:
            v_elec, v_0, v_m = _variance_components(sig, w)[0]
        else:
            v_elec, v_0, v_m = sig[0] ** 2, floor, floor
        if v_m < floor and v_0 < floor:
            # Flat sigma ladder (typical of a fresh init): a floor-sized slope
            # leaves the optimizer stranded with everything in the electronic
            # term, so spread the variance evenly across the components.
            v_elec = v_0 = mean_var / 3.0
            v_m = mean_var / (1.5 * k)       # v_m times the mean i, k/2, is mean_var/3
        else:
            v_0, v_m = max(v_0, floor), max(v_m, floor)
        return np.array(head + [math.log(v_elec), math.log(v_0), math.log(v_m)] + logits)

    def unpack(self, p: np.ndarray):
        """-> (x0, spacing, sat, sigmas, weights, mu_or_None)"""
        x0, spacing, sat = p[0], p[1], p[2]
        width, tail = p[3:3 + self.n_width], p[3 + self.n_width:]
        if self.variance_law:
            sig = np.sqrt(self.var_parts @ _bounded_exp(width))
        else:
            sig = _bounded_exp(width)
        if self.poisson:
            mu = float(_bounded_exp(tail[0]))
            w = _normalized_exp(_poisson_log_pmf(mu, self.log_factorials))
            return x0, spacing, sat, sig, w, mu
        return x0, spacing, sat, sig, _normalized_exp(np.concatenate([[0.0], tail])), None

    def to_model(self, p: np.ndarray) -> MixtureModel:
        x0, spacing, sat, sig, w, mu = self.unpack(p)
        return MixtureModel.from_ladder(
            float(x0), float(spacing), float(sat), sig, w,
            constraint_kind=self.constraint, poisson_mu=mu)

    # -- objective and Jacobian ------------------------------------------

    def counts_model(self, p: np.ndarray):
        """-> (model counts, peak means, the arrays `jacobian` takes after p)"""
        x0, spacing, sat, sig, w, _ = self.unpack(p)
        means = x0 + spacing * self.idx + sat * self.neg_idx_sq
        pmat, z, phi = _interval_mass(self.edges, means, sig)
        return self.n_total * (pmat @ w), means, (pmat, z, phi, sig, w)

    def evaluate(self, p: np.ndarray):
        """-> (count residuals, objective, peak means, the arrays `jacobian` takes)"""
        m, means, parts = self.counts_model(p)
        r = self.counts - m
        return r, float(np.sum(self.wls * r * r)), means, parts

    def jacobian(self, p: np.ndarray, pmat, z, phi, sig, w) -> np.ndarray:
        n_width = self.n_width
        cols = np.empty((len(self.counts), self.n_params()))
        # d(bin mass)/d(mean) for each peak
        dpdx = (phi[:-1, :] - phi[1:, :]) / sig[None, :]
        wdpdx = self.n_total * w[None, :] * dpdx
        cols[:, 0] = wdpdx.sum(axis=1)                       # x0
        cols[:, 1] = wdpdx @ self.idx                        # spacing
        cols[:, 2] = wdpdx @ self.neg_idx_sq                 # sat

        # d(bin mass)/d(log sigma) for each peak
        zphi = z * phi
        wdpds = self.n_total * w[None, :] * (zphi[:-1, :] - zphi[1:, :])
        if self.variance_law:
            # d log sigma_i / d log v_j = v_j * (d sigma_i^2 / d v_j) / (2 sigma_i^2)
            v = _bounded_exp(p[3:6])
            wdpds = wdpds @ (self.var_parts * v[None, :] / (2.0 * sig[:, None] ** 2))
        # a log parameter at or past the clip does not move the model
        cols[:, 3:3 + n_width] = wdpds * (np.abs(p[3:3 + n_width]) < _LOG_CLIP)

        if self.poisson:
            ibar = float(np.sum(w * self.idx))
            cols[:, 3 + n_width] = self.n_total * (pmat @ (w * (self.idx - ibar)))
        else:
            mix = pmat @ w                                   # per-bin model mass
            cols[:, 3 + n_width:] = self.n_total * w[None, 1:] * (pmat[:, 1:] - mix[:, None])
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


_WIDTH_SCALES = (1.0, 0.5, 0.25, 0.125, 0.0625, 2.0)


def _best_width_scale(prob: _Problem, p: np.ndarray):
    """Coarse scan over a global peak-width multiplier before iterating.

    The automatic init sets every width to a quarter of the peak spacing;
    when the true peaks are much narrower than that, the damped iteration
    starts in a basin where fattening one component beats narrowing all of
    them.  A few objective evaluations at scaled widths put the start on the
    right side of that ridge.  Ties keep the unscaled start.  Returns the
    start and its `evaluate`.
    """
    sl = slice(3, 3 + prob.n_width)
    mult = 2.0 if prob.variance_law else 1.0  # variance parameters: scale by s**2
    best_p, best = p, None
    for s in _WIDTH_SCALES:
        q = p.copy()
        q[sl] = q[sl] + mult * math.log(s)
        ev = prob.evaluate(q)
        if math.isfinite(ev[1]) and (best is None or ev[1] < best[1]):
            best_p, best = q, ev
    return best_p, best or prob.evaluate(p)


# ---------------------------------------------------------------------------
# the damped least-squares loop
# ---------------------------------------------------------------------------

def fit_spectrum(hist: Histogram, cfg: FitConfig) -> FitReport:
    """Fit the histogram under the configured constraint regime.

    Non-convergence is reported, never silently swallowed: the report comes
    back with converged=False after max_iterations (or a dead-end damping
    escalation), and the model is the best point reached.
    """
    if hist.counts.sum() == 0:
        raise FitSetupError("histogram has no counts")
    init = cfg.init
    if init is None:
        init = init_guess(hist, cfg.n_peaks)
    elif isinstance(cfg.n_peaks, int) and cfg.n_peaks != init.n_peaks:
        raise FitSetupError(
            f"n_peaks={cfg.n_peaks} conflicts with explicit init of {init.n_peaks} peaks")
    k = init.n_peaks
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
    p = prob.pack(init)
    if cfg.init is None:
        p, (r, obj, means, parts) = _best_width_scale(prob, p)
    else:
        r, obj, means, parts = prob.evaluate(p)

    lam = 1e-3
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
        diag = hess.diagonal().copy()
        diag[diag <= 0] = max(1e-12 * diag.max(), 1e-300)
        excess = _window_excess(means, prob.edges)

        while lam <= 1e12:
            damped = hess.copy()
            damped.flat[::n_params + 1] += lam * diag
            try:
                step = np.linalg.solve(damped, grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_try = p + step
            try:
                r2, obj2, means2, parts2 = prob.evaluate(p_try)
            except (FloatingPointError, ValueError, OverflowError):
                lam *= 10.0
                continue
            if _window_excess(means2, prob.edges) > excess:
                # A peak centre drifting further than a full histogram width
                # beyond the data is runaway along a near-flat direction, not
                # progress: the data can never pull it back.  Steps that move
                # back toward the window stay allowed.
                lam *= 10.0
                continue
            if not math.isfinite(obj2) or obj2 >= obj:
                lam *= 10.0
                continue
            break
        else:
            break                   # no damping gives an acceptable step
        rel_drop = (obj - obj2) / max(obj, 1e-300)
        p, means, parts, r, obj = p_try, means2, parts2, r2, obj2
        lam = max(lam / 10.0, 1e-12)
        if rel_drop < cfg.tolerance:
            converged = True
            break

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
        converged = doc.get("converged", False)
        if not isinstance(converged, bool):
            raise TypeError(f"converged must be true or false, got {converged!r}")
        model = MixtureModel.from_peaks(
            [pk["mean"] for pk in peaks], [pk["std"] for pk in peaks],
            [pk["weight"] for pk in peaks], Constraint.parse(doc["constraint"]),
            poisson_mu=doc.get("mu"))
        return FitReport(
            model=model,
            objective=float(doc.get("objective", math.nan)),
            iterations=_whole("iterations", doc.get("iterations", 0), 0),
            converged=converged,
            warnings=tuple(warnings),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FitSetupError(f"malformed fit report: {exc}") from exc

"""Monte Carlo generation of pulse-area samples and spectra.

The generative chain per gate: Poisson photon arrivals, Bernoulli thinning
by the quantum efficiency, Poisson dark detections, optional dead-cell
saturation, then one Gaussian area draw whose mean and variance follow the
detection count d (`core._ladder`, the one spelling of both laws):

    mean = area_offset + d*gain - d^2*sat
    var  = electronic_noise_var + [d>0]*extra_per_photon_var + d*mult_noise_var

Summing d independent per-detection Gaussian gains and one electronics term
produces exactly this Gaussian, so the sampler draws the aggregate directly:
the per-count mean plus the per-count width times one normal draw.

Reproducibility: pulses are generated in fixed-size chunks, drawn in index
order, chunk k always from `core.substream(seed, k)`.  A seed therefore fixes
every byte of the output.
"""

from __future__ import annotations

import math
import os
import re
import stat
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .core import (_MAX_U64, DetectorModel, Histogram, _finite, _ladder, _log_factorials,
                   _poisson_log_pmf, _whole, substream)

__all__ = [
    "CHUNK_PULSES",
    "SimConfig",
    "CapacityError",
    "FormatError",
    "run",
    "histogram_from_areas",
    "write_pulses_csv",
    "read_pulses_csv",
    "write_histogram_csv",
    "read_histogram_csv",
]

CHUNK_PULSES = 8192          # substream granularity; fixed forever for reproducibility
MAX_PULSES = 10_000_000      # storage budget guard (~240 MB of records, held once)
MAX_BINS = 1_000_000         # histogram budget guard (16 MB of edges and counts)
MAX_POISSON_MEAN = 1e6       # draw table: mu + 12*sqrt(mu) + 20 entries; count tables +16 B each
MAX_CELL_DETECTIONS = 2_000_000  # expected detections in a chunk with cell_count set (~45 B each)
MAX_CELL_COUNT = (2**63 - 1) // CHUNK_PULSES  # a chunk's (pulse, cell) keys stay within int64
CSV_VERSION = "# pnr-lab v1"
_TABLE_ROWS = 4096           # rows per block of text a table writer holds

PULSE_DTYPE = np.dtype([
    ("true_incident", np.int64),   # photons arriving at the detector
    ("true_detected", np.int64),   # detections that fired, dark counts included
    ("area", np.float64),
])

_HISTOGRAM_DTYPE = np.dtype([
    ("bin_left", np.float64),
    ("bin_right", np.float64),
    ("count", np.int64),
])


class CapacityError(ValueError):
    """A run or histogram would exceed a memory budget: pulses, bins, a
    Poisson mean's draw table or the cell assignment of a chunk."""


class FormatError(ValueError):
    """A CSV file is not in the expected pnr-lab format."""


@dataclass(frozen=True)
class SimConfig:
    model: DetectorModel
    n_pulses: int
    seed: int
    bin_width: float | str = "auto"   # "auto" = gain/12

    def __post_init__(self):
        object.__setattr__(self, "n_pulses", _whole("n_pulses", self.n_pulses, 1))
        object.__setattr__(self, "seed", _whole("seed", self.seed, 0, _MAX_U64))
        if self.n_pulses > MAX_PULSES:
            raise CapacityError(
                f"n_pulses={self.n_pulses} exceeds the storage budget of {MAX_PULSES}")
        for name in ("mean_photon_number", "dark_rate_per_gate"):
            mu = getattr(self.model, name)
            if mu > MAX_POISSON_MEAN:
                raise CapacityError(
                    f"{name}={mu!r} exceeds the Poisson mean budget of {MAX_POISSON_MEAN:g}")
        if self.model.cell_count is not None:
            m = self.model
            if m.cell_count > MAX_CELL_COUNT:
                raise CapacityError(
                    f"cell_count={m.cell_count} exceeds the int64 key budget of {MAX_CELL_COUNT}")
            per_chunk = (m.mean_photon_number * m.quantum_efficiency
                         + m.dark_rate_per_gate) * CHUNK_PULSES
            if per_chunk > MAX_CELL_DETECTIONS:
                raise CapacityError(
                    f"cell_count saturation would assign {per_chunk:.3g} expected detections "
                    f"per {CHUNK_PULSES}-pulse chunk, over the budget of {MAX_CELL_DETECTIONS}")
        if isinstance(self.bin_width, str):
            if self.bin_width != "auto":
                raise ValueError(f"bin_width must be a positive number or 'auto', got {self.bin_width!r}")
        else:
            _finite("bin_width", self.bin_width, above=0)

    @property
    def resolved_bin_width(self) -> float:
        if self.bin_width == "auto":
            return self.model.gain_per_photon / 12.0
        return float(self.bin_width)


def _poisson_cdf(mu: float) -> np.ndarray:
    """Draw table for Poisson sampling by inversion: the CDF at 0, 1, ...,
    truncated at mu + 12*sqrt(mu) + 20, and [1.0] at mu = 0.

    The truncation leaves less than 1e-12 of probability mass outside the
    table for any mu, so the bias is far below anything observable.  `run`
    builds one table per mean and shares it across chunks.
    """
    if mu == 0.0:
        return np.ones(1)
    top = int(mu + 12.0 * math.sqrt(mu) + 20.0)
    return np.cumsum(np.exp(_poisson_log_pmf(mu, _log_factorials(top + 1))))


def _poisson_inverse(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    """n Poisson draws by CDF inversion against a `_poisson_cdf` table.
    Inversion keeps the draw count per pulse fixed at one uniform, which is
    what makes the substream layout stable."""
    return np.searchsorted(cdf, rng.random(n), side="left").astype(np.int64)


def _saturate(rng: np.random.Generator, detections: np.ndarray, cells: int) -> np.ndarray:
    """Dead-cell saturation: each detection claims a uniform random cell,
    and any detection landing on an already-claimed cell is lost."""
    total = int(detections.sum())
    if total == 0:
        return detections
    cell_ids = rng.integers(0, cells, size=total)
    pulse_ids = np.repeat(np.arange(len(detections), dtype=np.int64), detections)
    # one surviving detection per distinct (pulse, cell) pair
    surviving_pairs = np.unique(pulse_ids * cells + cell_ids)
    return np.bincount(surviving_pairs // cells, minlength=len(detections)).astype(np.int64)


def _sample_chunk(model: DetectorModel, rng: np.random.Generator, out: np.ndarray,
                  incident_cdf, dark_cdf, mean: np.ndarray, sd: np.ndarray) -> None:
    """Fill the records `out` in place from the `_poisson_cdf` tables of the two
    means and the per-count area `mean` and `sd`.  RNG call order is part of the
    format: incident Poisson, thinning binomial, dark Poisson, cells, area normal."""
    n = len(out)
    incident = _poisson_inverse(rng, incident_cdf, n)
    detected = (incident if model.quantum_efficiency == 1.0 else
                rng.binomial(incident, model.quantum_efficiency).astype(np.int64, copy=False))
    if model.dark_rate_per_gate > 0:
        detected = detected + _poisson_inverse(rng, dark_cdf, n)
    if model.cell_count is not None:
        detected = _saturate(rng, detected, model.cell_count)
    out["true_incident"] = incident
    out["true_detected"] = detected
    out["area"] = mean[detected] + sd[detected] * rng.standard_normal(n)


def run(config: SimConfig, workers: int = 1):
    """Generate the full pulse set and its histogram.

    Returns (records, histogram), records a structured array with fields
    true_incident/true_detected/area, fixed by the seed.  Each area is the
    per-count mean plus the per-count width times a normal draw (`core._ladder`
    tables of every count the draw tables give), drawn chunk by chunk in order
    into one records array, held once.  `workers` is accepted and ignored.
    """
    m = config.model
    cdfs = _poisson_cdf(m.mean_photon_number), _poisson_cdf(m.dark_rate_per_gate)
    mean, var = _ladder(len(cdfs[0]) + len(cdfs[1]) + 1, m.area_offset, m.gain_per_photon,
                        m.saturation_coeff, m.electronic_noise_var, m.extra_per_photon_var,
                        m.mult_noise_var)
    tables = *cdfs, mean, np.sqrt(var, out=var)
    records = np.empty(config.n_pulses, dtype=PULSE_DTYPE)
    for k, start in enumerate(range(0, config.n_pulses, CHUNK_PULSES)):
        _sample_chunk(m, substream(config.seed, k), records[start:start + CHUNK_PULSES], *tables)
    hist = histogram_from_areas(records["area"], config.resolved_bin_width)
    return records, hist


def histogram_from_areas(areas: np.ndarray, bin_width: float) -> Histogram:
    """Bin areas on a grid of the given width aligned to multiples of it.

    The grid covers every sample, so underflow/overflow are zero here; they
    exist on the type for histograms read from external files.  A grid
    beyond MAX_BINS bins is a CapacityError, raised before it is built.
    """
    areas = np.asarray(areas, dtype=float)
    if len(areas) == 0:
        raise ValueError("cannot histogram zero pulses")
    _finite("bin_width", bin_width, above=0)
    low, high = float(areas.min()), float(areas.max())
    if not (math.isfinite(low) and math.isfinite(high)):
        n_bad = np.count_nonzero(~np.isfinite(areas))
        raise ValueError(f"cannot histogram non-finite areas: {n_bad} of {len(areas)}")
    # the grid's size, to within a bin, before it is built: NaN or inf where
    # an area's grid index overflows a float
    n_bins = high / bin_width - low / bin_width + 1.0
    if not n_bins <= MAX_BINS:
        raise CapacityError(f"areas {low!r} to {high!r} need {n_bins:.3g} bins of width "
                            f"{bin_width!r}, over the histogram budget of {MAX_BINS}")
    lo = math.floor(low / bin_width) * bin_width
    n_bins = int(math.floor((high - lo) / bin_width)) + 1
    edges = lo + bin_width * np.arange(n_bins + 1)
    # in blocks of 4*CHUNK_PULSES rows, measured fastest: np.histogram's copy
    # and sort of its input stay one block long, and the sum is exact
    counts = sum(np.histogram(areas[i:i + 4 * CHUNK_PULSES], bins=edges)[0]
                 for i in range(0, len(areas), 4 * CHUNK_PULSES))
    return Histogram(edges, counts, total_pulses=len(areas))


# ---------------------------------------------------------------------------
# CSV exchange formats (versioned)
# ---------------------------------------------------------------------------

def write_table(path, header: str, specs, *columns) -> None:
    """Write a pnr-lab v1 table: the version line, `header` (one or more
    lines), then the aligned 1-D `columns`, one line per row, each column by
    its format spec in `specs` ("r" for repr).  A block of _TABLE_ROWS rows at
    a time is formatted column by column and its strings joined into rows, so
    the text held stays bounded.  tolist() yields Python scalars, so an "r"
    float is the shortest string that parses back to the same float: files
    round-trip exactly."""
    columns = [np.asarray(c) for c in columns]
    formats = [repr if spec == "r" else f"{{:{spec}}}".format for spec in specs]
    with open(path, "w") as fh:
        fh.write(f"{CSV_VERSION}\n{header}\n")
        for start in range(0, len(columns[0]), _TABLE_ROWS):
            text = [_strings(c[start:start + _TABLE_ROWS], f) for c, f in zip(columns, formats)]
            fh.write("\n".join(map(",".join, zip(*text))) + "\n")


def _strings(block: np.ndarray, fmt):
    """`fmt` over a column block, formatting each distinct whole number once."""
    values = block.tolist()
    if block.dtype.kind in "iu":
        fmt = {v: fmt(v) for v in set(values)}.__getitem__
    return map(fmt, values)


def write_pulses_csv(path, records: np.ndarray) -> None:
    write_table(path, "true_incident,true_detected,area", ("", "", "r"),
                records["true_incident"], records["true_detected"], records["area"])


def read_pulses_csv(path) -> np.ndarray:
    with _open_table(path) as fh:
        header = fh.readline().strip()
        if header != "true_incident,true_detected,area":
            raise FormatError(f"{path}: unexpected pulse CSV header {header!r}")
        return _read_rows(fh, path, PULSE_DTYPE, skiprows=2)


def write_histogram_csv(path, hist: Histogram) -> None:
    write_table(path, f"# total_pulses={hist.total_pulses} underflow={hist.underflow} "
                      f"overflow={hist.overflow}\nbin_left,bin_right,count",
                ("r", "r", ""), hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts)


def read_histogram_csv(path) -> Histogram:
    meta = {"total_pulses": None, "underflow": 0, "overflow": 0}
    with _open_table(path) as fh:
        skiprows = 2  # the version line and the column header
        line = fh.readline()
        while line.startswith("#"):
            skiprows += 1
            for part in line[1:].split():
                if "=" in part:
                    key, _, val = part.partition("=")
                    if key in meta:
                        meta[key] = _count(path, key, val)
            line = fh.readline()
        if line.strip() != "bin_left,bin_right,count":
            raise FormatError(f"{path}: unexpected histogram CSV header {line.strip()!r}")
        rows = _read_rows(fh, path, _HISTOGRAM_DTYPE, skiprows)
    if len(rows) == 0:
        raise FormatError(f"{path}: histogram has no bins")
    lefts, rights = rows["bin_left"], rows["bin_right"]
    gap = np.abs(rights[:-1] - lefts[1:]) > 1e-9 * np.maximum(1.0, np.abs(rights[:-1]))
    if gap.any():
        raise FormatError(f"{path}: bins are not contiguous near {float(rights[gap.argmax()])}")
    edges = np.append(lefts, rights[-1])
    counts = rows["count"]
    total = meta["total_pulses"]
    if total is None:
        total = int(counts.sum()) + meta["underflow"] + meta["overflow"]
    try:
        return Histogram(edges, counts, total_pulses=total,
                         underflow=meta["underflow"], overflow=meta["overflow"])
    except ValueError as exc:  # negative counts, non-increasing edges, ...
        raise FormatError(f"{path}: {exc}") from None


def _read_rows(fh, path, dtype, skiprows) -> np.ndarray:
    """Parse the body of a table as comma-separated rows of `dtype`.

    numpy's C reader parses the file at `path` in chunks, skipping the
    `skiprows` lines the caller has read from `fh`, when `path` still names
    the regular file `fh` reads: a pipe reopened would lose what `fh` has
    buffered, and a file replaced since would not be the one whose header
    was checked.  Otherwise, or if it refuses, the rest of `fh` goes through
    np.loadtxt line by line, with blank lines dropped: that pass reads the
    whitespace-only lines the C reader cannot, and gives every error its
    message.  A malformed row (wrong field count, unparsable or out-of-range
    value, a '#' line) is a FormatError naming the file.  An empty body is an
    empty array."""
    options = dict(delimiter=",", dtype=dtype, comments=None, ndmin=1)
    try:
        with warnings.catch_warnings():
            # numpy releases that still carry the 1.23 deprecation parse a
            # non-integer count such as "2.7", "1e3" or one beyond int64 as
            # a float, warn once and truncate; as an error the warning makes
            # loadtxt raise ValueError, so such a count is refused whatever
            # the caller's warning filters are
            warnings.simplefilter("error", DeprecationWarning)
            # on an empty body loadtxt warns and returns an empty array
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                st = os.fstat(fh.fileno())
                if stat.S_ISREG(st.st_mode) and os.path.samestat(st, os.stat(path)):
                    return np.loadtxt(os.fsdecode(path), skiprows=skiprows, **options)
            except Exception:
                # the C pass is only a fast path: whatever it refuses (a bad
                # row, a file descriptor, a .gz/.bz2/.xz name numpy would
                # decompress) the line pass reads or words the error for
                pass
            return np.loadtxt((line for line in fh if line.strip()), **options)
    except ValueError as exc:
        raise FormatError(f"{path}: bad row: {exc}") from None


def _count(path, key, text) -> int:
    """A histogram metadata value, read by the rule for a count row: an
    optional sign and ASCII digits, within int64."""
    value = int(text) if re.fullmatch(r"[+-]?[0-9]+", text) else None
    if value is None or not -2**63 <= value < 2**63:
        raise FormatError(f"{path}: bad {key} value {text!r}")
    return value


@contextmanager
def _open_table(path):
    """Open a table and check its version line.  Bytes that do not decode
    as text, such as a gzip-compressed file, are a FormatError."""
    try:
        with open(path) as fh:
            first = fh.readline().strip()
            if first != CSV_VERSION:
                raise FormatError(
                    f"{path}: missing or unsupported version header (expected "
                    f"{CSV_VERSION!r}, got {first!r})")
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text file: {exc}") from None

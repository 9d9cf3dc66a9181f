"""Error-rate curves, pessimistic tail envelopes, and threshold derivation.

The false accept rate at threshold t is the fraction of imposter scores at
or above t; the false reject rate is the fraction of genuine scores below t.
Finite samples understate tail risk, so each empirical curve gets a
pessimistic envelope built from two parts:

* a one-sided binomial upper confidence bound (default level 0.95) wherever
  the per-threshold event count is positive, and
* a straight line fitted to log10(rate) against t over the sparse region
  (empirical rates between 1/N and 100/N), extrapolated past the data.

Where counts exist the envelope is the larger of the two; beyond the data
only the extrapolation extends the curve. Without a usable fit region the
confidence bound stands alone and the result is flagged. A running-extremum
pass then forces the accept side nonincreasing and the reject side
nondecreasing, and values are clipped to [0, 1].

Operating thresholds for a requested error rate are read off these
envelopes: the candidate accept threshold is the lowest grid point whose
envelope is below the target, the candidate reject threshold the highest.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy import stats

from .decision_engine import ScoreBands

GENUINE_LABEL = "genuine"
IMPOSTER_LABEL = "imposter"


class UnachievableTargetError(RuntimeError):
    """The requested error rate cannot be met on the calibration data."""


@dataclass(frozen=True)
class LabeledScores:
    """Similarity samples split by ground truth; both classes non-empty."""

    genuine: np.ndarray
    imposter: np.ndarray

    def __post_init__(self) -> None:
        for name in ("genuine", "imposter"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"{name} scores must be a non-empty 1-d list")
            if not ((arr >= 0.0) & (arr <= 1.0)).all():
                raise ValueError(f"{name} scores must lie in [0, 1]")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class RateCurves:
    """Per-threshold rates over a uniform grid spanning [0, 1].

    far/frr are the empirical rates, pofa/pofr their pessimistic envelopes.
    The fallback flags record an envelope that had no usable fit region and
    consists of the confidence bound alone.
    """

    grid: np.ndarray
    far: np.ndarray
    frr: np.ndarray
    pofa: np.ndarray
    pofr: np.ndarray
    pofa_fallback: bool = False
    pofr_fallback: bool = False

    def _index(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.grid - t)))
        if abs(float(self.grid[idx]) - t) > 1e-9:
            raise ValueError(f"threshold {t!r} is not on the curve grid")
        return idx

    def far_at(self, t: float) -> float:
        return float(self.far[self._index(t)])

    def frr_at(self, t: float) -> float:
        return float(self.frr[self._index(t)])

    def pofa_at(self, t: float) -> float:
        return float(self.pofa[self._index(t)])

    def pofr_at(self, t: float) -> float:
        return float(self.pofr[self._index(t)])


def binomial_upper_bound(successes, trials: int, confidence: float = 0.95):
    """One-sided upper confidence bound for a binomial proportion.

    For k observed events in n trials, the smallest rate q such that seeing
    at most k events has probability <= 1 - confidence under q. Vectorized
    over k; k = n maps to 1.0.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    k = np.asarray(successes, dtype=float)
    if ((k < 0) | (k > trials)).any():
        raise ValueError("event counts must lie in [0, trials]")
    with np.errstate(invalid="ignore"):
        bound = stats.beta.ppf(confidence, k + 1.0, trials - k)
    return np.where(k >= trials, 1.0, bound)


def fit_log_tail(grid, rates, trials: int) -> tuple[float, float] | None:
    """Least-squares line through log10(rate) versus threshold.

    Fitted over the sparse-data region, rates within [1/trials, 100/trials].
    Returns (slope, intercept), or None when the region holds fewer than two
    grid points.
    """
    grid = np.asarray(grid, dtype=float)
    rates = np.asarray(rates, dtype=float)
    mask = (rates >= 1.0 / trials) & (rates <= 100.0 / trials)
    if np.count_nonzero(mask) < 2:
        return None
    slope, intercept = np.polyfit(grid[mask], np.log10(rates[mask]), 1)
    return float(slope), float(intercept)


@dataclass(frozen=True)
class Envelope:
    rates: np.ndarray
    fallback: bool


def pessimistic_envelope(grid, counts, trials: int, side: str,
                         confidence: float = 0.95) -> Envelope:
    """Pessimistic rate envelope over a threshold grid.

    counts holds the per-threshold event counts out of `trials`
    (exceedances for the accept side, misses for the reject side). The
    result is never below the empirical rate at any threshold and is
    monotone in the direction proper to its side.
    """
    if side not in ("accept", "reject"):
        raise ValueError(f"side must be 'accept' or 'reject', got {side!r}")
    grid = np.asarray(grid, dtype=float)
    counts = np.asarray(counts)
    empirical = counts / trials
    bound = binomial_upper_bound(counts, trials, confidence)
    line = fit_log_tail(grid, empirical, trials)
    if line is None:
        raw = bound
        fallback = True
    else:
        slope, intercept = line
        # cap the exponent: the line blows past 1.0 inside the data bulk
        exponent = np.minimum(slope * grid + intercept, 0.0)
        extrapolated = np.power(10.0, exponent)
        raw = np.where(counts > 0, np.maximum(bound, extrapolated),
                       extrapolated)
        fallback = False
    if side == "accept":
        mono = np.maximum.accumulate(raw[::-1])[::-1]
    else:
        mono = np.maximum.accumulate(raw)
    return Envelope(rates=np.clip(mono, 0.0, 1.0), fallback=fallback)


def empirical_curves(samples: LabeledScores, grid_step: float = 1e-4,
                     confidence: float = 0.95) -> RateCurves:
    """Rate curves for labeled scores on the grid {0, grid_step, ..., 1}."""
    if not 0.0 < grid_step <= 0.01:
        raise ValueError(f"grid_step must be in (0, 0.01], got {grid_step!r}")
    cells = round(1.0 / grid_step)
    if abs(cells * grid_step - 1.0) > 1e-9:
        raise ValueError(f"grid_step must divide 1, got {grid_step!r}")
    grid = np.linspace(0.0, 1.0, cells + 1)
    imposter = np.sort(samples.imposter)
    genuine = np.sort(samples.genuine)
    accept_counts = imposter.size - np.searchsorted(imposter, grid, side="left")
    reject_counts = np.searchsorted(genuine, grid, side="left")
    pofa = pessimistic_envelope(grid, accept_counts, imposter.size, "accept",
                                confidence)
    pofr = pessimistic_envelope(grid, reject_counts, genuine.size, "reject",
                                confidence)
    return RateCurves(grid=grid,
                      far=accept_counts / imposter.size,
                      frr=reject_counts / genuine.size,
                      pofa=pofa.rates, pofr=pofr.rates,
                      pofa_fallback=pofa.fallback,
                      pofr_fallback=pofr.fallback)


def derive_bands(curves: RateCurves, target: float) -> ScoreBands:
    """Operating thresholds meeting a target rate on the envelopes.

    The returned bands always satisfy pofa(p) < target and pofr(n) < target
    with n < p. When the candidate thresholds straddle (overlapping score
    distributions) they bound the uncertainty band directly; when the data
    is cleanly separated they are swapped, so the entire gap where both
    decisions would be safe is treated as uncertain; when they coincide the
    band widens by one grid step on each side.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target!r}")
    below_accept = np.nonzero(curves.pofa < target)[0]
    below_reject = np.nonzero(curves.pofr < target)[0]
    if below_accept.size == 0:
        raise UnachievableTargetError(
            f"target unachievable: no threshold has a pessimistic false "
            f"accept rate under {target:g}")
    if below_reject.size == 0:
        raise UnachievableTargetError(
            f"target unachievable: no threshold has a pessimistic false "
            f"reject rate under {target:g}")
    i_accept = int(below_accept[0])
    i_reject = int(below_reject[-1])
    if i_accept != i_reject:
        lo, hi = sorted((i_accept, i_reject))
    else:
        lo, hi = i_accept - 1, i_accept + 1
        if lo < 0 or hi >= curves.grid.size:
            raise UnachievableTargetError(
                "target unachievable: degenerate band at the grid edge")
    return ScoreBands(n=float(curves.grid[lo]), p=float(curves.grid[hi]),
                      target_rate=float(target))


@dataclass(frozen=True)
class ComfortReport:
    """Usability and safety rates at the operating thresholds.

    Discomfort counts users bounced for another attempt: genuine users whose
    score fell short of the accept threshold, and imposters who cleared the
    reject threshold. Safety is the complement of the error rate at the
    opposite threshold.
    """

    genuine_discomfort: float
    imposter_discomfort: float
    total_discomfort: float
    true_accept_safety: float
    false_reject_safety: float


def comfort_report(curves: RateCurves, bands: ScoreBands) -> ComfortReport:
    """Empirical comfort and safety rates at the given thresholds.

    Both thresholds must lie on the curve grid.
    """
    genuine_discomfort = curves.frr_at(bands.p)
    imposter_discomfort = curves.far_at(bands.n)
    return ComfortReport(
        genuine_discomfort=genuine_discomfort,
        imposter_discomfort=imposter_discomfort,
        total_discomfort=genuine_discomfort + imposter_discomfort,
        true_accept_safety=1.0 - curves.far_at(bands.p),
        false_reject_safety=1.0 - curves.frr_at(bands.n),
    )


# ---------------------------------------------------------------------------
# file formats


def read_scores_csv(path) -> LabeledScores:
    """Load a labeled-scores CSV with header pair_id,label,score."""
    genuine: list[float] = []
    imposter: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"pair_id", "label", "score"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected header pair_id,label,score")
        for row in reader:
            label = row["label"]
            if label == GENUINE_LABEL:
                genuine.append(float(row["score"]))
            elif label == IMPOSTER_LABEL:
                imposter.append(float(row["score"]))
            else:
                raise ValueError(
                    f"{path}: pair {row['pair_id']!r} has unknown label "
                    f"{label!r}")
    return LabeledScores(genuine=np.asarray(genuine),
                         imposter=np.asarray(imposter))


def write_scores_csv(path, rows) -> None:
    """Write (pair_id, label, score) rows with the standard header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["pair_id", "label", "score"])
        for pair_id, label, score in rows:
            writer.writerow([pair_id, label, repr(float(score))])


def write_curves_csv(curves: RateCurves, path) -> None:
    """Write per-threshold rates as t,far,frr,pofa,pofr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "far", "frr", "pofa", "pofr"])
        for i in range(curves.grid.size):
            writer.writerow([repr(float(curves.grid[i])),
                             repr(float(curves.far[i])),
                             repr(float(curves.frr[i])),
                             repr(float(curves.pofa[i])),
                             repr(float(curves.pofr[i]))])


def _bands_doc(bands: ScoreBands) -> dict[str, str]:
    """Bands as decimal strings, the form bands and gallery files share."""
    return {name: repr(float(value)) for name, value in asdict(bands).items()}


def _bands_from_doc(doc) -> ScoreBands:
    """Inverse of _bands_doc; KeyError or TypeError on a malformed doc."""
    return ScoreBands(*(float(doc[f.name]) for f in fields(ScoreBands)))


def bands_to_json(bands: ScoreBands) -> str:
    """Bands as JSON with decimal strings, byte-stable across runs."""
    return json.dumps(_bands_doc(bands), indent=2, sort_keys=True) + "\n"


def write_bands_json(bands: ScoreBands, path) -> None:
    with open(path, "w") as fh:
        fh.write(bands_to_json(bands))


def read_bands_json(path) -> ScoreBands:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return _bands_from_doc(doc)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a bands document ({exc})") from None

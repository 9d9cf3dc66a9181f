"""Error-rate curves, pessimistic tail envelopes, and threshold derivation.

The false accept rate at threshold t is the fraction of imposter scores at
or above t; the false reject rate is the fraction of genuine scores below t.
Finite samples understate tail risk, so each empirical curve gets a
pessimistic envelope built from two parts:

* a one-sided binomial upper confidence bound at the fixed level 0.95
  wherever the per-threshold event count is positive, and
* a straight line fitted to log10(rate) against t over the sparse region
  (empirical rates between 1/N and 100/N), extrapolated past the data.

Where counts exist the envelope is the larger of the two; where no event
was seen the extrapolated line alone sets it. Without a usable fit region
the confidence bound stands alone and the result is flagged. A
running-extremum pass then forces the accept side nonincreasing and the
reject side nondecreasing, and values are clipped to [0, 1].

Curves are tabulated on one fixed grid, 0 to 1 in steps of 1e-4.
Operating thresholds for a requested error rate are read off these
envelopes: the candidate accept threshold is the lowest grid point whose
envelope is below the target, the candidate reject threshold the highest.
"""

from __future__ import annotations

import csv
import json
import operator
import os
import stat
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, fields

import numpy as np

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
        if not abs(float(self.grid[idx]) - t) <= 1e-9:
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


def binomial_upper_bound(successes, trials: int):
    """One-sided 95% upper confidence bound for a binomial proportion.

    For k observed events in n trials, the smallest rate q such that seeing
    at most k events has probability <= 0.05 under q: the Clopper-Pearson
    limit, the 0.95 quantile of Beta(k + 1, n - k). Vectorized over k;
    k = n, where that Beta is undefined, maps to 1.0.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    k = np.asarray(successes, dtype=float)
    if (~((k >= 0) & (k <= trials))).any():
        raise ValueError("event counts must lie in [0, trials]")
    # imported here, not at the top: scipy adds about 300 modules to a
    # process, and of the package only this bound needs it
    from scipy.special import betaincinv
    return np.where(k >= trials, 1.0, betaincinv(k + 1.0, trials - k, 0.95))


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


def pessimistic_envelope(grid, counts, trials: int,
                         side: str) -> tuple[np.ndarray, bool]:
    """Pessimistic rate envelope over a threshold grid, and its fallback flag.

    counts holds the per-threshold event counts out of `trials`
    (exceedances for the accept side, misses for the reject side). The
    rates are never below the empirical rate at any threshold and are
    monotone in the direction proper to their side; the flag is true when
    no fit region existed and the confidence bound stands alone.
    """
    if side not in ("accept", "reject"):
        raise ValueError(f"side must be 'accept' or 'reject', got {side!r}")
    grid = np.asarray(grid, dtype=float)
    counts = np.asarray(counts)
    empirical = counts / trials
    bound = binomial_upper_bound(counts, trials)
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
    return np.clip(mono, 0.0, 1.0), fallback


def empirical_curves(samples: LabeledScores) -> RateCurves:
    """Rate curves for labeled scores on the grid {0, 0.0001, ..., 1}."""
    grid = np.linspace(0.0, 1.0, 10_001)
    imposter = np.sort(samples.imposter)
    genuine = np.sort(samples.genuine)
    accept_counts = imposter.size - np.searchsorted(imposter, grid, side="left")
    reject_counts = np.searchsorted(genuine, grid, side="left")
    pofa, pofa_fallback = pessimistic_envelope(
        grid, accept_counts, imposter.size, "accept")
    pofr, pofr_fallback = pessimistic_envelope(
        grid, reject_counts, genuine.size, "reject")
    return RateCurves(grid=grid,
                      far=accept_counts / imposter.size,
                      frr=reject_counts / genuine.size,
                      pofa=pofa, pofr=pofr,
                      pofa_fallback=pofa_fallback,
                      pofr_fallback=pofr_fallback)


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


@contextmanager
def atomic_write(path):
    """Open a UTF-8 text file that replaces path once the with-block succeeds.

    The text goes to a temporary file in path's directory, which os.replace
    moves over path when the with-block finishes. If the block raises, the
    temporary file is removed and path keeps its old bytes. A new file gets
    the permission bits open(path, "w") would give it; an existing file
    keeps its own. A symbolic link is followed, as open would, so the link
    stays and its target is replaced. A path that is not a regular file (a
    device such as /dev/null, a FIFO, /dev/stdout) is written in place, as
    open would: there is nothing to replace atomically, and replacing it
    would turn a device into a plain file. Newlines are not translated.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    path = os.path.realpath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


@contextmanager
def _reading(path, kind: str):
    """path opened as UTF-8 text; any error in the block but OSError, whose
    message names the file already, becomes a ValueError naming it."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except (json.JSONDecodeError, RecursionError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a {kind} document ({exc})") from None
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_scores_csv(path) -> LabeledScores:
    """Load a labeled-scores CSV.

    The header names pair_id, label and score in any order, beside any other
    columns; fields may use CSV quoting and blank lines are skipped. Each
    label must be genuine or imposter. Every fault is a ValueError that
    names the file; a malformed row's also names the line or pair.
    """
    genuine: list[float] = []
    imposter: list[float] = []
    by_label = {GENUINE_LABEL: genuine, IMPOSTER_LABEL: imposter}
    pick = None
    with _reading(path, "scores") as fh:
        reader = csv.reader(fh)
        try:
            columns = {name: k for k, name in enumerate(next(reader, []))}
            pick = operator.itemgetter(
                *(columns[name] for name in ("pair_id", "label", "score")))
            for pair_id, label, score in map(pick, filter(None, reader)):
                # by_label[label] runs before float(score), so a row with an
                # unknown label is named for its label
                by_label[label].append(float(score))
        except KeyError:   # a column missing from the header, or a label
            if pick is None:
                raise ValueError(
                    "expected header pair_id,label,score") from None
            raise ValueError(f"pair {pair_id!r} has unknown label "
                             f"{label!r}") from None
        except IndexError:
            raise ValueError(f"line {reader.line_num} has fewer fields than "
                             f"the header") from None
        except UnicodeDecodeError:
            raise   # decoded ahead of the parser, so line_num is not its line
        except (csv.Error, ValueError) as exc:
            # a field over the size limit, or a score that is not a float
            raise ValueError(f"line {reader.line_num}: {exc}") from None
        return LabeledScores(genuine=np.asarray(genuine),
                             imposter=np.asarray(imposter))


_BLOCK_ROWS = 1 << 16
_NEEDS_QUOTING = frozenset(',"\r\n')


def write_scores_csv(path, template_ids, i, j, genuine, scores) -> None:
    """Write labeled pairs as pair_id,label,score rows under that header.

    Row k is pair template_ids[i[k]]:template_ids[j[k]], labeled genuine
    where genuine[k] is true and imposter elsewhere, with score
    repr(float(scores[k])) (a negative zero is written as 0.0). Rows are
    formatted in blocks of _BLOCK_ROWS, so no full-length Python list is
    built. A template id that CSV would have to quote (one holding a comma,
    a double quote, CR or LF) raises ValueError before anything is written.
    """
    ids = list(template_ids)
    for t in ids:
        if not _NEEDS_QUOTING.isdisjoint(t):
            raise ValueError(f"template id {t!r} would need CSV quoting")
    columns = (np.asarray(i), np.asarray(j), np.asarray(genuine, dtype=bool),
               np.asarray(scores, dtype=float))
    if len({c.shape for c in columns}) != 1 or columns[0].ndim != 1:
        raise ValueError("pair columns must be 1-d and of equal length")
    labels = (f",{IMPOSTER_LABEL},", f",{GENUINE_LABEL},")
    reprs: dict[float, str] = {}
    with atomic_write(path) as fh:
        fh.write("pair_id,label,score\n")
        for start in range(0, columns[0].size, _BLOCK_ROWS):
            a, b, g, s = (c[start:start + _BLOCK_ROWS] for c in columns)
            # + 0.0 turns -0.0 into 0.0, which the repr memo cannot tell apart
            s = (s + 0.0).tolist()
            for x in set(s).difference(reprs):
                reprs[x] = repr(x)
            fh.write("".join([
                f"{ids[p]}:{ids[q]}{labels[y]}{reprs[x]}\n"
                for p, q, y, x in zip(a.tolist(), b.tolist(), g.tolist(), s)]))


def write_curves_csv(curves: RateCurves, path) -> None:
    """Write per-threshold rates as t,far,frr,pofa,pofr float reprs."""
    t, far, frr, pofa, pofr = (c.tolist() for c in (
        curves.grid, curves.far, curves.frr, curves.pofa, curves.pofr))
    with atomic_write(path) as fh:
        fh.write("t,far,frr,pofa,pofr\n")
        fh.write("".join([f"{t[k]!r},{far[k]!r},{frr[k]!r},{pofa[k]!r},"
                          f"{pofr[k]!r}\n" for k in range(len(t))]))


def _json_text(doc) -> str:
    """The JSON layout bands and gallery files share, byte-stable."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _bands_doc(bands: ScoreBands) -> dict[str, str]:
    """Bands as decimal strings, the form bands and gallery files share."""
    return {name: repr(float(value)) for name, value in asdict(bands).items()}


def _bands_from_doc(doc) -> ScoreBands:
    """Inverse of _bands_doc; KeyError or TypeError on a malformed doc."""
    return ScoreBands(*(float(doc[f.name]) for f in fields(ScoreBands)))


def bands_to_json(bands: ScoreBands) -> str:
    """Bands as JSON with decimal strings, byte-stable across runs."""
    return _json_text(_bands_doc(bands))


def write_bands_json(bands: ScoreBands, path) -> None:
    with atomic_write(path) as fh:
        fh.write(bands_to_json(bands))


def read_bands_json(path) -> ScoreBands:
    with _reading(path, "bands") as fh:
        return _bands_from_doc(json.load(fh))

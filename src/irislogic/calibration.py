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
import os
import stat
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, fields
from itertools import islice

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
    monotone in the direction proper to their side. The envelope is the
    confidence bound unless a tail line was fitted; then it is the larger
    of the two where events were counted, and the line alone where none
    was. The flag is true when no line was fitted (no fit region existed),
    so the bound stands alone.
    """
    if side not in ("accept", "reject"):
        raise ValueError(f"side must be 'accept' or 'reject', got {side!r}")
    grid = np.asarray(grid, dtype=float)
    counts = np.asarray(counts)
    empirical = counts / trials
    bound = binomial_upper_bound(counts, trials)
    line = fit_log_tail(grid, empirical, trials)
    raw = bound
    if line is not None:
        slope, intercept = line
        # cap the exponent: the line blows past 1.0 inside the data bulk
        exponent = np.minimum(slope * grid + intercept, 0.0)
        extrapolated = np.power(10.0, exponent)
        raw = np.where(counts > 0, np.maximum(bound, extrapolated),
                       extrapolated)
    if side == "accept":
        mono = np.maximum.accumulate(raw[::-1])[::-1]
    else:
        mono = np.maximum.accumulate(raw)
    return np.clip(mono, 0.0, 1.0), line is None


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
    for side, below in (("accept", below_accept), ("reject", below_reject)):
        if below.size == 0:
            raise UnachievableTargetError(
                f"target unachievable: no threshold has a pessimistic false "
                f"{side} rate under {target:g}")
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
    moves over path when the with-block finishes. The temporary file is
    created as open(path, "w") creates a file, so a new file gets the
    permission bits open would give it; an existing file's own are copied
    to it. One handle owns the temporary file from creation to close: if
    the block, the copy of the bits or the replace fails, the file is
    closed and removed, and path keeps its old bytes. A symbolic link is
    followed, as open would, so the link stays and its target is replaced.
    A path that is not a regular file (a device such as /dev/null, a FIFO,
    /dev/stdout) is written in place, as open would: there is nothing to
    replace atomically, and replacing it would turn a device into a plain
    file. Newlines are not translated.
    An OSError in creating, writing or replacing the file that names no file
    or the temporary one is raised again naming path as given, so a failed
    write names the file the caller asked for.
    """
    given, tmp = os.fspath(path), None
    try:
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
        fh = open(tmp, "x", encoding="utf-8", newline="")
        try:
            with fh:
                if mode is not None:
                    os.chmod(tmp, stat.S_IMODE(mode))
                yield fh
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.errno is None or exc.filename not in (None, tmp):
            raise
        raise OSError(exc.errno, exc.strerror, given) from None


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


#: the score-file dialect write_scores_csv and _scan_records share; numpy
#: reads the refused controls differently from Python (a label loses a NUL
#: at its end, and numpy's float parser strips U+001C..U+001F from a score)
_HEADER = ("pair_id", "label", "score")
_NEEDS_QUOTING = frozenset(',"\r\n')
_REFUSED_CONTROLS = frozenset("\x00\x1c\x1d\x1e\x1f")
#: _scan_records' class of each byte, 0 for content, as is every byte > _LAST
_SEP, _QUOTE, _REFUSED = 1, 2, 3
_CLASS = np.array([_QUOTE if c == '"' else _SEP if c in _NEEDS_QUOTING
                   else _REFUSED if c in _REFUSED_CONTROLS else 0
                   for c in map(chr, range(256))], dtype=np.uint8)
_LAST = max(map(ord, _NEEDS_QUOTING | _REFUSED_CONTROLS))
_SCAN_BYTES = 1 << 18
#: labels are read as Latin-1 bytes, one wider than the longest label, so
#: a longer label, cut to that width, still differs from both
_ROW = np.dtype([("label", (np.bytes_, 1 + max(
    len(GENUINE_LABEL), len(IMPOSTER_LABEL)))), ("score", "f8")])


def _line_of(fh, offset: int) -> int:
    """The 1-based line that holds the character at offset from the start of
    the text handle fh, where CR, LF and CRLF each end a line, as csv.reader
    counts lines."""
    fh.seek(0)
    text = fh.read(offset + 1)
    ends = text.count("\n") + text.count("\r") - text.count("\r\n")
    return 1 + ends - text.endswith(("\r", "\n"))


def _scan_records(fh, need: int) -> int:
    """Check the CSV layout of the text handle fh with array operations, from
    the start of its bytes (fh.buffer); return its record count.

    Splits the text into records and fields as csv.reader does, without
    building them: a double quote opens a quoted field only at the start of
    a field, "" inside one is a literal quote, and outside quotes a comma
    ends a field and CR, LF or CRLF a record; empty records are skipped and
    not counted. Raises ValueError naming the line for a record with fewer
    than need fields, a field longer than csv.field_size_limit(), or a
    character of _REFUSED_CONTROLS. Blocks of about _SCAN_BYTES end at a
    line feed, so no quote run or UTF-8 sequence spans two blocks.
    """
    limit = csv.field_size_limit()
    base = 0       # characters in the blocks before this one
    inside = 0     # 1 while in a quoted field
    prev = -1      # offset of the last separator outside quotes
    dropped = 0    # quote characters that are not field content, so far
    prev_dropped = 0   # the same, up to prev
    commas = 0     # separating commas since the last record ended
    records = 0
    faults = []
    raw = fh.buffer
    raw.seek(0)
    while not faults and (block := raw.read(_SCAN_BYTES) + raw.readline()):
        a = np.frombuffer(block, dtype=np.uint8)
        if a.max() >= 0x80:   # keep one byte per character
            a = a[(a & 0xC0) != 0x80]
        at = np.flatnonzero(a <= _LAST)   # every byte looked at below
        c = _CLASS[a[at]]
        control, quotes, sep = (at[c == k] for k in (_REFUSED, _QUOTE, _SEP))
        ends = a[sep] != ord(",")
        sep_dropped = np.full(sep.size, dropped)
        if quotes.size or inside:
            # a run of k quotes opens a field at its start (after a
            # separator) outside quotes, else is literal; inside quotes
            # it is k // 2 escaped quotes, and closes the field if k is
            # odd. So an odd run at a field start toggles the state, any
            # other odd run leaves it outside, and an even run keeps it.
            first = np.diff(quotes, prepend=-2) > 1
            start = quotes[first]
            k = np.diff(np.append(np.flatnonzero(first), quotes.size))
            opens = (start == 0) | (_CLASS[a[start - 1]] == _SEP)
            odd = k % 2 == 1
            toggles = np.cumsum(odd & opens)
            reset = np.maximum.accumulate(
                np.where(odd & ~opens, np.arange(k.size), -1))
            flips = np.where(reset >= 0, toggles - toggles[reset],
                             toggles + inside)
            # state[r] is 1 if the first r runs leave a quoted field open
            state = np.append(inside, flips % 2)
            not_content = np.where(state[:-1] == 1, k - k // 2,
                                   np.where(opens, k - (k - 1) // 2, 0))
            so_far = np.append(0, np.cumsum(not_content)) + dropped
            run = np.searchsorted(start, sep)
            out = state[run] == 0
            sep, ends, sep_dropped = sep[out], ends[out], so_far[run][out]
            inside, dropped = state[-1], so_far[-1]
        width = np.diff(sep, prepend=prev - base) - 1
        length = width - np.diff(sep_dropped, prepend=prev_dropped)
        end = np.flatnonzero(ends)
        fields = np.diff(end, prepend=-1 - commas)
        empty = (fields == 1) & (width[end] == 0)
        if control.size:
            faults.append((base + control[0], f" holds the control "
                           f"character {chr(a[control[0]])!r}"))
        over = length > limit
        if over.any():
            i = np.argmax(over)
            faults.append((base + sep[i] - width[i],
                           f": field larger than field limit ({limit})"))
        short = ~empty & (fields < need)
        if short.any():
            faults.append((base + sep[end[np.argmax(short)]],
                           " has fewer fields than the header"))
        records += end.size - np.count_nonzero(empty)
        commas = sep.size - 1 - end[-1] if end.size else commas + sep.size
        if sep.size:
            prev, prev_dropped = base + sep[-1], sep_dropped[-1]
        base += a.size
    width = base - prev - 1
    if not faults and (width or commas):   # a last record with no line end
        if width - (dropped - prev_dropped) > limit:
            faults.append((prev + 1,
                           f": field larger than field limit ({limit})"))
        elif commas + 1 < need:
            faults.append((base - 1, " has fewer fields than the header"))
        records += 1
    if faults:
        offset, fault = min(faults)
        raise ValueError(f"line {_line_of(fh, offset)}{fault}")
    return records


def read_scores_csv(path) -> LabeledScores:
    """Load a labeled-scores CSV.

    The header names pair_id, label and score in any order, beside any other
    columns; fields may use CSV quoting and blank lines are skipped. Each
    label must be genuine or imposter. The file is opened once, and every
    step reads that one handle from its start, so each reads the same
    bytes: the header is one csv.reader record; _scan_records checks the
    layout; numpy's C parser then reads the label and score columns after
    the header in one np.loadtxt pass; and the first unknown label is
    named from its own csv.reader record. A handle that cannot seek, such
    as a pipe, is refused by its own seek (io.UnsupportedOperation, a
    ValueError). Every fault is a ValueError that names the file; a
    malformed row's also names the line, the pair, or numpy's data row
    (counted from 0, blank lines not counted).
    """
    with _reading(path, "scores") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
        except csv.Error as exc:   # a header field over the size limit
            raise ValueError(f"line {reader.line_num}: {exc}") from None
        columns = {name: k for k, name in enumerate(header)}
        try:
            pair, label, score = (columns[name] for name in _HEADER)
        except KeyError:
            raise ValueError(f"expected header {','.join(_HEADER)}") from None
        rows = np.empty(0, dtype=_ROW)
        if _scan_records(fh, max(pair, label, score) + 1) > 1:
            fh.seek(0)
            next(csv.reader(fh))
            rows = np.loadtxt(fh, dtype=_ROW, delimiter=",", quotechar='"',
                              comments=None, usecols=(label, score), ndmin=1)
        genuine = rows["label"] == GENUINE_LABEL.encode()
        imposter = rows["label"] == IMPOSTER_LABEL.encode()
        unknown = np.flatnonzero(~(genuine | imposter))
        if unknown.size:
            # the scan refused records shorter than the header, so numpy
            # skips blank lines alone: its data row r is non-empty record r+1
            fh.seek(0)
            record = next(islice(filter(None, csv.reader(fh)),
                                 unknown[0] + 1, None))
            raise ValueError(f"pair {record[pair]!r} has unknown label "
                             f"{record[label]!r}")
        return LabeledScores(genuine=rows["score"][genuine],
                             imposter=rows["score"][imposter])


_BLOCK_ROWS = 1 << 16
#: a block holds fewer rows when its ids are so long that _BLOCK_ROWS
#: rows, padded to the longest pair of ids, would take more bytes
_BLOCK_BYTES = 1 << 22


def write_scores_csv(path, template_ids, i, j, genuine, scores) -> None:
    """Write labeled pairs as rows under _HEADER: pair_id, label, score.

    Row k is pair template_ids[i[k]]:template_ids[j[k]], labeled genuine
    where genuine[k] is true and imposter elsewhere, with score
    repr(float(scores[k])) (a negative zero is written as 0.0). The ids are
    str. Rows are built in blocks of at most _BLOCK_ROWS by array
    operations, so no full-length object is built and no Python loop runs
    over rows: each row gathers its three pieces, id:, id and
    ,label,score, from byte tables of the templates and of the block's
    distinct (label, score) pairs, joins them into fixed-width rows and
    drops every NUL byte, all of them padding: UTF-8 writes 0x00 only for
    U+0000, which no id may hold, and labels and score reprs are ASCII.

    Nothing is written, and ValueError is raised, for a file the reader
    would refuse or misread: a template id holding a character CSV would
    have to quote (_NEEDS_QUOTING) or one _scan_records refuses
    (_REFUSED_CONTROLS), non-empty i or j columns that are not of an
    integer (or bool) dtype, an index outside [0, len(template_ids)), which
    np.take would wrap or fail on mid-write, a non-empty genuine column
    that is not of a bool or integer dtype or holds an integer other than 0
    and 1, a score outside [0, 1] or NaN, or a pair whose pair_id would be
    longer than csv.field_size_limit(). An index, genuine or score refusal
    names the first bad row and its value. These refusals run once on whole
    columns; blocks are cut in the write loop.
    """
    ids = list(template_ids)
    for t in ids:
        if not _NEEDS_QUOTING.isdisjoint(t):
            raise ValueError(f"template id {t!r} would need CSV quoting")
        if refused := _REFUSED_CONTROLS.intersection(t):
            raise ValueError(f"template id {t!r} holds the control "
                             f"character {min(refused)!r}")
    a, b, g, s = (np.asarray(i), np.asarray(j), np.asarray(genuine),
                  np.asarray(scores, dtype=float))
    if len({c.shape for c in (a, b, g, s)}) != 1 or a.ndim != 1:
        raise ValueError("pair columns must be 1-d and of equal length")
    if a.size and not (a.dtype.kind in "biu" and b.dtype.kind in "biu"):
        raise ValueError(f"row 0: pair indices ({a.item(0)!r}, "
                         f"{b.item(0)!r}) are not integers")
    outside = (a < 0) | (a >= len(ids)) | (b < 0) | (b >= len(ids))
    if outside.any():
        r = int(np.argmax(outside))
        raise ValueError(f"row {r}: pair indices ({a.item(r)}, {b.item(r)}) "
                         f"are not both in [0, {len(ids)})")
    if g.size and g.dtype.kind not in "biu":
        raise ValueError(f"row 0: genuine flag {g.item(0)!r} is not a bool "
                         f"or an integer")
    outside = (g != 0) & (g != 1)
    if outside.any():
        r = int(np.argmax(outside))
        raise ValueError(f"row {r}: genuine flag {g.item(r)!r} is not 0 or 1")
    outside = ~((s >= 0.0) & (s <= 1.0))   # NaN fails both comparisons
    if outside.any():
        r = int(np.argmax(outside))
        raise ValueError(f"row {r}: score {s.item(r)!r} is not in [0, 1]")
    limit = csv.field_size_limit()
    widths = np.array([len(t) for t in ids], dtype=np.int64)
    if 2 * widths.max(initial=0) + 1 > limit:   # a pair may be too long
        over = np.take(widths, a) + np.take(widths, b) + 1 > limit
        if over.any():
            k = np.argmax(over)
            raise ValueError(f"the pair_id of templates {a[k]} and {b[k]} "
                             f"would be longer than the field limit ({limit})")
    tail = np.array([t.encode() for t in ids], dtype="S")
    head = np.strings.add(tail, b":")
    step = max(1, min(_BLOCK_ROWS,
                      _BLOCK_BYTES // (head.itemsize + tail.itemsize)))
    labels = (f",{IMPOSTER_LABEL},", f",{GENUINE_LABEL},")
    columns = (a, b, g.astype(bool), s)
    with atomic_write(path) as fh:
        out = fh.buffer
        out.write(f"{','.join(_HEADER)}\n".encode())
        for start in range(0, columns[0].size, step):
            a, b, g, s = (c[start:start + step] for c in columns)
            # + 0.0 turns -0.0 into 0.0, so every zero is written 0.0
            distinct, which = np.unique(s + 0.0, return_inverse=True)
            reprs = [repr(x) for x in distinct.tolist()]
            ends = np.array([f"{label}{r}\n".encode()
                             for label in labels for r in reprs], dtype="S")
            rows = np.strings.add(
                np.strings.add(np.take(head, a), np.take(tail, b)),
                np.take(ends, g * len(reprs) + which))
            # every NUL is padding: _REFUSED_CONTROLS keeps it out of ids
            out.write(rows.tobytes().replace(b"\0", b""))


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

"""Synthetic template populations, scoring, and gated enrollment.

Templates are fixed-length binary codes; similarity is the fraction of
agreeing bits. Enrollment is gated one-to-all: a candidate joins the gallery
only if no comparison against an already-enrolled template lands in the
uncertainty band. The gate keeps a gallery invariant that every enrolled
pair has a crisp value, which consistency_check re-derives from scratch.
A score is always k/L for an integer agreement count k, so the gallery
comparisons read each band from a table of the L + 1 possible answers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .calibration import (_bands_doc, _bands_from_doc, _json_text,
                          _reading, atomic_write)
from .decision_engine import (
    CODE_D,
    CODE_I,
    CODE_O,
    Claim,
    DecisionRecord,
    Response,
    ScoreBands,
    _record,
    _ROWS,
    classify,  # unused here; kept bound for the benchmark's tracer
    classify_many,
    decide,  # unused here; kept bound for the benchmark's tracer
    defuzzify,  # unused here; kept bound for the benchmark's tracer
    psi,  # unused here; kept bound for the benchmark's tracer
)
from .octal_algebra import BOTTOM, Octal, sum_


@dataclass(frozen=True, eq=False)
class Template:
    """One enrolled or candidate binary code.

    bits is the template's own read-only copy of the code. packed holds the
    same bits as uint64 words (_words), the form the XOR/popcount scoring
    reads; it is read-only too, because a gallery copies it once into its
    own matrix.
    """

    bits: np.ndarray
    identity: str
    template_id: str
    packed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if any(x != x for x in (self.identity, self.template_id)):
            raise ValueError("identity and template_id must equal themselves")
        raw = np.asarray(self.bits)
        if raw.ndim != 1 or raw.size == 0:
            raise ValueError("bits must be a non-empty 1-d array")
        # a cast from other dtypes would wrap 256 to 0 and cut 0.9 to 0
        if not ((raw == 0) | (raw == 1)).all():
            raise ValueError("bits must contain only 0 and 1")
        # a fresh one-row matrix: no array that bits[0] views stays writable
        bits = raw[None].astype(np.uint8)
        packed = _words(bits, np.packbits(bits, axis=1))
        object.__setattr__(self, "bits", bits[0])
        object.__setattr__(self, "packed", packed[0])


def _words(bits: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """The uint64 word matrix of templates' bits: raw holds the rows of the
    0/1 uint8 matrix bits as np.packbits bytes, zero-padded here to whole
    words. bits and the word matrix are made read-only."""
    packed = np.zeros((len(raw), -(-bits.shape[1] // 64) * 8), np.uint8)
    packed[:, :raw.shape[1]] = raw
    bits.setflags(write=False)
    packed.setflags(write=False)
    return packed.view(np.uint64)


def similarity(a: Template, b: Template) -> float:
    """Fraction of agreeing bits; templates must share a length."""
    _require_bit_length(a.bits.size, b.bits.size)
    agreements = a.bits.size - int(np.count_nonzero(a.bits != b.bits))
    return agreements / a.bits.size


def generate_population(identities: int, samples_per_identity: int,
                        bit_length: int, flip_probability: float,
                        seed: int) -> list[Template]:
    """Random identities with noisy per-identity samples.

    Each identity gets a uniform random master code; every sample flips each
    master bit independently with the given probability. The same seed and
    parameters reproduce the population bit for bit. The samples are drawn
    into one (identities x samples, bit_length) matrix, identity by
    identity, and each template's bits and packed are read-only rows of
    that matrix and its packed form (_row_templates); Template() is not
    called.
    """
    if identities < 1 or samples_per_identity < 1 or bit_length < 1:
        raise ValueError("identities, samples and bit_length must be >= 1")
    if not 0.0 <= flip_probability < 0.5:
        raise ValueError(
            f"flip_probability must be in [0, 0.5), got {flip_probability!r}")
    rng = np.random.default_rng(seed)
    bits = np.empty((identities * samples_per_identity, bit_length), np.uint8)
    for samples in bits.reshape(identities, -1, bit_length):
        master = rng.integers(0, 2, size=bit_length, dtype=np.uint8)
        samples[:] = master ^ (rng.random(samples.shape) < flip_probability)
    names = [(f"id{i:04d}", f"id{i:04d}_s{j:03d}") for i in range(identities)
             for j in range(samples_per_identity)]
    return _row_templates(bits, np.packbits(bits, axis=1), *zip(*names))


def _require_bit_length(bit_length: int, other: int) -> None:
    if other != bit_length:
        raise ValueError(f"bit lengths differ: {bit_length} vs {other}")


def _agreements(rows: np.ndarray, row: np.ndarray,
                bit_length: int) -> np.ndarray:
    """Agreement counts (intp) of one packed row with each row of a stacked
    matrix: XOR and popcount on the packed words (zero padding bits never
    differ), subtracted from the bit length.

    A row's word counts are summed by a matrix-vector product, in float32
    while bit_length < 2**24 and in float64 from there on. Each partial sum
    is a whole number of at most bit_length, so it is exact in any
    summation order and the counts are those of an integer sum."""
    dtype = np.float32 if bit_length < 1 << 24 else np.float64
    counts = np.bitwise_count(rows ^ row).astype(dtype)
    return bit_length - (counts @ np.ones(row.size, dtype)).astype(np.intp)


def pair_scores(templates: list[Template]) -> tuple[np.ndarray, ...]:
    """Similarity for every unordered pair, as columns (i, j, score).

    i < j index into templates, in generation order; each score equals
    similarity() bit for bit.
    """
    i, j = np.triu_indices(len(templates), 1)
    if len(templates) < 2:
        return i, j, np.empty(0)
    bit_length = templates[0].bits.size
    for t in templates:
        _require_bit_length(bit_length, t.bits.size)
    packed = np.stack([t.packed for t in templates])
    # one preallocated column, not a list of rows to concatenate, which
    # would double the peak
    scores = np.empty(i.size)
    end = 0
    for k in range(len(templates) - 1):
        row = _agreements(packed[k + 1:], packed[k], bit_length)
        scores[end:end + row.size] = row / bit_length
        end += row.size
    return i, j, scores


@dataclass(frozen=True)
class PartitionReport:
    """Pair counts per band, with the algebra tags of the three regions.

    icp covers every comparison pair; the enrollable part (eicp) holds the
    crisp I and D pairs, the undecidable part (uicp) the O pairs. Each tag
    is the join (sum_) of the band codes its region holds, BOTTOM if none.
    """

    icp_count: int
    eicp_count: int
    uicp_count: int
    genuine_count: int
    imposter_count: int
    icp_tag: Octal
    eicp_tag: Octal
    uicp_tag: Octal


def _tally(counts: np.ndarray) -> PartitionReport:
    """The partition of pairs of which counts[c] have the band code c."""
    def join(*codes) -> Octal:
        return reduce(sum_, (c for c in codes if counts[c]), BOTTOM)
    i, o, d = map(int, counts[[CODE_I, CODE_O, CODE_D]])
    return PartitionReport(
        icp_count=i + o + d, eicp_count=i + d, uicp_count=o,
        genuine_count=i, imposter_count=d,
        icp_tag=join(CODE_I, CODE_O, CODE_D), eicp_tag=join(CODE_I, CODE_D),
        uicp_tag=join(CODE_O))


def partition(scores, bands: ScoreBands) -> PartitionReport:
    """Split pair scores into enrollable (I or D) and undecidable (O)."""
    return _tally(np.bincount(np.ravel(classify_many(scores, bands)),
                              minlength=8))


@dataclass(frozen=True)
class Gallery:
    """Enrolled templates plus the bands they were enrolled under.

    enrolled is a tuple. A gallery is built whole by its constructor, which
    does not gate (load_gallery and hand-built galleries; consistency_check
    audits them), and grows only through enroll, the gate. The constructor
    refuses templates of differing bit lengths and a repeated template_id.
    Beside enrolled the gallery keeps the packed rows stacked in one uint64
    matrix, an insertion-ordered set of ids and an identity -> rows map, so
    enroll, verify and consistency_check score against it without stacking
    the templates again. One append writes all three, for the constructor and
    for enroll alike; verify and consistency_check only read. The first
    append also fixes the bit length L and builds the code table: entry k is
    the band code classify_many gives the score k/L, so a comparison is
    classified by its exact agreement count. A gallery is unhashable: its
    value grows with enroll, so a hash would not last.
    """

    __hash__ = None

    bands: ScoreBands
    enrolled: tuple[Template, ...] = ()
    # capacity-doubling; rows past len(enrolled) are unused
    _rows: np.ndarray = field(
        init=False, repr=False, compare=False,
        default_factory=lambda: np.empty((0, 0), np.uint64))
    # a dict for its key order, which is row order: ids are never removed
    _ids: dict[str, None] = field(init=False, repr=False, compare=False,
                                  default_factory=dict)
    _members: dict[str, list[int]] = field(
        init=False, repr=False, compare=False, default_factory=dict)
    # agreement count k -> band code of the score k / bit length
    _codes: np.ndarray = field(
        init=False, repr=False, compare=False,
        default_factory=lambda: np.empty(0, np.uint8))

    def __post_init__(self) -> None:
        enrolled = tuple(self.enrolled)
        for t in enrolled:
            _require_bit_length(enrolled[0].bits.size, t.bits.size)
            if t.template_id in self._ids:
                raise ValueError(f"duplicate template_id {t.template_id!r}")
            self._append(t)
        object.__setattr__(self, "enrolled", enrolled)

    def _append(self, t: Template) -> None:
        """Write t's packed row, its id and its identity; the caller has
        checked t's bit length and that its id is new."""
        n = len(self._ids)
        if not n:
            bit_length = t.bits.size
            codes = classify_many(np.arange(bit_length + 1) / bit_length,
                                  self.bands)
            codes.setflags(write=False)
            object.__setattr__(self, "_codes", codes)
        if n == len(self._rows):
            rows = np.empty((2 * n or 1, t.packed.size), np.uint64)
            if n:
                rows[:n] = self._rows
            object.__setattr__(self, "_rows", rows)
        self._rows[n] = t.packed
        self._ids[t.template_id] = None
        self._members.setdefault(t.identity, []).append(n)

    def identities(self) -> set[str]:
        return set(self._members)

    def bit_length(self) -> int | None:
        return self.enrolled[0].bits.size if self.enrolled else None


@dataclass(frozen=True)
class EnrollResult:
    accepted: bool
    conflicting_ids: tuple[str, ...] = ()


def _compare(gallery: Gallery,
             t: Template) -> tuple[np.ndarray, tuple[str, ...]]:
    """One-to-all comparison of t against a non-empty gallery of its bit
    length: t's agreement count with each enrolled template, in row order,
    and the ids of the templates whose comparison is undecidable (O), read
    from the gallery's code table."""
    enrolled = gallery.enrolled
    agree = _agreements(gallery._rows[:len(enrolled)], t.packed, t.bits.size)
    return agree, tuple(enrolled[k].template_id for k in
                        np.flatnonzero(gallery._codes[agree] == CODE_O))


def enroll(gallery: Gallery, candidate: Template) -> EnrollResult:
    """One-to-all gate: the candidate joins only if no comparison is O.

    On rejection the gallery is untouched and the undecidable targets are
    listed. The first template always enrolls. A candidate whose template_id
    is already enrolled is a ValueError, raised before any scoring.
    """
    if candidate.template_id in gallery._ids:
        raise ValueError(f"duplicate template_id {candidate.template_id!r}")
    if gallery.enrolled:
        _require_bit_length(candidate.bits.size, gallery.bit_length())
        conflicts = _compare(gallery, candidate)[1]
        if conflicts:
            return EnrollResult(accepted=False, conflicting_ids=conflicts)
    gallery._append(candidate)
    object.__setattr__(gallery, "enrolled", gallery.enrolled + (candidate,))
    return EnrollResult(accepted=True)


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of one verification attempt.

    overall is the claim decision's response unless any gallery comparison
    was undecidable, in which case it is Repeat and the undecidable targets
    are listed; the claim record itself is still produced for audit.
    """

    overall: Response
    claim_record: DecisionRecord
    target_records: tuple[tuple[str, DecisionRecord], ...]
    conflicting_ids: tuple[str, ...]


def verify(gallery: Gallery, probe: Template, claim: Claim) -> VerifyResult:
    """Score the probe against the whole gallery and adjudicate the claim.

    The gallery is scored in one packed XOR/popcount row of exact
    agreement counts. Each distinct count k gets, from the gallery's code
    table, the record decide() would build for the score k/L, so targets
    with equal scores share one record. The claim record is the one for the
    highest count among the claimed identity's templates, which are scored
    again by similarity(); a disagreement with the row is a RuntimeError.
    Raises ValueError when the claimed identity is not enrolled.
    """
    claimed = gallery._members.get(claim.claimed_identity)
    if not claimed:
        raise ValueError(
            f"identity {claim.claimed_identity!r} is not enrolled")
    _require_bit_length(probe.bits.size, gallery.bit_length())
    agree, conflicts = _compare(gallery, probe)
    bit_length = probe.bits.size
    if [similarity(probe, gallery.enrolled[k]) for k in claimed] != \
            (agree[claimed] / bit_length).tolist():
        raise RuntimeError("packed scores disagree with similarity() on the "
                           "claimed identity's templates")
    distinct = np.flatnonzero(np.bincount(agree, minlength=bit_length + 1))
    # count -> index of its record among the distinct counts
    index = np.empty(bit_length + 1, np.intp)
    index[distinct] = np.arange(distinct.size)
    rows = _ROWS[claim.polarity]
    # distinct / L holds the same correctly rounded floats as each k / L
    decided = np.fromiter(map(
        _record, [claim] * distinct.size, (distinct / bit_length).tolist(),
        map(rows.__getitem__, gallery._codes[distinct].tolist())),
        object, distinct.size)
    claim_record = decided[index[agree[claimed].max()]]
    overall = Response.REPEAT if conflicts else claim_record.response
    return VerifyResult(
        overall=overall, claim_record=claim_record, target_records=tuple(
            zip(gallery._ids, decided[index[agree]].tolist())),
        conflicting_ids=conflicts)


@dataclass(frozen=True)
class ConsistencyReport:
    """Re-derived decidability of the whole gallery.

    passed means no enrolled pair is undecidable. Pairs whose crisp value
    disagrees with the identity labels count as recognition errors; they do
    not fail the check.
    """

    passed: bool
    pair_count: int
    undecidable_pairs: tuple[tuple[str, str, float], ...]
    crisp_one_count: int
    crisp_zero_count: int
    recognition_errors: int


def consistency_check(gallery: Gallery) -> ConsistencyReport:
    """Re-classify every enrolled pair from scratch, one row at a time,
    by the code table's entry for each pair's agreement count. A row's label
    is its key in the identity map: identities compare by equality."""
    enrolled = gallery.enrolled
    n = len(enrolled)
    rows = gallery._rows[:n]
    labels = np.empty(n, np.intp)
    for label, members in enumerate(gallery._members.values()):
        labels[members] = label
    bit_length = gallery.bit_length()
    undecidable: list[tuple[str, str, float]] = []
    bins = np.zeros(16, np.intp)
    for k in range(n - 1):
        agree = _agreements(rows[k + 1:], rows[k], bit_length)
        codes = gallery._codes[agree]
        undecidable += [(enrolled[k].template_id,
                         enrolled[k + 1 + m].template_id,
                         int(agree[m]) / bit_length)
                        for m in np.flatnonzero(codes == CODE_O)]
        bins += np.bincount(codes + 8 * (labels[k + 1:] == labels[k]),
                            minlength=16)
    tally = _tally(bins[:8] + bins[8:])
    return ConsistencyReport(
        passed=not tally.uicp_tag, pair_count=tally.icp_count,
        undecidable_pairs=tuple(undecidable),
        crisp_one_count=tally.genuine_count,
        crisp_zero_count=tally.imposter_count,
        recognition_errors=int(bins[CODE_I] + bins[8 + CODE_D]))


# ---------------------------------------------------------------------------
# persistence


def bits_to_hex(bits: np.ndarray) -> str:
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


def _payload(hex_string: str, bit_length: int) -> bytes:
    """The bytes of a hex payload: exactly ceil(bit_length / 8) of them,
    with the padding bits (the low bits of the last byte) all 0."""
    raw = bytes.fromhex(hex_string)
    padding = (1 << -bit_length % 8) - 1
    # an empty payload has no last byte to check
    if len(raw) != -(-bit_length // 8) or raw and raw[-1] & padding:
        raise ValueError("hex payload does not match the bit length")
    return raw


def bits_from_hex(hex_string: str, bit_length: int) -> np.ndarray:
    """Unpack exactly ceil(bit_length / 8) bytes; padding bits must be 0."""
    raw = np.frombuffer(_payload(hex_string, bit_length), np.uint8)
    return np.unpackbits(raw, count=bit_length)


def _string(entry, key: str) -> str:
    """entry[key], which a gallery document must hold as a JSON string."""
    value = entry[key]
    if type(value) is not str:
        raise TypeError(f"{key} {json.dumps(value)} is not a string")
    return value


def save_gallery(gallery: Gallery, path) -> None:
    """Write the gallery as a stable JSON document.

    Nothing is written, and TypeError is raised, for a template whose
    identity or template_id is not a str, which load_gallery would refuse.
    """
    for t in gallery.enrolled:
        for name, value in (("template_id", t.template_id),
                            ("identity", t.identity)):
            if not isinstance(value, str):
                raise TypeError(f"template {t.template_id!r}: {name} "
                                f"{value!r} is not a str")
    n = len(gallery.enrolled)
    width = 2 * -(-(gallery.bit_length() or 0) // 8)
    # every payload in one hex call, sliced per entry
    text = gallery._rows[:n].view(np.uint8)[:, :width // 2].tobytes().hex()
    doc = {
        "bands": _bands_doc(gallery.bands),
        "bit_length": gallery.bit_length(),
        "templates": [
            {"template_id": t.template_id, "identity": t.identity,
             "bits": text[k * width:(k + 1) * width]}
            for k, t in enumerate(gallery.enrolled)
        ],
    }
    with atomic_write(path) as fh:
        fh.write(_json_text(doc))


def _row_templates(bits: np.ndarray, raw: np.ndarray, identities,
                   template_ids) -> list[Template]:
    """Templates whose bits and packed are read-only rows of two matrices
    that only they reference. bits is a 0/1 uint8 matrix, one row per
    template, that the caller has checked or drawn itself, and raw holds
    its rows as np.packbits bytes, so no row is checked or packed again."""
    templates = []
    for row, words, identity, template_id in zip(
            bits, _words(bits, raw), identities, template_ids):
        t = object.__new__(Template)
        # vars() skips the frozen __setattr__, as object.__setattr__ does
        vars(t).update(bits=row, identity=identity, template_id=template_id,
                       packed=words)
        templates.append(t)
    return templates


def load_gallery(path) -> Gallery:
    """Read a gallery file in one pass over its entries, in file order.

    Each entry's payload is decoded and checked on its own, then its
    identity and template_id, so an error is the first bad entry's own; a
    repeated template_id is refused once every entry has decoded. The
    payloads are then unpacked at once, and each template's bits and packed
    are read-only rows of one matrix per file.
    """
    with _reading(path, "gallery") as fh:
        doc = json.load(fh)
        bands = _bands_from_doc(doc["bands"])
        bit_length = doc["bit_length"]
        entries = doc["templates"]
        if not (type(bit_length) is int and bit_length > 0
                or bit_length is None and not entries):
            raise TypeError(f"bit_length {json.dumps(bit_length)} is not a "
                            f"positive integer")
        if type(entries) is not list:
            raise TypeError("templates is not a list")
        if not entries:
            # save_gallery writes null for a gallery with no templates
            if bit_length is not None:
                raise TypeError(f"bit_length {json.dumps(bit_length)} is "
                                f"given for no templates")
            return Gallery(bands=bands)
        payloads, identities, template_ids = [], [], []
        for entry in entries:
            payloads.append(_payload(entry["bits"], bit_length))
            identities.append(_string(entry, "identity"))
            template_ids.append(_string(entry, "template_id"))
        raw = np.frombuffer(b"".join(payloads), np.uint8).reshape(
            len(payloads), -1)
        return Gallery(bands=bands, enrolled=_row_templates(
            np.unpackbits(raw, axis=1, count=bit_length), raw, identities,
            template_ids))

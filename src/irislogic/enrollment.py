"""Synthetic template populations, scoring, and gated enrollment.

Templates are fixed-length binary codes; similarity is the fraction of
agreeing bits. Enrollment is gated one-to-all: a candidate joins the gallery
only if no comparison against an already-enrolled template lands in the
uncertainty band. The gate keeps a gallery invariant that every enrolled
pair has a crisp value, which consistency_check re-derives from scratch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .calibration import _bands_doc, _bands_from_doc
from .decision_engine import (
    CODE_D,
    CODE_I,
    CODE_O,
    Claim,
    DecisionRecord,
    Response,
    ScoreBands,
    classify,  # unused here; kept bound for the benchmark's tracer
    classify_many,
    decide,
    defuzzify,  # unused here; kept bound for the benchmark's tracer
    psi,
)
from .octal_algebra import MODAL_D, MODAL_I, MODAL_O, Octal, sum_


@dataclass(frozen=True, eq=False)
class Template:
    """One enrolled or candidate binary code."""

    bits: np.ndarray
    identity: str
    template_id: str

    def __post_init__(self) -> None:
        arr = np.asarray(self.bits, dtype=np.uint8)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("bits must be a non-empty 1-d array")
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError("bits must contain only 0 and 1")
        object.__setattr__(self, "bits", arr)


def similarity(a: Template, b: Template) -> float:
    """Fraction of agreeing bits; templates must share a length."""
    if a.bits.size != b.bits.size:
        raise ValueError(
            f"bit lengths differ: {a.bits.size} vs {b.bits.size}")
    agreements = a.bits.size - int(np.count_nonzero(a.bits != b.bits))
    return agreements / a.bits.size


def generate_population(identities: int, samples_per_identity: int,
                        bit_length: int, flip_probability: float,
                        seed: int) -> list[Template]:
    """Random identities with noisy per-identity samples.

    Each identity gets a uniform random master code; every sample flips each
    master bit independently with the given probability. The same seed and
    parameters reproduce the population bit for bit.
    """
    if identities < 1 or samples_per_identity < 1 or bit_length < 1:
        raise ValueError("identities, samples and bit_length must be >= 1")
    if not 0.0 <= flip_probability < 0.5:
        raise ValueError(
            f"flip_probability must be in [0, 0.5), got {flip_probability!r}")
    rng = np.random.default_rng(seed)
    out: list[Template] = []
    for i in range(identities):
        master = rng.integers(0, 2, size=bit_length, dtype=np.uint8)
        for j in range(samples_per_identity):
            flips = rng.random(bit_length) < flip_probability
            bits = np.where(flips, 1 - master, master).astype(np.uint8)
            out.append(Template(bits=bits, identity=f"id{i:04d}",
                                template_id=f"id{i:04d}_s{j:03d}"))
    return out


def _agreement_rows(templates: list[Template]):
    """Per k, exact agreement counts of template k against every later one:
    XOR and popcount on bits packed once; zero padding bits never differ."""
    for t in templates[1:]:
        if t.bits.size != templates[0].bits.size:
            raise ValueError(f"bit lengths differ: "
                             f"{templates[0].bits.size} vs {t.bits.size}")
    bits = np.array([t.bits for t in templates], dtype=np.uint8)
    packed = np.packbits(bits, axis=-1)
    for k, t in enumerate(templates):
        yield t.bits.size - np.bitwise_count(
            packed[k + 1:] ^ packed[k]).sum(axis=1)


def pair_scores(templates: list[Template]) -> tuple[np.ndarray, ...]:
    """Similarity for every unordered pair, as columns (i, j, score).

    i < j index into templates, in generation order; each score is an exact
    agreement count over the bit length, equal to similarity() bit for bit.
    """
    i, j = np.triu_indices(len(templates), 1)
    if len(templates) < 2:
        return i, j, np.empty(0)
    agreements = np.concatenate(list(_agreement_rows(templates)))
    return i, j, agreements / templates[0].bits.size


@dataclass(frozen=True)
class PartitionReport:
    """Pair counts per band, with the algebra tags of the three regions.

    icp covers every comparison pair; the enrollable part (eicp) holds the
    crisp I and D pairs, the undecidable part (uicp) the O pairs. The tags
    are derived in the algebra: the enrollable tag is the supremum of the
    I and D codes, and joining it with the O code recovers the full tag.
    """

    icp_count: int
    eicp_count: int
    uicp_count: int
    genuine_count: int
    imposter_count: int
    icp_tag: Octal
    eicp_tag: Octal
    uicp_tag: Octal


def partition(scores, bands: ScoreBands) -> PartitionReport:
    """Split pair scores into enrollable (I or D) and undecidable (O)."""
    codes = classify_many(scores, bands)
    genuine = int((codes == CODE_I).sum())
    imposter = int((codes == CODE_D).sum())
    uncertain = codes.size - genuine - imposter
    eicp_tag = sum_(psi(MODAL_I), psi(MODAL_D))
    uicp_tag = psi(MODAL_O)
    return PartitionReport(
        icp_count=genuine + imposter + uncertain,
        eicp_count=genuine + imposter,
        uicp_count=uncertain,
        genuine_count=genuine,
        imposter_count=imposter,
        icp_tag=sum_(eicp_tag, uicp_tag),
        eicp_tag=eicp_tag,
        uicp_tag=uicp_tag,
    )


@dataclass
class Gallery:
    """Mutable enrolled set plus the bands it was built under."""

    bands: ScoreBands
    enrolled: list[Template] = field(default_factory=list)

    def identities(self) -> set[str]:
        return {t.identity for t in self.enrolled}

    def bit_length(self) -> int | None:
        return self.enrolled[0].bits.size if self.enrolled else None


@dataclass(frozen=True)
class EnrollResult:
    accepted: bool
    conflicting_ids: tuple[str, ...] = ()


def enroll(gallery: Gallery, candidate: Template) -> EnrollResult:
    """One-to-all gate: the candidate joins only if no comparison is O.

    On rejection the gallery is untouched and the undecidable targets are
    listed. The first template always enrolls.
    """
    agreements = next(_agreement_rows([candidate, *gallery.enrolled]))
    codes = classify_many(agreements / candidate.bits.size, gallery.bands)
    conflicts = tuple(gallery.enrolled[k].template_id
                      for k in np.flatnonzero(codes == CODE_O))
    if conflicts:
        return EnrollResult(accepted=False, conflicting_ids=conflicts)
    gallery.enrolled.append(candidate)
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

    The claim is decided on the best score among the claimed identity's
    templates. Raises when the claimed identity is not enrolled.
    """
    claimed = [t for t in gallery.enrolled
               if t.identity == claim.claimed_identity]
    if not claimed:
        raise ValueError(
            f"identity {claim.claimed_identity!r} is not enrolled")
    records: list[tuple[str, DecisionRecord]] = []
    conflicts: list[str] = []
    best = None
    for t in gallery.enrolled:
        s = similarity(probe, t)
        rec = decide(claim, s, gallery.bands)
        records.append((t.template_id, rec))
        if rec.modal == MODAL_O:
            conflicts.append(t.template_id)
        if t.identity == claim.claimed_identity and (best is None or s > best):
            best = s
    claim_record = decide(claim, best, gallery.bands)
    overall = Response.REPEAT if conflicts else claim_record.response
    return VerifyResult(overall=overall, claim_record=claim_record,
                        target_records=tuple(records),
                        conflicting_ids=tuple(conflicts))


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
    """Re-classify every enrolled pair from scratch, one row at a time."""
    enrolled = gallery.enrolled
    identities = np.array([t.identity for t in enrolled])
    undecidable: list[tuple[str, str, float]] = []
    ones = zeros = errors = total = 0
    for k, agreements in enumerate(_agreement_rows(enrolled)):
        scores = agreements / enrolled[k].bits.size
        codes = classify_many(scores, gallery.bands)
        undecidable += [(enrolled[k].template_id,
                         enrolled[k + 1 + m].template_id, float(scores[m]))
                        for m in np.flatnonzero(codes == CODE_O)]
        wrong = np.where(identities[k + 1:] == identities[k], CODE_D, CODE_I)
        errors += int((codes == wrong).sum())
        ones += int((codes == CODE_I).sum())
        zeros += int((codes == CODE_D).sum())
        total += codes.size
    return ConsistencyReport(passed=not undecidable, pair_count=total,
                             undecidable_pairs=tuple(undecidable),
                             crisp_one_count=ones, crisp_zero_count=zeros,
                             recognition_errors=errors)


# ---------------------------------------------------------------------------
# persistence


def bits_to_hex(bits: np.ndarray) -> str:
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


def bits_from_hex(hex_string: str, bit_length: int) -> np.ndarray:
    """Unpack exactly ceil(bit_length / 8) bytes; padding bits must be 0."""
    raw = np.frombuffer(bytes.fromhex(hex_string), dtype=np.uint8)
    bits = np.unpackbits(raw)
    if raw.size != -(-bit_length // 8) or (bits[bit_length:] != 0).any():
        raise ValueError("hex payload does not match the bit length")
    return bits[:bit_length].copy()


def save_gallery(gallery: Gallery, path) -> None:
    """Write the gallery as a stable JSON document."""
    doc = {
        "bands": _bands_doc(gallery.bands),
        "bit_length": gallery.bit_length(),
        "templates": [
            {"template_id": t.template_id, "identity": t.identity,
             "bits": bits_to_hex(t.bits)}
            for t in gallery.enrolled
        ],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_gallery(path) -> Gallery:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        bands = _bands_from_doc(doc["bands"])
        bit_length = doc["bit_length"]
        templates = [
            Template(bits=bits_from_hex(entry["bits"], bit_length),
                     identity=entry["identity"],
                     template_id=entry["template_id"])
            for entry in doc["templates"]
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a gallery document ({exc})") from None
    seen: set[str] = set()
    for t in templates:
        if t.template_id in seen:
            raise ValueError(
                f"{path}: duplicate template_id {t.template_id!r}")
        seen.add(t.template_id)
    return Gallery(bands=bands, enrolled=templates)

"""Score banding, claim adjudication, and output encoding.

A similarity score in [0, 1] lands in one of three bands: at or above the
upper threshold p it reads as I (identical), at or below the lower threshold
n as D (different), strictly between as O (no decision). A claim of identity
is then accepted, rejected, or bounced for a repeat attempt, depending on
the band and on whether the claim was positive ("I am X") or negative
("I am not X").

Each modal value also has a fixed output row: a response code in 0..7, its
binary form, and a label describing how the two claim polarities fare. The
row for O, for example, means both a positive and a negative claim would be
told to try again.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .octal_algebra import (
    MODAL_D,
    MODAL_I,
    MODAL_O,
    BitTriple,
    ModalString,
    Octal,
    bits_to_octal,
    modal_to_bits,
    octal_to_bits,
)


class Polarity(enum.Enum):
    """Direction of an identity claim."""

    POSITIVE = "positive"
    NEGATIVE = "negative"


class Response(enum.Enum):
    """System answer to a claim."""

    ACCEPTED = "accepted"
    REJECTED = "rejected"
    REPEAT = "repeat"


@dataclass(frozen=True)
class ScoreBands:
    """Decision thresholds: reject at or below n, accept at or above p.

    target_rate records the error rate both thresholds were calibrated to
    and rides along for audit purposes.
    """

    n: float
    p: float
    target_rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.n < self.p <= 1.0:
            raise ValueError(
                f"thresholds must satisfy 0 <= n < p <= 1, got "
                f"n={self.n!r} p={self.p!r}")
        if not 0.0 < self.target_rate < 1.0:
            raise ValueError(f"target_rate must be in (0, 1), got "
                             f"{self.target_rate!r}")


@dataclass(frozen=True)
class Claim:
    polarity: Polarity
    claimed_identity: str


@dataclass(frozen=True)
class DecisionRecord:
    """Everything about one adjudicated comparison, for audit logs."""

    claim: Claim
    score: float
    modal: ModalString
    response: Response
    output_octal: Octal
    output_meaning: str

    def to_record(self) -> str:
        """Single-line key=value form."""
        return " ".join([
            f"claim={self.claim.polarity.value}",
            f"identity={self.claim.claimed_identity}",
            f"score={float(self.score)!r}",
            f"modal={self.modal}",
            f"response={self.response.value}",
            f"output_octal={int(self.output_octal)}",
            f"meaning={self.output_meaning}",
        ])


def classify(score: float, bands: ScoreBands) -> ModalString:
    """Band membership of a score; the outer bands are closed.

    Returns the atomic modal value I (score >= p), D (score <= n) or O.
    A numpy scalar is compared as a float64, as classify_many compares it.
    """
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be in [0, 1], got {float(score)!r}")
    score = float(score)
    if score >= bands.p:
        return MODAL_I
    if score <= bands.n:
        return MODAL_D
    return MODAL_O


# fixed output rows keyed by the modal value's integer code; the meaning
# label spells out the fate of a positive (P) and negative (N) claim,
# A'ccepted or R'ejected
_OUTPUT_ROWS: dict[int, tuple[int, str]] = {
    7: (7, "PR' NR'"),
    3: (6, "PR' NA'"),
    6: (5, "PA' NR'"),
    5: (4, "PA' NA'"),
    2: (3, "PR'&NR'"),
    1: (2, "PR'&NA'"),
    4: (1, "PA'&NR'"),
    0: (0, "PA'&NA'"),
}


def output_encoding(modal: "str | ModalString") -> tuple[Octal, BitTriple, str]:
    """Output row for a modal value: response code, its bits, meaning label."""
    code = _OUTPUT_ROWS[int(psi(modal))]
    return Octal(code[0]), octal_to_bits(code[0]), code[1]


def psi(m: "str | ModalString") -> Octal:
    """Integer code of a modal value: I weighs 4, O weighs 2, D weighs 1."""
    return bits_to_octal(modal_to_bits(m))


#: psi codes of the atomic outcomes, as classify_many returns them
CODE_I, CODE_O, CODE_D = map(np.uint8, map(psi, (MODAL_I, MODAL_O, MODAL_D)))


def classify_many(scores, bands: ScoreBands) -> np.ndarray:
    """Array form of classify: the uint8 psi code of each score's band."""
    s = np.asarray(scores, dtype=np.float64)
    outside = s[~((s >= 0.0) & (s <= 1.0))]
    if outside.size:
        raise ValueError(f"score must be in [0, 1], got {float(outside[0])!r}")
    return np.where(s >= bands.p, CODE_I,
                    np.where(s <= bands.n, CODE_D, CODE_O))


# per polarity, psi code of the outcome -> (modal, response, output octal,
# meaning): the one table decide() and _decide_many() build records from
_ROWS = {
    polarity: {int(psi(modal)): (modal, response, *output_encoding(modal)[::2])
               for modal, response in [(MODAL_I, on_i),
                                       (MODAL_O, Response.REPEAT),
                                       (MODAL_D, on_d)]}
    for polarity, on_i, on_d in [
        (Polarity.POSITIVE, Response.ACCEPTED, Response.REJECTED),
        (Polarity.NEGATIVE, Response.REJECTED, Response.ACCEPTED)]
}
# classify()'s atomic modal value -> its key in _ROWS
_CODES = {modal: code
          for code, (modal, *_) in _ROWS[Polarity.POSITIVE].items()}


def _record(claim: Claim, score: float, row: tuple) -> DecisionRecord:
    """The DecisionRecord of a table row. It skips the frozen dataclass
    __init__, whose per-field object.__setattr__ is most of a record's
    cost, and writes the fields into the instance dict in declaration
    order, as __init__ would; the instance stays frozen."""
    record = object.__new__(DecisionRecord)
    fields = vars(record)
    fields["claim"], fields["score"] = claim, score
    (fields["modal"], fields["response"], fields["output_octal"],
     fields["output_meaning"]) = row
    return record


def decide(claim: Claim, score: float, bands: ScoreBands) -> DecisionRecord:
    """Adjudicate one claim against one score.

    A positive claim is accepted on I and rejected on D; a negative claim
    the other way around; O always means try again.
    """
    modal = classify(score, bands)
    return _record(claim, float(score), _ROWS[claim.polarity][_CODES[modal]])


def _decide_many(claim: Claim, scores: np.ndarray,
                 bands: ScoreBands) -> list[DecisionRecord]:
    """decide() for each score of a 1-d float64 array, in order: records
    equal to decide()'s, classified at once by classify_many."""
    rows = _ROWS[claim.polarity]
    codes = classify_many(scores, bands)
    return [_record(claim, score, rows[code])
            for score, code in zip(scores.tolist(), codes.tolist())]


#: crisp value of an undecidable outcome
UNDECIDABLE = None
_CRISP = {MODAL_I: 1, MODAL_D: 0, MODAL_O: UNDECIDABLE}


def defuzzify(modal: "str | ModalString") -> int | None:
    """Crisp bit for an atomic outcome: 1 for I, 0 for D, UNDECIDABLE for O."""
    m = modal if isinstance(modal, ModalString) else ModalString(modal)
    if m in _CRISP:
        return _CRISP[m]
    raise ValueError(f"not an atomic outcome: {m}")

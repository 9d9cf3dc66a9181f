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
    target_rate: float = 1e-10

    def __post_init__(self) -> None:
        if not 0.0 <= self.n < self.p <= 1.0:
            raise ValueError(
                f"thresholds must satisfy 0 <= n < p <= 1, got "
                f"n={self.n!r} p={self.p!r}")
        if not 0.0 < self.target_rate < 1.0:
            raise ValueError(f"target_rate must be in (0, 1), got "
                             f"{self.target_rate!r}")


#: published reference operating point for iris codes
DEFAULT_BANDS = ScoreBands(n=0.3725, p=0.55, target_rate=1e-10)


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
    """
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be in [0, 1], got {score!r}")
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
    return np.select([s >= bands.p, s <= bands.n], [CODE_I, CODE_D], CODE_O)


# decide()'s one lookup: response and output row per polarity and outcome
_DECISIONS = {
    polarity: {MODAL_I: (on_i, output_encoding(MODAL_I)),
               MODAL_O: (Response.REPEAT, output_encoding(MODAL_O)),
               MODAL_D: (on_d, output_encoding(MODAL_D))}
    for polarity, on_i, on_d in [
        (Polarity.POSITIVE, Response.ACCEPTED, Response.REJECTED),
        (Polarity.NEGATIVE, Response.REJECTED, Response.ACCEPTED)]
}


def decide(claim: Claim, score: float, bands: ScoreBands) -> DecisionRecord:
    """Adjudicate one claim against one score.

    A positive claim is accepted on I and rejected on D; a negative claim
    the other way around; O always means try again.
    """
    modal = classify(score, bands)
    response, (out_octal, _, meaning) = _DECISIONS[claim.polarity][modal]
    return DecisionRecord(claim=claim, score=float(score), modal=modal,
                          response=response, output_octal=out_octal,
                          output_meaning=meaning)


#: crisp value of an undecidable outcome
UNDECIDABLE = None
_CRISP = {MODAL_I: 1, MODAL_D: 0, MODAL_O: UNDECIDABLE}


def defuzzify(modal: "str | ModalString") -> int | None:
    """Crisp bit for an atomic outcome: 1 for I, 0 for D, UNDECIDABLE for O."""
    m = modal if isinstance(modal, ModalString) else ModalString(modal)
    if m in _CRISP:
        return _CRISP[m]
    raise ValueError(f"not an atomic outcome: {m}")

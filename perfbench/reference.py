"""Independent reference for the benchmark's correctness checks.

Nothing here calls into irislogic. Agreement counts come from packed bytes,
XOR and popcount; band membership from the two closed threshold
comparisons; the enrollment gate from a greedy pass over the reference band
matrix; claim decisions from the positive/negative response tables.
"""

from __future__ import annotations

import numpy as np

# band codes, matching the algebra's integer codes for the atomic values
I, O, D = 4, 2, 1
BAND_LETTER = {I: "I", O: "O", D: "D"}

_POSITIVE = {I: "accepted", O: "repeat", D: "rejected"}
_NEGATIVE = {I: "rejected", O: "repeat", D: "accepted"}


def _agreement_rows(rows: np.ndarray, cols: np.ndarray):
    """Yield (i, agreeing-bit counts of row i against every column code)."""
    bit_length = rows.shape[1]
    if cols.shape[1] != bit_length:
        raise ValueError("bit lengths differ")
    packed_rows = np.packbits(rows.astype(np.uint8), axis=1)
    packed_cols = np.packbits(cols.astype(np.uint8), axis=1)
    for i, row in enumerate(packed_rows):
        # padding bits are zero in both operands, so they never disagree
        yield i, bit_length - np.bitwise_count(row ^ packed_cols).sum(
            axis=1, dtype=np.int64)


def agreements(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Agreeing-bit counts between every row code and every column code.

    Both arguments are (count, bit_length) arrays of 0/1 values. The result
    is an exact integer matrix.
    """
    out = np.empty((len(rows), len(cols)), dtype=np.int32)
    for i, agree in _agreement_rows(rows, cols):
        out[i] = agree
    return out


def band_matrix(rows: np.ndarray, cols: np.ndarray, n: float,
                p: float) -> np.ndarray:
    """Band code of every row code against every column code.

    Built a row at a time, so the benchmark's own memory stays well below
    the program's and does not show in the peak resident size.
    """
    bit_length = rows.shape[1]
    out = np.empty((len(rows), len(cols)), dtype=np.int8)
    for i, agree in _agreement_rows(rows, cols):
        out[i] = bands_of(scores(agree, bit_length), n, p)
    return out


def scores(agree: np.ndarray, bit_length: int) -> np.ndarray:
    """Similarity as the fraction of agreeing bits, in float64."""
    return agree / bit_length


def bands_of(score: np.ndarray, n: float, p: float) -> np.ndarray:
    """Band code per score: I at or above p, D at or below n, else O."""
    score = np.asarray(score, dtype=np.float64)
    return np.where(score >= p, I, np.where(score <= n, D, O)).astype(np.int8)


def response(polarity: str, band: int) -> str:
    table = _POSITIVE if polarity == "positive" else _NEGATIVE
    return table[int(band)]


def gate(band: np.ndarray) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Greedy one-to-all gate over candidates in order.

    band is the square band-code matrix between the candidates. Returns the
    accepted mask and, per candidate, the indices of the already-accepted
    candidates it is undecidable against (empty when it was accepted).
    """
    count = band.shape[0]
    accepted = np.zeros(count, dtype=bool)
    conflicts: list[tuple[int, ...]] = []
    for c in range(count):
        hits = np.nonzero(accepted & (band[c] == O))[0]
        conflicts.append(tuple(int(h) for h in hits))
        if hits.size == 0:
            accepted[c] = True
    return accepted, conflicts


def consistency(band: np.ndarray, same_identity: np.ndarray) -> dict:
    """Expected consistency report over a gallery's band matrix."""
    upper = np.triu(np.ones(band.shape, dtype=bool), k=1)
    ones = (band == I) & upper
    zeros = (band == D) & upper
    return {
        "passed": not bool(((band == O) & upper).any()),
        "pair_count": int(upper.sum()),
        "crisp_one_count": int(ones.sum()),
        "crisp_zero_count": int(zeros.sum()),
        "recognition_errors": int((ones & ~same_identity).sum()
                                  + (zeros & same_identity).sum()),
    }


def verify_outcome(probe_agree: np.ndarray, bit_length: int,
                   gallery_identities: list[str], claimed: str,
                   polarity: str, n: float, p: float) -> dict:
    """Expected verify result for one probe against the whole gallery."""
    score = scores(probe_agree, bit_length)
    band = bands_of(score, n, p)
    mine = np.array([g == claimed for g in gallery_identities])
    best = float(score[mine].max())
    claim_band = int(bands_of(best, n, p))
    claim_response = response(polarity, claim_band)
    conflicts = np.nonzero(band == O)[0]
    return {
        "overall": "repeat" if conflicts.size else claim_response,
        "claim_modal": BAND_LETTER[claim_band],
        "claim_response": claim_response,
        "conflicts": tuple(int(c) for c in conflicts),
        "targets": "".join(BAND_LETTER[int(b)] for b in band),
    }

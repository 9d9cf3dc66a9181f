"""Banding, claim adjudication, output rows, and defuzzification."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from irislogic.decision_engine import (
    CODE_D,
    CODE_I,
    CODE_O,
    UNDECIDABLE,
    Claim,
    DecisionRecord,
    Polarity,
    Response,
    ScoreBands,
    _decide_many,
    classify,
    classify_many,
    decide,
    defuzzify,
    output_encoding,
    psi,
)
from irislogic.octal_algebra import (
    MODAL_D,
    MODAL_I,
    MODAL_O,
    MODALS_BY_OCTAL,
    ModalString,
    bits_to_octal,
    modal_to_bits,
    neg,
    octal_to_bits,
    product,
    sum_,
)

from table_data import DECISION_MATRIX, OUTPUT_ROWS, PSI

BANDS = ScoreBands(n=0.3725, p=0.55, target_rate=1e-6)

scores = st.floats(min_value=0.0, max_value=1.0)


def test_bands_validation():
    with pytest.raises(ValueError):
        ScoreBands(n=0.6, p=0.5, target_rate=1e-6)
    with pytest.raises(ValueError):
        ScoreBands(n=0.5, p=0.5, target_rate=1e-6)
    with pytest.raises(ValueError):
        ScoreBands(n=-0.1, p=0.5, target_rate=1e-6)
    with pytest.raises(ValueError):
        ScoreBands(n=0.2, p=1.5, target_rate=1e-6)
    with pytest.raises(ValueError):
        ScoreBands(n=0.2, p=0.8, target_rate=0.0)
    with pytest.raises(ValueError):
        ScoreBands(n=0.2, p=0.8, target_rate=1.0)
    # no default target: hand-built bands state the rate they stand for
    with pytest.raises(TypeError):
        ScoreBands(n=0.2, p=0.8)


def test_classify_boundaries_are_closed():
    assert classify(0.55, BANDS) == MODAL_I
    assert classify(0.3725, BANDS) == MODAL_D
    assert classify(0.551, BANDS) == MODAL_I
    assert classify(0.3724, BANDS) == MODAL_D
    assert classify(0.45, BANDS) == MODAL_O
    assert classify(1.0, BANDS) == MODAL_I
    assert classify(0.0, BANDS) == MODAL_D


def test_classify_rejects_out_of_range():
    with pytest.raises(ValueError):
        classify(-0.01, BANDS)
    with pytest.raises(ValueError):
        classify(1.01, BANDS)
    with pytest.raises(TypeError):
        classify("0.5", BANDS)
    for bad in (-0.01, 1.01, float("nan")):
        with pytest.raises(ValueError, match="score must be in"):
            classify_many([0.5, bad], BANDS)


@given(scores)
def test_classify_is_atomic_and_threshold_consistent(score):
    m = classify(score, BANDS)
    assert m in (MODAL_I, MODAL_O, MODAL_D)
    if score >= BANDS.p:
        assert m == MODAL_I
    elif score <= BANDS.n:
        assert m == MODAL_D
    else:
        assert m == MODAL_O


@given(st.lists(st.one_of(st.sampled_from([BANDS.n, BANDS.p, 0.0, 1.0]),
                         scores)))
def test_classify_many_matches_classify(batch):
    codes = classify_many(batch, BANDS)
    assert codes.dtype == np.uint8
    assert codes.tolist() == [int(psi(classify(s, BANDS))) for s in batch]
    assert (CODE_I, CODE_O, CODE_D) == (4, 2, 1)


def test_decision_matrix():
    rep_score = {"I": 0.9, "O": 0.45, "D": 0.1}
    for (polarity, modal), response in DECISION_MATRIX.items():
        claim = Claim(polarity=Polarity(polarity), claimed_identity="X")
        record = decide(claim, rep_score[modal], BANDS)
        assert record.modal == ModalString(modal)
        assert record.response == Response(response)


@given(scores, st.sampled_from(list(Polarity)))
def test_decide_is_consistent_with_classify(score, polarity):
    claim = Claim(polarity=polarity, claimed_identity="u1")
    record = decide(claim, score, BANDS)
    assert record.modal == classify(score, BANDS)
    assert record.score == score
    # output row always matches the modal value
    expected_octal, _, expected_meaning = output_encoding(record.modal)
    assert record.output_octal == expected_octal
    assert record.output_meaning == expected_meaning


# the band edges and their float neighbours, where >= and <= decide
EDGES = [0.0, -0.0, 1.0, *(x for t in (BANDS.n, BANDS.p)
                           for x in (np.nextafter(t, 0.0), t,
                                     np.nextafter(t, 1.0)))]


@given(st.lists(st.one_of(st.sampled_from(EDGES), scores)),
       st.sampled_from(list(Polarity)))
@example(EDGES, Polarity.POSITIVE)
@example(EDGES, Polarity.NEGATIVE)
def test_decide_many_builds_decides_records(batch, polarity):
    claim = Claim(polarity=polarity, claimed_identity="u1")
    records = _decide_many(claim, np.array(batch, dtype=np.float64), BANDS)
    assert len(records) == len(batch)
    for record, score in zip(records, batch):
        want = decide(claim, float(score), BANDS)
        # the same values through the dataclass __init__
        constructed = DecisionRecord(**vars(want))
        for got in (record, want):
            # field by field, in declaration order, with the same types
            assert [(k, type(v), v) for k, v in vars(got).items()] == \
                [(k, type(v), v) for k, v in vars(constructed).items()]
            assert (got, hash(got), repr(got), got.to_record()) == \
                (want, hash(want), repr(want), want.to_record())
            with pytest.raises(FrozenInstanceError):
                got.score = 0.5


SCALAR_TYPES = [np.float16, np.float32, np.float64, float]


@given(st.lists(scores), st.sampled_from(SCALAR_TYPES),
       st.sampled_from([-0.01, 1.01, -np.inf, np.inf, np.nan,
                        float(np.nextafter(1.0, 2.0)),
                        float(np.nextafter(0.0, -1.0))]),
       st.lists(st.one_of(scores, st.just(np.nan))))
def test_decide_many_refuses_as_decide_does(before, kind, bad, after):
    bad = kind(bad)
    assume(not 0.0 <= bad <= 1.0)   # a float16 rounds 1 + ulp back to 1
    claim = Claim(polarity=Polarity.POSITIVE, claimed_identity="u1")
    with pytest.raises(ValueError) as want:
        decide(claim, bad, BANDS)
    with pytest.raises(ValueError) as got:
        _decide_many(claim, np.array(before + [bad] + after), BANDS)
    assert str(got.value) == str(want.value)


def test_record_line_format():
    claim = Claim(polarity=Polarity.POSITIVE, claimed_identity="X")
    record = decide(claim, 0.45, BANDS)
    assert record.to_record() == (
        "claim=positive identity=X score=0.45 modal=O response=repeat "
        "output_octal=3 meaning=PR'&NR'")


def test_output_rows_match_frozen_table():
    for code, (expected_out, expected_meaning) in OUTPUT_ROWS.items():
        modal = MODALS_BY_OCTAL[code]
        out, bits, meaning = output_encoding(modal)
        assert out == expected_out
        assert bits == octal_to_bits(expected_out)
        assert meaning == expected_meaning


def test_output_encoding_accepts_strings():
    out, _, meaning = output_encoding("O")
    assert out == 3
    assert meaning == "PR'&NR'"


def test_composite_meanings_join_with_space_atomic_with_ampersand():
    for code, (_, meaning) in OUTPUT_ROWS.items():
        atoms = sum(octal_to_bits(code).as_tuple())
        if atoms >= 2:
            assert " " in meaning and "&" not in meaning
        else:
            assert "&" in meaning and " " not in meaning


def test_decide_reaches_exactly_the_atomic_rows():
    seen = set()
    for k in range(101):
        record = decide(Claim(Polarity.POSITIVE, "X"), k / 100, BANDS)
        seen.add(record.output_meaning)
    assert seen == {"PA'&NR'", "PR'&NR'", "PR'&NA'"}


def test_psi_matches_frozen_map():
    for label, code in PSI.items():
        assert psi(label) == code
        assert psi(ModalString(label)) == code
    assert psi("OI") == 6
    assert psi("DOI") == 7
    assert psi("DI") == 5
    for bad in ("X", "IX"):
        with pytest.raises(ValueError):
            psi(bad)


def test_psi_equals_bit_weight_composition():
    for m in MODALS_BY_OCTAL:
        assert psi(m) == bits_to_octal(modal_to_bits(m))


def test_psi_is_an_isomorphism():
    for m in MODALS_BY_OCTAL:
        assert psi(m.complement()) == neg(psi(m))
        for w in MODALS_BY_OCTAL:
            assert psi(m.union(w)) == sum_(psi(m), psi(w))
            assert psi(m.intersection(w)) == product(psi(m), psi(w))


def test_atomic_codes_compose():
    assert product(psi(MODAL_I), psi(MODAL_D)) == 0
    assert sum_(psi(MODAL_I), psi(MODAL_D)) == 5


def test_defuzzify():
    assert defuzzify(MODAL_I) == 1
    assert defuzzify(MODAL_D) == 0
    assert defuzzify(MODAL_O) is UNDECIDABLE
    assert defuzzify("I") == 1
    with pytest.raises(ValueError):
        defuzzify("ID")
    with pytest.raises(ValueError):
        defuzzify("E")
    for composite in (ModalString("IO"), ModalString("")):
        with pytest.raises(ValueError):
            defuzzify(composite)


# bands a calibration derived; a float32 or float16 score near either edge
# differs from its float64 value, so only a float64 comparison agrees with
# the batch path
NARROW = ScoreBands(n=0.6137, p=0.6329, target_rate=1e-4)
NARROW_EDGES = [float(x) for t in (NARROW.n, NARROW.p)
                for x in (t, np.nextafter(np.float32(t), np.float32(0.0)),
                          np.nextafter(np.float32(t), np.float32(1.0)))]


@given(st.sampled_from(SCALAR_TYPES),
       st.one_of(st.sampled_from(NARROW_EDGES), scores),
       st.sampled_from(list(Polarity)))
@example(np.float32, NARROW.p, Polarity.POSITIVE)
@example(np.float16, NARROW.p, Polarity.POSITIVE)
def test_scalar_decide_agrees_with_batch(kind, value, polarity):
    score = kind(value)
    claim = Claim(polarity=polarity, claimed_identity="u1")
    want = decide(claim, score, NARROW)
    [got] = _decide_many(claim, np.array([score], dtype=np.float64), NARROW)
    assert [(k, type(v), v) for k, v in vars(got).items()] == \
        [(k, type(v), v) for k, v in vars(want).items()]
    assert got.to_record() == want.to_record()

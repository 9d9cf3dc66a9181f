"""Acceptance gate: one test and one printed PASS/FAIL line per shipped
guarantee.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are stated inline; everything not marked approximate is
an exact comparison.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from irislogic.calibration import (
    LabeledScores,
    comfort_report,
    derive_bands,
    empirical_curves,
    RateCurves,
)
from irislogic.cli import main
from irislogic.decision_engine import (
    Claim,
    Polarity,
    Response,
    ScoreBands,
    decide,
    output_encoding,
    psi,
)
from irislogic.enrollment import (
    Gallery,
    Template,
    bits_to_hex,
    consistency_check,
    enroll,
    generate_population,
    pair_scores,
)
from irislogic.octal_algebra import (
    ELEMENTS,
    MODALS_BY_OCTAL,
    ModalString,
    bits_to_octal,
    entropy,
    generate_table,
    join_via_order,
    meet_via_order,
    modal_to_bits,
    neg,
    product,
    product_oracle,
    relative_complement,
    subalgebra_closure,
    sum_,
    sum_oracle,
)

from table_data import DECISION_MATRIX, OUTPUT_ROWS, PRODUCT, SUM


@contextmanager
def criterion(number, title):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} {title}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} {title}: PASS ({elapsed:.2f}s)")


def test_criterion_01_operation_tables():
    with criterion(1, "operation tables and entropy columns"):
        start = time.perf_counter()
        assert generate_table("product") == PRODUCT
        assert generate_table("sum") == SUM
        assert [entropy(a, "product") for a in ELEMENTS] == \
            [1, 2, 2, 4, 2, 4, 4, 8]
        assert [entropy(a, "sum") for a in ELEMENTS] == \
            [8, 4, 4, 2, 4, 2, 2, 1]
        assert time.perf_counter() - start < 1.0


def test_criterion_02_three_constructions_agree():
    with criterion(2, "arithmetic, bitwise and order constructions agree"):
        start = time.perf_counter()
        for a in ELEMENTS:
            for b in ELEMENTS:
                assert product(a, b) == product_oracle(a, b) \
                    == meet_via_order(a, b)
                assert sum_(a, b) == sum_oracle(a, b) \
                    == join_via_order(a, b)
        assert time.perf_counter() - start < 1.0


def test_criterion_03_boolean_axioms_over_all_triples():
    with criterion(3, "Boolean axioms over all 512 triples"):
        start = time.perf_counter()
        for a in ELEMENTS:
            assert product(a, neg(a)) == 0
            assert sum_(a, neg(a)) == 7
            assert neg(neg(a)) == a
            for b in ELEMENTS:
                assert product(a, b) == product(b, a)
                assert sum_(a, b) == sum_(b, a)
                assert product(a, sum_(a, b)) == a
                assert sum_(a, product(a, b)) == a
                assert neg(product(a, b)) == sum_(neg(a), neg(b))
                assert neg(sum_(a, b)) == product(neg(a), neg(b))
                for c in ELEMENTS:
                    assert product(a, product(b, c)) == \
                        product(product(a, b), c)
                    assert sum_(a, sum_(b, c)) == sum_(sum_(a, b), c)
                    assert product(a, sum_(b, c)) == \
                        sum_(product(a, b), product(a, c))
                    assert sum_(a, product(b, c)) == \
                        product(sum_(a, b), sum_(a, c))
        assert time.perf_counter() - start < 1.0


def test_criterion_04_defuzzification_bijection():
    with criterion(4, "modal-to-integer bijection is an isomorphism"):
        for m in MODALS_BY_OCTAL:
            assert psi(m) == bits_to_octal(modal_to_bits(m))
        for m in MODALS_BY_OCTAL:
            assert psi(m.complement()) == neg(psi(m))
            for w in MODALS_BY_OCTAL:
                assert psi(m.union(w)) == sum_(psi(m), psi(w))
                assert psi(m.intersection(w)) == product(psi(m), psi(w))


def test_criterion_05_atomic_code_arithmetic():
    with criterion(5, "atomic code arithmetic and the {0,1,4,5} closure"):
        assert product(4, 1) == 0
        assert sum_(4, 1) == 5
        sub = subalgebra_closure({1, 4})
        assert sub == {0, 1, 4, 5}
        assert relative_complement(1, 5) == 4
        assert relative_complement(4, 5) == 1
        assert sum_(5, 2) == 7


def test_criterion_06_decision_matrix_and_output_rows():
    with criterion(6, "claim decision matrix and all 8 output rows"):
        bands = ScoreBands(n=0.3725, p=0.55)
        rep_score = {"I": 0.9, "O": 0.45, "D": 0.1}
        for (polarity, modal), response in DECISION_MATRIX.items():
            record = decide(Claim(Polarity(polarity), "X"),
                            rep_score[modal], bands)
            assert record.modal == ModalString(modal)
            assert record.response == Response(response)
        for code, (expected_out, expected_meaning) in OUTPUT_ROWS.items():
            out, bits, meaning = output_encoding(MODALS_BY_OCTAL[code])
            assert out == expected_out
            assert bits_to_octal(bits) == expected_out
            assert meaning == expected_meaning


def test_criterion_07_discomfort_arithmetic():
    with criterion(7, "discomfort totals at the reference rates"):
        # rates pinned externally; only the arithmetic is checked here
        grid = np.linspace(0.0, 1.0, 401)
        far = np.zeros(401)
        frr = np.zeros(401)
        far[149] = 1.42e-4      # t = 0.3725
        frr[220] = 2.7e-4       # t = 0.55
        curves = RateCurves(grid=grid, far=far, frr=frr,
                            pofa=np.zeros(401), pofr=np.zeros(401))
        report = comfort_report(curves, ScoreBands(n=0.3725, p=0.55))
        assert report.genuine_discomfort == pytest.approx(2.7e-4,
                                                          abs=1e-12)
        assert report.imposter_discomfort == pytest.approx(1.42e-4,
                                                           abs=1e-12)
        assert report.total_discomfort == pytest.approx(4.12e-4,
                                                        abs=1e-12)


def _population_scores(seed):
    templates = generate_population(50, 10, 1024, 0.15, seed)
    i, j, scores = pair_scores(templates)
    identity = np.array([t.identity for t in templates])
    genuine = identity[i] == identity[j]
    return LabeledScores(genuine=scores[genuine], imposter=scores[~genuine])


def test_criterion_08_calibration_properties():
    with criterion(8, "seeded calibration meets a 1e-6 target"):
        start = time.perf_counter()
        target = 1e-6
        calibration = _population_scores(801)
        curves = empirical_curves(calibration, grid_step=1e-4)
        bands = derive_bands(curves, target)
        assert bands.n < bands.p
        # envelopes are pessimistic, empirical curves monotone
        assert (curves.pofa >= curves.far).all()
        assert (curves.pofr >= curves.frr).all()
        assert (np.diff(curves.far) <= 0).all()
        assert (np.diff(curves.frr) >= 0).all()
        # held-out pairs from a second seed stay under 10 x target
        holdout = empirical_curves(_population_scores(802), grid_step=1e-4)
        assert holdout.far_at(bands.p) < 10 * target
        assert holdout.frr_at(bands.n) < 10 * target
        assert time.perf_counter() - start < 60.0


def test_criterion_09_gated_galleries_stay_consistent():
    with criterion(9, "100 gated galleries stay consistent"):
        start = time.perf_counter()
        bands = ScoreBands(n=0.6, p=0.75, target_rate=1e-6)
        gallery = None
        for seed in range(100):
            population = generate_population(4, 3, 512, 0.05, seed)
            gallery = Gallery(bands=bands)
            for t in population:
                assert enroll(gallery, t).accepted
            report = consistency_check(gallery)
            assert report.passed
            assert report.undecidable_pairs == ()
        # hand-inject a template that scores inside the uncertainty band
        anchor = gallery.enrolled[0]
        bits = anchor.bits.copy()
        bits[:166] = 1 - bits[:166]
        intruder = Template(bits=bits, identity="intruder",
                            template_id="intruder_1")
        assert not enroll(gallery, intruder).accepted   # the gate says no
        gallery.enrolled.append(intruder)               # bypass it by hand
        report = consistency_check(gallery)
        assert not report.passed
        assert len(report.undecidable_pairs) > 0
        assert time.perf_counter() - start < 60.0


def test_criterion_10_byte_determinism(tmp_path):
    with criterion(10, "repeated pipelines are byte-identical"):
        # the calibration pipeline, twice, through the command line
        sim_argv = ["simulate", "--identities", "50", "--samples-per",
                    "10", "--bits", "1024", "--flip", "0.15", "--seed",
                    "801", "--out"]
        outputs = []
        for tag in ("a", "b"):
            scores = tmp_path / f"scores_{tag}.csv"
            bands = tmp_path / f"bands_{tag}.json"
            curves = tmp_path / f"curves_{tag}.csv"
            assert main(sim_argv + [str(scores)]) == 0
            assert main(["calibrate", "--scores", str(scores), "--target",
                         "1e-6", "--out", str(bands), "--curves-out",
                         str(curves)]) == 0
            outputs.append((scores.read_bytes(), bands.read_bytes(),
                            curves.read_bytes()))
        assert outputs[0] == outputs[1]

        # the enrollment pipeline, twice, same seeded templates
        bands_doc = tmp_path / "enroll_bands.json"
        bands_doc.write_text(json.dumps({"n": "0.6", "p": "0.75",
                                         "target_rate": "1e-06"}))
        population = generate_population(4, 3, 512, 0.05, seed=0)
        galleries = []
        for tag in ("a", "b"):
            gallery = tmp_path / f"gallery_{tag}.json"
            for t in population:
                assert main(["enroll", "--gallery", str(gallery),
                             "--bands", str(bands_doc), "--identity",
                             t.identity, "--template-id", t.template_id,
                             "--bits-hex", bits_to_hex(t.bits)]) == 0
            galleries.append(gallery.read_bytes())
        assert galleries[0] == galleries[1]

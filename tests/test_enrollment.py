"""Templates, similarity, population synthesis, gated enrollment, audits."""

import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irislogic.decision_engine import (
    Claim,
    Polarity,
    Response,
    ScoreBands,
    classify,
    defuzzify,
)
from irislogic.enrollment import (
    Gallery,
    Template,
    bits_from_hex,
    bits_to_hex,
    consistency_check,
    enroll,
    generate_population,
    load_gallery,
    pair_scores,
    partition,
    save_gallery,
    similarity,
    verify,
)
from irislogic.octal_algebra import MODAL_O

BANDS = ScoreBands(n=0.6, p=0.75, target_rate=1e-6)


def tpl(bits, identity="x", template_id="x_1"):
    return Template(bits=np.asarray(bits, dtype=np.uint8),
                    identity=identity, template_id=template_id)


def flipped(base, start, stop, identity, template_id):
    bits = base.copy()
    bits[start:stop] = 1 - bits[start:stop]
    return Template(bits=bits, identity=identity, template_id=template_id)


def noisy_copies(bit_length, count, seed):
    """Copies of one random code, each with its own flip rate in [0, 0.5),
    so pair scores spread over all three bands."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 2, bit_length, dtype=np.uint8)
    out = []
    for k, rate in enumerate(rng.random(count) * 0.5):
        flips = rng.random(bit_length) < rate
        out.append(tpl(np.where(flips, 1 - base, base), f"id{k % 3}",
                       f"t{k}"))
    return out


random_populations = st.tuples(st.integers(1, 300), st.integers(1, 8),
                               st.integers(0, 2 ** 32 - 1))


@pytest.fixture
def base_bits():
    return np.random.default_rng(99).integers(0, 2, 1000, dtype=np.uint8)


class TestTemplate:
    def test_validation(self):
        with pytest.raises(ValueError):
            tpl([])
        with pytest.raises(ValueError):
            tpl([0, 1, 2])
        with pytest.raises(ValueError):
            Template(bits=np.zeros((2, 2), dtype=np.uint8),
                     identity="x", template_id="x_1")

    def test_bits_coerced_to_uint8(self):
        t = tpl([0, 1, 1, 0])
        assert t.bits.dtype == np.uint8


class TestSimilarity:
    def test_exact_values(self):
        a = tpl([1, 0, 1, 0])
        assert similarity(a, a) == 1.0
        assert similarity(a, tpl([0, 1, 0, 1])) == 0.0
        assert similarity(a, tpl([1, 0, 1, 1])) == 0.75

    def test_quarter_disagreement(self, base_bits):
        big = np.concatenate([base_bits, base_bits[:24]])  # 1024 bits
        a = tpl(big)
        b = flipped(big, 0, 256, "y", "y_1")
        assert similarity(a, b) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            similarity(tpl([1, 0]), tpl([1, 0, 1]))
        with pytest.raises(ValueError, match="bit lengths differ: 2 vs 3"):
            pair_scores([tpl([1, 0]), tpl([1, 0, 1])])
        gallery = Gallery(bands=BANDS, enrolled=[tpl([1, 0, 1])])
        with pytest.raises(ValueError, match="bit lengths differ: 2 vs 3"):
            enroll(gallery, tpl([1, 0], "y", "y_1"))
        assert len(gallery.enrolled) == 1

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 24 - 1), st.integers(0, 2 ** 24 - 1),
           st.integers(0, 2 ** 24 - 1))
    def test_metric_properties(self, x, y, z):
        def to_template(v, name):
            bits = [(v >> i) & 1 for i in range(24)]
            return tpl(bits, name, name)

        a, b, c = (to_template(v, n) for v, n in ((x, "a"), (y, "b"),
                                                  (z, "c")))
        assert similarity(a, b) == similarity(b, a)
        assert 0.0 <= similarity(a, b) <= 1.0
        # 1 - similarity is a metric, so the triangle inequality holds
        dab = 1.0 - similarity(a, b)
        dbc = 1.0 - similarity(b, c)
        dac = 1.0 - similarity(a, c)
        assert dac <= dab + dbc + 1e-12


class TestGeneratePopulation:
    def test_shape_and_naming(self):
        pop = generate_population(3, 4, 128, 0.1, seed=5)
        assert len(pop) == 12
        assert pop[0].identity == "id0000"
        assert pop[0].template_id == "id0000_s000"
        assert pop[11].identity == "id0002"
        assert pop[11].template_id == "id0002_s003"
        assert all(t.bits.size == 128 for t in pop)

    def test_deterministic(self):
        first = generate_population(4, 3, 256, 0.12, seed=42)
        second = generate_population(4, 3, 256, 0.12, seed=42)
        assert all(np.array_equal(a.bits, b.bits)
                   for a, b in zip(first, second))
        third = generate_population(4, 3, 256, 0.12, seed=43)
        assert any(not np.array_equal(a.bits, b.bits)
                   for a, b in zip(first, third))

    def test_zero_flip_gives_identical_samples(self):
        pop = generate_population(2, 3, 64, 0.0, seed=1)
        for t in pop[1:3]:
            assert similarity(pop[0], t) == 1.0

    def test_flip_rate_is_roughly_honored(self):
        pop = generate_population(1, 2, 20000, 0.15, seed=8)
        observed = 1.0 - similarity(pop[0], pop[1])
        # two samples differ where exactly one of them flipped
        expected = 2 * 0.15 * 0.85
        assert abs(observed - expected) < 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_population(0, 1, 10, 0.1, seed=0)
        with pytest.raises(ValueError):
            generate_population(1, 1, 10, 0.5, seed=0)
        with pytest.raises(ValueError):
            generate_population(1, 1, 10, -0.1, seed=0)


class TestPairScores:
    def test_matches_similarity_exactly(self):
        pop = generate_population(5, 3, 512, 0.2, seed=17)
        i, j, scores = pair_scores(pop)
        assert scores.size == 15 * 14 // 2
        for a, b, s in zip(i, j, scores):
            assert s == similarity(pop[a], pop[b])

    @settings(max_examples=60, deadline=None)
    @given(random_populations)
    def test_differential_against_similarity(self, population):
        # lengths that are not multiples of 8 leave padding bits in the
        # packed codes; they must never count as agreements
        pop = noisy_copies(*population)
        i, j, scores = pair_scores(pop)
        pairs = list(combinations(range(len(pop)), 2))
        assert list(zip(i.tolist(), j.tolist())) == pairs
        assert scores.tolist() == [similarity(pop[a], pop[b])
                                   for a, b in pairs]

    def test_pair_order(self):
        pop = generate_population(2, 2, 32, 0.1, seed=2)
        i, j, _ = pair_scores(pop)
        ids = [(pop[a].template_id, pop[b].template_id)
               for a, b in zip(i, j)]
        assert ids[0] == ("id0000_s000", "id0000_s001")
        assert ids[-1] == ("id0001_s000", "id0001_s001")

    def test_degenerate_inputs(self):
        for templates in ([], [tpl([1, 0])]):
            assert [col.size for col in pair_scores(templates)] == [0, 0, 0]


class TestPartition:
    def test_counts_and_tags(self):
        scores = [0.9, 0.8, 0.75, 0.7, 0.65, 0.6, 0.5, 0.2]
        report = partition(scores, BANDS)
        assert report.icp_count == 8
        assert report.genuine_count == 3      # >= 0.75
        assert report.imposter_count == 3     # <= 0.6
        assert report.uicp_count == 2
        assert report.eicp_count == 6
        # region tags live in the algebra: I+D, O, and their join
        assert report.eicp_tag == 5
        assert report.uicp_tag == 2
        assert report.icp_tag == 7

    def test_counts_are_a_partition(self):
        pop = generate_population(6, 3, 256, 0.18, seed=3)
        _, _, scores = pair_scores(pop)
        report = partition(scores, BANDS)
        assert report.eicp_count + report.uicp_count == report.icp_count
        assert report.genuine_count + report.imposter_count == \
            report.eicp_count

    def test_scores_outside_the_unit_interval_rejected(self):
        for bad in (-0.01, 1.01, float("nan")):
            with pytest.raises(ValueError, match="score must be in"):
                partition([0.5, bad], BANDS)


class TestEnroll:
    def test_first_candidate_always_joins(self, base_bits):
        gallery = Gallery(bands=BANDS)
        result = enroll(gallery, tpl(base_bits, "alice", "alice_1"))
        assert result.accepted
        assert len(gallery.enrolled) == 1

    def test_gate_rejects_uncertain_comparison(self, base_bits):
        gallery = Gallery(bands=BANDS)
        anchor = tpl(base_bits, "alice", "alice_1")
        enroll(gallery, anchor)
        # 300 of 1000 bits differ: similarity 0.7 sits inside (0.6, 0.75)
        shady = flipped(base_bits, 0, 300, "mallory", "mallory_1")
        result = enroll(gallery, shady)
        assert not result.accepted
        assert result.conflicting_ids == ("alice_1",)
        assert len(gallery.enrolled) == 1

    def test_gate_admits_crisp_comparisons(self, base_bits):
        gallery = Gallery(bands=BANDS)
        enroll(gallery, tpl(base_bits, "alice", "alice_1"))
        twin = flipped(base_bits, 0, 100, "alice", "alice_2")    # 0.9: I
        stranger = flipped(base_bits, 0, 500, "bob", "bob_1")    # 0.5: D
        assert enroll(gallery, twin).accepted
        # stranger vs twin: 400 of 1000 differ, 0.6 is still D (closed band)
        assert enroll(gallery, stranger).accepted
        assert len(gallery.enrolled) == 3
        assert gallery.identities() == {"alice", "bob"}
        assert gallery.bit_length() == 1000

    @settings(max_examples=60, deadline=None)
    @given(random_populations)
    def test_gate_matches_scalar_reference(self, population):
        *enrolled, candidate = noisy_copies(*population)
        gallery = Gallery(bands=BANDS, enrolled=list(enrolled))
        expected = tuple(
            t.template_id for t in enrolled
            if classify(similarity(candidate, t), BANDS) == MODAL_O)
        result = enroll(gallery, candidate)
        assert result.conflicting_ids == expected
        assert result.accepted == (not expected)
        assert len(gallery.enrolled) == len(enrolled) + result.accepted


class TestVerify:
    @pytest.fixture
    def gallery(self, base_bits):
        g = Gallery(bands=BANDS)
        assert enroll(g, tpl(base_bits, "alice", "alice_1")).accepted
        assert enroll(g, flipped(base_bits, 0, 100, "alice",
                                 "alice_2")).accepted
        assert enroll(g, flipped(base_bits, 0, 500, "bob",
                                 "bob_1")).accepted
        return g

    def test_positive_claim_accepted(self, gallery, base_bits):
        probe = flipped(base_bits, 100, 180, "alice", "probe")   # 0.92 vs a1
        result = verify(gallery, probe,
                        Claim(Polarity.POSITIVE, "alice"))
        assert result.overall == Response.ACCEPTED
        assert result.conflicting_ids == ()
        assert len(result.target_records) == 3

    def test_best_score_wins_the_claim(self, gallery, base_bits):
        probe = flipped(base_bits, 0, 80, "alice", "probe")
        result = verify(gallery, probe, Claim(Polarity.POSITIVE, "alice"))
        # vs alice_1: 0.92; vs alice_2: bits 80..100 differ, 0.98
        assert result.claim_record.score == 0.98
        assert result.overall == Response.ACCEPTED

    def test_negative_claim_inverts(self, gallery, base_bits):
        probe = flipped(base_bits, 100, 180, "alice", "probe")
        result = verify(gallery, probe,
                        Claim(Polarity.NEGATIVE, "alice"))
        assert result.overall == Response.REJECTED

    def test_any_uncertain_comparison_forces_repeat(self, gallery,
                                                    base_bits):
        # vs alice_1: 0.65 (O); vs alice_2: bits 100..350 differ, 0.75 (I)
        probe = flipped(base_bits, 0, 350, "alice", "probe")
        result = verify(gallery, probe, Claim(Polarity.POSITIVE, "alice"))
        assert result.claim_record.response == Response.ACCEPTED
        assert result.overall == Response.REPEAT
        assert "alice_1" in result.conflicting_ids

    def test_unknown_identity_rejected(self, gallery, base_bits):
        with pytest.raises(ValueError):
            verify(gallery, tpl(base_bits, "eve", "probe"),
                   Claim(Polarity.POSITIVE, "eve"))


class TestConsistencyCheck:
    def test_clean_gallery_passes(self):
        pop = generate_population(4, 3, 512, 0.05, seed=31)
        gallery = Gallery(bands=BANDS)
        for t in pop:
            assert enroll(gallery, t).accepted
        report = consistency_check(gallery)
        assert report.passed
        assert report.pair_count == 66
        assert report.crisp_one_count == 12    # 4 identities x C(3,2)
        assert report.crisp_zero_count == 54
        assert report.undecidable_pairs == ()
        assert report.recognition_errors == 0
        empty = consistency_check(Gallery(bands=BANDS))
        assert empty.passed and empty.pair_count == 0

    def test_planted_uncertain_pair_fails(self, base_bits):
        gallery = Gallery(bands=BANDS)
        gallery.enrolled.append(tpl(base_bits, "alice", "alice_1"))
        gallery.enrolled.append(flipped(base_bits, 0, 300, "bob", "bob_1"))
        report = consistency_check(gallery)
        assert not report.passed
        assert report.undecidable_pairs == (("alice_1", "bob_1", 0.7),)

    @settings(max_examples=60, deadline=None)
    @given(random_populations)
    def test_matches_scalar_reference(self, population):
        gallery = Gallery(bands=BANDS, enrolled=noisy_copies(*population))
        undecidable, crisp = [], []
        for a, b in combinations(gallery.enrolled, 2):
            s = similarity(a, b)
            value = defuzzify(classify(s, BANDS))
            if value is None:
                undecidable.append((a.template_id, b.template_id, s))
            else:
                crisp.append((value, int(a.identity == b.identity)))
        report = consistency_check(gallery)
        assert report.passed == (not undecidable)
        assert report.pair_count == len(undecidable) + len(crisp)
        assert report.undecidable_pairs == tuple(undecidable)
        assert report.crisp_one_count == sum(v for v, _ in crisp)
        assert report.crisp_zero_count == sum(1 - v for v, _ in crisp)
        assert report.recognition_errors == sum(v != t for v, t in crisp)

    def test_recognition_error_does_not_fail_the_check(self, base_bits):
        # two labels share a code: crisp 1 against distinct identities
        gallery = Gallery(bands=BANDS)
        gallery.enrolled.append(tpl(base_bits, "alice", "alice_1"))
        gallery.enrolled.append(tpl(base_bits, "bob", "bob_1"))
        report = consistency_check(gallery)
        assert report.passed
        assert report.recognition_errors == 1
        assert report.crisp_one_count == 1


class TestPersistence:
    def test_hex_round_trip(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1],
                        dtype=np.uint8)
        assert np.array_equal(bits_from_hex(bits_to_hex(bits), 12), bits)

    def test_hex_padding_must_be_zero(self):
        bits = np.ones(12, dtype=np.uint8)
        payload = bits_to_hex(np.ones(16, dtype=np.uint8))
        with pytest.raises(ValueError):
            bits_from_hex(payload, 12)
        assert np.array_equal(bits_from_hex(bits_to_hex(bits), 12), bits)

    def test_hex_payload_too_short(self):
        with pytest.raises(ValueError):
            bits_from_hex("ff", 16)

    def test_hex_payload_too_long(self):
        # only the last byte may carry padding; extra zero bytes are refused
        for payload in ("60f500", "60f50000"):
            with pytest.raises(ValueError):
                bits_from_hex(payload, 16)
        with pytest.raises(ValueError):
            bits_from_hex("60f0", 4)
        assert bits_from_hex("60f0", 12).size == 12

    def test_gallery_round_trip(self, tmp_path, base_bits):
        gallery = Gallery(bands=BANDS)
        enroll(gallery, tpl(base_bits, "alice", "alice_1"))
        enroll(gallery, flipped(base_bits, 0, 500, "bob", "bob_1"))
        path = tmp_path / "gallery.json"
        save_gallery(gallery, path)
        loaded = load_gallery(path)
        assert loaded.bands == gallery.bands
        assert [t.template_id for t in loaded.enrolled] == \
            ["alice_1", "bob_1"]
        assert all(np.array_equal(a.bits, b.bits)
                   for a, b in zip(loaded.enrolled, gallery.enrolled))

    def test_save_is_byte_stable(self, tmp_path, base_bits):
        gallery = Gallery(bands=BANDS)
        enroll(gallery, tpl(base_bits, "alice", "alice_1"))
        first = tmp_path / "g1.json"
        second = tmp_path / "g2.json"
        save_gallery(gallery, first)
        save_gallery(gallery, second)
        assert first.read_bytes() == second.read_bytes()

    def test_saved_layout_is_pinned(self, tmp_path):
        gallery = Gallery(bands=BANDS, enrolled=[
            tpl([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1], "alice", "alice_1"),
            tpl([0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 1, 0], "bob", "bob_1"),
        ])
        path = tmp_path / "gallery.json"
        save_gallery(gallery, path)
        assert path.read_text() == """\
{
  "bands": {
    "n": "0.6",
    "p": "0.75",
    "target_rate": "1e-06"
  },
  "bit_length": 12,
  "templates": [
    {
      "bits": "b2d0",
      "identity": "alice",
      "template_id": "alice_1"
    },
    {
      "bits": "69e0",
      "identity": "bob",
      "template_id": "bob_1"
    }
  ]
}
"""

    def test_malformed_document_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"templates": []}))
        with pytest.raises(ValueError):
            load_gallery(path)

    def test_duplicate_template_id_rejected(self, tmp_path):
        gallery = Gallery(bands=BANDS, enrolled=[
            tpl([1, 0, 1, 1], "alice", "a_1"),
            tpl([0, 1, 1, 0], "bob", "b_1"),
            tpl([0, 0, 1, 0], "bob", "a_1"),
        ])
        path = tmp_path / "gallery.json"
        save_gallery(gallery, path)
        with pytest.raises(ValueError, match="duplicate template_id 'a_1'"):
            load_gallery(path)

"""Templates, similarity, population synthesis, gated enrollment, audits."""

import json
import os
import tracemalloc
from dataclasses import FrozenInstanceError
from functools import reduce
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from irislogic import decision_engine, enrollment
from irislogic.calibration import _bands_from_doc, _reading
from irislogic.decision_engine import (
    Claim,
    DecisionRecord,
    Polarity,
    Response,
    ScoreBands,
    classify,
    decide,
    defuzzify,
    psi,
)
from irislogic.enrollment import (
    ConsistencyReport,
    Gallery,
    Template,
    VerifyResult,
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
from irislogic.octal_algebra import BOTTOM, MODAL_D, MODAL_I, MODAL_O, sum_

from table_data import GALLERY_12_BITS

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


def scalar_verify(gallery, probe, claim):
    """Reference verify: similarity() and decide() once per target."""
    claimed = [t for t in gallery.enrolled
               if t.identity == claim.claimed_identity]
    if not claimed:
        raise ValueError(
            f"identity {claim.claimed_identity!r} is not enrolled")
    records, conflicts = [], []
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


def scalar_consistency(enrolled, bands):
    """Reference consistency_check: similarity() and classify() per pair,
    judged against the identity labels."""
    undecidable = []
    ones = zeros = errors = 0
    for a, b in combinations(enrolled, 2):
        s = similarity(a, b)
        modal = classify(s, bands)
        if modal == MODAL_O:
            undecidable.append((a.template_id, b.template_id, s))
        ones += modal == MODAL_I
        zeros += modal == MODAL_D
        errors += modal == (MODAL_D if a.identity == b.identity else MODAL_I)
    return ConsistencyReport(passed=not undecidable,
                             pair_count=len(undecidable) + ones + zeros,
                             undecidable_pairs=tuple(undecidable),
                             crisp_one_count=ones, crisp_zero_count=zeros,
                             recognition_errors=errors)


@pytest.fixture
def base_bits():
    return np.random.default_rng(99).integers(0, 2, 1000, dtype=np.uint8)


@st.composite
def bit_inputs(draw):
    """A 1-d array of uint8, bool, int64 or float64, or a Python list, that
    holds only 0s and 1s or any values of its type."""
    kind = draw(st.sampled_from(["uint8", "bool", "int64", "float64",
                                 "list"]))
    values = {"uint8": st.integers(0, 255), "bool": st.booleans(),
              "int64": st.integers(-2 ** 63, 2 ** 63 - 1),
              "float64": st.floats(),
              "list": st.one_of(st.booleans(), st.integers(-300, 300),
                                st.floats())}[kind]
    if draw(st.booleans()):
        values = st.sampled_from([0, 1, 0.0, 1.0, False, True]
                                 if kind == "list" else [0, 1])
    items = draw(st.lists(values, max_size=130))
    return items if kind == "list" else np.array(items, dtype=kind)


class TestTemplate:
    def test_validation(self):
        with pytest.raises(ValueError):
            tpl([])
        with pytest.raises(ValueError):
            tpl([0, 1, 2])
        with pytest.raises(ValueError, match="only 0 and 1"):
            Template(bits=[0, 2], identity="x", template_id="x_1")
        with pytest.raises(ValueError):
            Template(bits=np.zeros((2, 2), dtype=np.uint8),
                     identity="x", template_id="x_1")
        # values a uint8 cast would wrap or truncate into 0 or 1
        for bad in (np.array([256, 0]), np.array([-1, 0]), [0.9, 1],
                    [1, 0, 1.5], [np.nan, 1],
                    np.array([2, 0], dtype=np.uint8),
                    np.array([255], dtype=np.uint8)):
            with pytest.raises(ValueError, match="only 0 and 1"):
                Template(bits=bad, identity="x", template_id="x_1")
        for ok in ([True, False], np.array([True, False]), [1.0, 0.0]):
            t = Template(bits=ok, identity="x", template_id="x_1")
            assert t.bits.dtype == np.uint8 and t.bits.tolist() == [1, 0]

    @settings(max_examples=300, deadline=None)
    @given(bits=bit_inputs())
    def test_one_bit_rule_matches_the_two_way_check(self, bits):
        def two_way(bits):
            # a uint8 or bool shortcut beside the general 0/1 test, then
            # Template's packing
            raw = np.asarray(bits)
            if raw.ndim != 1 or raw.size == 0:
                raise ValueError("bits must be a non-empty 1-d array")
            if not (raw.dtype in (np.uint8, np.bool_) and raw.max() <= 1
                    or ((raw == 0) | (raw == 1)).all()):
                raise ValueError("bits must contain only 0 and 1")
            arr = raw.astype(np.uint8)
            packed = np.zeros(-(-arr.size // 64) * 8, dtype=np.uint8)
            packed[:-(-arr.size // 8)] = np.packbits(arr)
            return arr.dtype, arr.tobytes(), packed.tobytes()

        def one_rule(bits):
            t = Template(bits=bits, identity="x", template_id="x_1")
            return t.bits.dtype, t.bits.tobytes(), t.packed.tobytes()

        def outcome(make):
            try:
                return make(bits)
            except ValueError as exc:
                return str(exc)

        assert outcome(one_rule) == outcome(two_way)

    @pytest.mark.parametrize("key", ["identity", "template_id"])
    @pytest.mark.parametrize("bad", [float("nan"), np.float64("nan")])
    def test_ids_must_equal_themselves(self, base_bits, key, bad):
        # a dict finds such an id by object identity, an == scan never: the
        # gallery paths and the scalar references would disagree on it
        ids = {"identity": "x", "template_id": "x_1", key: bad}
        with pytest.raises(ValueError, match="equal themselves"):
            Template(bits=base_bits, **ids)

    def test_bits_coerced_to_uint8(self):
        t = tpl([0, 1, 1, 0])
        assert t.bits.dtype == np.uint8

    def test_bits_are_a_read_only_copy(self):
        caller = np.array([1, 0, 1, 1], dtype=np.uint8)
        t = tpl(caller)
        with pytest.raises(ValueError):
            t.bits[0] = 0
        # a gallery copies packed once, so a write would leave it stale
        with pytest.raises(ValueError):
            t.packed[0] = 0
        caller[0] = 0
        assert caller.flags.writeable
        assert t.bits.tolist() == [1, 0, 1, 1]
        assert np.unpackbits(t.packed.view(np.uint8))[:4].tolist() == \
            [1, 0, 1, 1]

    @pytest.mark.parametrize("bit_length", [1, 7, 8, 63, 64, 65, 300])
    def test_packed_words(self, bit_length):
        bits = np.random.default_rng(bit_length).integers(
            0, 2, bit_length, dtype=np.uint8)
        bits[-1] = 1
        t = tpl(bits)
        assert t.packed.dtype == np.uint64
        assert t.packed.size == -(-bit_length // 64)
        unpacked = np.unpackbits(t.packed.view(np.uint8))
        assert np.array_equal(unpacked[:bit_length], bits)
        assert not unpacked[bit_length:].any()


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
        with pytest.raises(ValueError, match="bit lengths differ: 2 vs 3"):
            verify(gallery, tpl([1, 0]), Claim(Polarity.POSITIVE, "x"))

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


def reference_population(identities, samples_per_identity, bit_length,
                         flip_probability, seed):
    """Reference generator: one validating Template() per sample, drawn
    from the random stream generate_population draws from."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(identities):
        master = rng.integers(0, 2, size=bit_length, dtype=np.uint8)
        for j in range(samples_per_identity):
            flips = rng.random(bit_length) < flip_probability
            out.append(Template(bits=master ^ flips, identity=f"id{i:04d}",
                                template_id=f"id{i:04d}_s{j:03d}"))
    return out


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

    @pytest.mark.parametrize("bit_length",
                             [1, 7, 63, 64, 65, 130, 1024, 2048])
    def test_matches_one_template_per_sample(self, bit_length):
        for samples in range(1, 6):
            args = (3, samples, bit_length, 0.2, bit_length + samples)
            got = generate_population(*args)
            want = reference_population(*args)
            assert len(got) == len(want) == 3 * samples
            for g, w in zip(got, want):
                assert type(g) is Template
                assert (g.identity, g.template_id) == (w.identity,
                                                       w.template_id)
                for name in ("bits", "packed"):
                    a, b = getattr(g, name), getattr(w, name)
                    assert (a.dtype, a.shape) == (b.dtype, b.shape)
                    assert a.tobytes() == b.tobytes()
                    # read-only, and so is any array they view
                    for arr in (a, b):
                        assert not arr.flags.writeable
                        assert arr.base is None or \
                            not arr.base.flags.writeable

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


class TestScores:
    @pytest.mark.parametrize("bit_length",
                             [1, 7, 63, 64, 65, 1024, 2048, 4097])
    @pytest.mark.parametrize("count", [0, 1, 1001])
    def test_matches_integer_row_sums(self, bit_length, count):
        rng = np.random.default_rng(bit_length * 7919 + count)
        bits = rng.integers(0, 2, (max(count, 1), bit_length), np.uint8)
        # packed as load_gallery packs a file: whole uint64 words, zero pad
        packed = np.zeros((len(bits), -(-bit_length // 64) * 8), np.uint8)
        packed[:, :-(-bit_length // 8)] = np.packbits(bits, axis=1)
        rows = packed.view(np.uint64)[:count]
        # a random probe, row 0 itself and row 0's complement
        for probe, first in [(rng.integers(0, 2, bit_length, np.uint8), None),
                             (bits[0], 1.0), (1 - bits[0], 0.0)]:
            packed_probe = tpl(probe).packed
            got = enrollment._agreements(rows, packed_probe, bit_length)
            # the integer popcount sum the float64 product replaced
            want = bit_length - np.bitwise_count(rows ^ packed_probe).sum(
                axis=1, dtype=np.intp)
            assert got.dtype == want.dtype == np.intp
            assert got.shape == (count,)
            assert got.tobytes() == want.tobytes()
            # the scores pair_scores and verify take from the counts
            assert (got / bit_length).tolist() == \
                [similarity(tpl(probe), tpl(b)) for b in bits[:count]]
            if count and first is not None:
                assert got[0] == first * bit_length


    def test_exact_past_the_float32_integer_range(self):
        # about 2 MB a row: from 2**24 on, float32 cannot hold every whole
        # number up to L, and a float32 sum of the word counts rounds
        bit_length = 2 ** 24 + 65
        used = -(-bit_length // 8)
        raw = np.zeros((3, -(-bit_length // 64) * 8), np.uint8)
        raw[0, :used] = np.random.default_rng(24).integers(0, 256, used)
        raw[1, :used] = ~raw[0, :used]
        raw[2, :used] = np.random.default_rng(25).integers(0, 256, used)
        # zero padding bits: the last used byte keeps its top bit only
        raw[:, used - 1] &= 0xFF << -bit_length % 8 & 0xFF
        rows = raw.view(np.uint64)
        assert enrollment._agreements(rows[:2], rows[0], bit_length).tolist() \
            == [bit_length, 0]
        assert enrollment._agreements(rows[:2], rows[1], bit_length).tolist() \
            == [0, bit_length]
        want = bit_length - np.bitwise_count(rows ^ rows[2]).sum(
            axis=1, dtype=np.intp)
        assert enrollment._agreements(rows, rows[2], bit_length).tolist() \
            == want.tolist()


@st.composite
def scores_and_bands(draw):
    """Any valid bands, and scores in [0, 1], the thresholds among them, as
    a list, a scalar or a 2-d array."""
    n, p = sorted(draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))))
    assume(n < p)
    score = st.one_of(st.floats(0.0, 1.0), st.sampled_from([n, p]))
    scores = draw(st.one_of(
        st.lists(score, max_size=20), score,
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                min_side=0, max_side=5),
                   elements=score)))
    return scores, ScoreBands(n=n, p=p, target_rate=1e-6)


def joined(codes):
    """The join of psi codes, BOTTOM for none: the reference tag."""
    return reduce(sum_, codes, BOTTOM)


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

    @settings(max_examples=200, deadline=None)
    @given(scores_and_bands())
    @example(([0.9], BANDS))
    @example(([0.1, 0.2], BANDS))
    @example(([], BANDS))
    def test_tags_are_the_joins_of_the_codes_held(self, case):
        scores, bands = case
        codes = [psi(classify(s, bands)) for s in np.ravel(scores).tolist()]
        i, o, d = (psi(m) for m in (MODAL_I, MODAL_O, MODAL_D))
        report = partition(scores, bands)
        assert (report.icp_count, report.eicp_count, report.uicp_count,
                report.genuine_count, report.imposter_count) == (
            len(codes), codes.count(i) + codes.count(d), codes.count(o),
            codes.count(i), codes.count(d))
        assert (report.icp_tag, report.eicp_tag, report.uicp_tag) == (
            joined(codes), joined(c for c in codes if c != o),
            joined(c for c in codes if c == o))


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

    def test_duplicate_template_id_rejected(self, base_bits):
        gallery = Gallery(bands=BANDS)
        enroll(gallery, tpl(base_bits, "alice", "alice_1"))
        # 0.9 is a crisp I, so only the id keeps this sample out
        twin = flipped(base_bits, 0, 100, "alice", "alice_1")
        with pytest.raises(ValueError,
                           match="^duplicate template_id 'alice_1'$"):
            enroll(gallery, twin)
        assert [t.template_id for t in gallery.enrolled] == ["alice_1"]

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

    def test_claim_unequal_to_itself_is_not_enrolled(self, gallery,
                                                     base_bits):
        # no template can hold it, so verify refuses it as the reference does
        claim = Claim(Polarity.POSITIVE, float("nan"))
        for check in (verify, scalar_verify):
            with pytest.raises(ValueError, match="not enrolled"):
                check(gallery, tpl(base_bits, "alice", "probe"), claim)

    def test_equal_scores_share_one_record(self, base_bits):
        g = Gallery(bands=BANDS, enrolled=[
            tpl(base_bits, "alice", "alice_1"),
            tpl(base_bits, "alice", "alice_2"),
            flipped(base_bits, 0, 500, "bob", "bob_1")])
        result = verify(g, tpl(base_bits, "alice", "probe"),
                        Claim(Polarity.POSITIVE, "alice"))
        (_, first), (_, second), _ = result.target_records
        assert first is second
        assert first.score == result.claim_record.score == 1.0

    @settings(max_examples=80, deadline=None)
    @given(random_populations.map(lambda p: (p[0], p[1] + 1, p[2])),
           st.sampled_from(Polarity), st.integers(0, 7))
    def test_differential_against_scalar_loop(self, population, polarity,
                                              pick):
        # bit lengths 1-300 leave padding bits in the last packed word
        *enrolled, probe = noisy_copies(*population)
        gallery = Gallery(bands=BANDS, enrolled=enrolled)
        claim = Claim(polarity, enrolled[pick % len(enrolled)].identity)
        assert verify(gallery, probe, claim) == \
            scalar_verify(gallery, probe, claim)

    @pytest.mark.parametrize("polarity", list(Polarity))
    def test_records_are_the_ones_decide_builds(self, polarity):
        # n and p are scores k/L: targets land on both thresholds and on
        # either side of each
        bands = ScoreBands(n=16 / 40, p=30 / 40, target_rate=1e-6)
        base = np.random.default_rng(4).integers(0, 2, 40, dtype=np.uint8)
        gallery = Gallery(bands=bands, enrolled=[
            flipped(base, 0, d, f"id{d % 2}", f"t{d}")
            for d in (0, 9, 10, 11, 23, 24, 25, 40)])
        probe = tpl(base, "id1", "probe")
        claim = Claim(polarity, "id1")
        result = verify(gallery, probe, claim)
        scores = [similarity(probe, t) for t in gallery.enrolled]
        pairs = [(result.claim_record,
                  max(s for s, t in zip(scores, gallery.enrolled)
                      if t.identity == "id1"))]
        pairs += [(rec, s) for (_, rec), s in zip(result.target_records,
                                                   scores)]
        assert {rec.modal for rec, _ in pairs} == {MODAL_I, MODAL_O, MODAL_D}
        for record, score in pairs:
            want = decide(claim, score, bands)
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

    @pytest.mark.parametrize("polarity", list(Polarity))
    def test_result_is_plain_python(self, polarity):
        # records are gathered through a numpy object array; none of it, nor
        # a numpy score, may reach the caller
        bands = ScoreBands(n=16 / 40, p=30 / 40, target_rate=1e-6)
        base = np.random.default_rng(4).integers(0, 2, 40, dtype=np.uint8)
        gallery = Gallery(bands=bands, enrolled=[
            flipped(base, 0, d, f"id{d % 2}", f"t{d}")
            for d in (0, 9, 10, 11, 23, 24, 25, 40)])
        probe = tpl(base, "id1", "probe")
        result = verify(gallery, probe, Claim(polarity, "id1"))

        def leaves(value):
            if isinstance(value, tuple):
                for v in value:
                    yield from leaves(v)
            elif isinstance(value, (VerifyResult, DecisionRecord, Claim)):
                for v in vars(value).values():
                    yield from leaves(v)
            else:
                yield value

        targets = result.target_records
        assert type(targets) is tuple
        assert [tuple(map(type, pair)) for pair in targets] == \
            [(str, DecisionRecord)] * len(gallery.enrolled)
        assert {type(rec.score) for _, rec in targets} == {float}
        assert not [v for v in leaves(result)
                    if isinstance(v, (np.ndarray, np.generic))]
        best = max((t for t in gallery.enrolled if t.identity == "id1"),
                   key=lambda t: similarity(probe, t))
        assert result.claim_record is dict(targets)[best.template_id]

    def test_packed_row_checked_against_similarity(self, gallery, base_bits,
                                                   monkeypatch):
        honest = enrollment.similarity
        monkeypatch.setattr(enrollment, "similarity",
                            lambda a, b: min(1.0, honest(a, b) + 0.03))
        probe = flipped(base_bits, 100, 180, "alice", "probe")
        with pytest.raises(RuntimeError, match="disagree"):
            verify(gallery, probe, Claim(Polarity.POSITIVE, "alice"))

    @pytest.mark.parametrize("probe_index, polarity, claimed, expected", [
        # positive genuine: id0000's held-out sample
        (3, Polarity.POSITIVE, "id0000", (
            "accepted",
            "claim=positive identity=id0000 score=0.7308970099667774 "
            "modal=I response=accepted output_octal=1 meaning=PA'&NR'",
            "IIDDDDDDDDDDDDDDDDDD", ())),
        # negative genuine: one target lands in the uncertainty band
        (7, Polarity.NEGATIVE, "id0001", (
            "repeat",
            "claim=negative identity=id0001 score=0.7807308970099668 "
            "modal=I response=rejected output_octal=1 meaning=PA'&NR'",
            "DDIOIDDDDDDDDDDDDDDD", ("id0001_s001",))),
        # imposter: id0002's held-out sample claims id0005
        (11, Polarity.POSITIVE, "id0005", (
            "rejected",
            "claim=positive identity=id0005 score=0.5282392026578073 "
            "modal=D response=rejected output_octal=2 meaning=PR'&NA'",
            "DDDDDIDDDDDDDDDDDDDD", ())),
    ])
    def test_golden_requests(self, probe_index, polarity, claimed, expected):
        population = generate_population(12, 4, 301, 0.15, seed=5)
        gallery = Gallery(bands=ScoreBands(n=0.55, p=0.72,
                                           target_rate=1e-6))
        for i in range(12):
            for j in range(3):
                enroll(gallery, population[4 * i + j])
        assert len(gallery.enrolled) == 20
        result = verify(gallery, population[probe_index],
                        Claim(polarity, claimed))
        assert (result.overall.value, result.claim_record.to_record(),
                "".join(str(rec.modal) for _, rec in result.target_records),
                result.conflicting_ids) == expected


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
        gallery = Gallery(bands=BANDS, enrolled=[
            tpl(base_bits, "alice", "alice_1"),
            flipped(base_bits, 0, 300, "bob", "bob_1")])
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

    @pytest.mark.parametrize("identities, errors", [
        ((1, "1"), 1),   # unequal ids that print alike
        ((("x", "y"), ("y", "x"), ("x", "y")), 2),   # ids with the same parts
    ])
    def test_identities_compare_by_equality(self, base_bits, identities,
                                            errors):
        # every pair scores 0.9 or 0.95 (I), so each pair of unequal
        # identities is a recognition error
        templates = [flipped(base_bits, 0, 50 * k, identity, f"t{k}")
                     for k, identity in enumerate(identities)]
        report = consistency_check(Gallery(bands=BANDS, enrolled=templates))
        assert report == scalar_consistency(templates, BANDS)
        assert report.recognition_errors == errors

    def test_recognition_error_does_not_fail_the_check(self, base_bits):
        # two labels share a code: crisp 1 against distinct identities
        gallery = Gallery(bands=BANDS, enrolled=[
            tpl(base_bits, "alice", "alice_1"), tpl(base_bits, "bob", "bob_1")])
        report = consistency_check(gallery)
        assert report.passed
        assert report.recognition_errors == 1
        assert report.crisp_one_count == 1


@st.composite
def small_galleries(draw):
    """Templates of L = 8..64 bits, prefix flips of one code, so that their
    scores spread over all bands, under bands whose n and p are scores
    k/L; the last template is kept apart as a probe."""
    bit_length = draw(st.integers(8, 64))
    low, high = sorted(draw(st.lists(st.integers(0, bit_length), min_size=2,
                                     max_size=2, unique=True)))
    bands = ScoreBands(n=low / bit_length, p=high / bit_length,
                       target_rate=1e-6)
    base = np.array(draw(st.lists(st.integers(0, 1), min_size=bit_length,
                                  max_size=bit_length)), np.uint8)
    flips = draw(st.lists(st.integers(0, bit_length), min_size=2,
                          max_size=8))
    templates = []
    for k, f in enumerate(flips):
        bits = base.copy()
        bits[:f] ^= 1
        templates.append(tpl(bits, f"id{draw(st.integers(0, 2))}", f"t{k}"))
    *enrolled, probe = templates
    return bands, enrolled, probe


def o_bit(scores, bands):
    """Whether the partition of scores holds an undecidable pair, read as
    the O bit of its uicp tag."""
    return partition(scores, bands).uicp_tag == psi(MODAL_O)


class TestTheOBitOfTheJoin:
    """The gate, verify and the audit each answer what the O bit of the
    join of the scores' codes says: the 3-valued decision is read in the
    8-valued algebra."""

    @staticmethod
    def check(bands, templates, probe):
        gated = Gallery(bands=bands)
        for t in templates:
            scores = [similarity(t, e) for e in gated.enrolled]
            assert (not enroll(gated, t).accepted) == o_bit(scores, bands)
        for gallery in (gated, Gallery(bands=bands, enrolled=templates)):
            scores = [similarity(probe, e) for e in gallery.enrolled]
            for identity in gallery.identities():
                for polarity in Polarity:
                    overall = verify(gallery, probe,
                                     Claim(polarity, identity)).overall
                    assert (overall is Response.REPEAT) == o_bit(scores,
                                                                bands)
            pairs = [similarity(a, b)
                     for a, b in combinations(gallery.enrolled, 2)]
            assert consistency_check(gallery).passed == \
                (partition(pairs, bands).uicp_tag == BOTTOM)

    @settings(max_examples=100, deadline=None)
    @given(small_galleries())
    def test_on_small_galleries(self, case):
        self.check(*case)

    def test_on_the_criterion_9_intruder_gallery(self):
        # acceptance criterion 9's last gallery and its intruder
        population = generate_population(4, 3, 512, 0.05, 99)
        bits = population[0].bits.copy()
        bits[:166] = 1 - bits[:166]
        intruder = Template(bits=bits, identity="intruder",
                            template_id="intruder_1")
        self.check(BANDS, population + [intruder], intruder)
        # not vacuous: the intruder's scores hold an O, and the audit fails
        assert o_bit([similarity(intruder, t) for t in population], BANDS)
        assert not consistency_check(
            Gallery(bands=BANDS, enrolled=population + [intruder])).passed


@st.composite
def bands_on_the_grid(draw):
    """A bit length L in 1..2,100 and bands whose n or p (or both) is a
    score k/L exactly; the other threshold is another k/L, a float next to
    one, or any float that keeps n < p."""
    bit_length = draw(st.integers(1, 2100))
    k = draw(st.integers(0, bit_length))
    exact = k / bit_length
    near = st.integers(0, bit_length).map(lambda m: m / bit_length).flatmap(
        lambda x: st.sampled_from([x, np.nextafter(x, 0.0),
                                   np.nextafter(x, 1.0)]))
    other = draw(st.one_of(near, st.floats(0.0, 1.0)))
    n, p = sorted([exact, float(other)])
    assume(n < p)
    return bit_length, ScoreBands(n=n, p=p, target_rate=1e-6)


class TestCodeTable:
    """A comparison's band is read from the gallery's code table by its
    agreement count; on every bit length and at thresholds that are scores
    themselves, each result equals the scalar reference built from
    similarity(), classify() and decide()."""

    @settings(max_examples=150, deadline=None)
    @given(bands_on_the_grid(), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 6))
    @example((48, ScoreBands(n=0.625, p=0.75, target_rate=1e-6)), 0, 6)
    @example((48, ScoreBands(n=0.5, p=0.625, target_rate=1e-6)), 1, 6)
    @example((1, ScoreBands(n=0.0, p=1.0, target_rate=1e-6)), 2, 3)
    @example((2100, ScoreBands(n=1 / 3, p=2 / 3, target_rate=1e-6)), 3, 6)
    def test_matches_the_scalar_reference(self, grid, seed, count):
        bit_length, bands = grid
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 2, bit_length, dtype=np.uint8)
        # prefix flips: templates flipped in their first d and e bits
        # disagree in |d - e| bits, so the thresholds' own counts and
        # their neighbours all occur among the pairs
        at = [round(x * bit_length) for x in (bands.n, bands.p)]
        flips = [0] + [bit_length - a + s for a in at for s in (-1, 0, 1)]
        flips += rng.integers(0, bit_length + 1, count).tolist()
        pool = []
        for k, d in enumerate(f for f in flips if 0 <= f <= bit_length):
            bits = base.copy()
            bits[:d] ^= 1
            pool.append(tpl(bits, f"id{rng.integers(3)}", f"t{k}"))
        rng.shuffle(pool)
        *templates, probe = pool

        gated = Gallery(bands=bands)
        for t in templates:
            expected = tuple(
                e.template_id for e in gated.enrolled
                if classify(similarity(t, e), bands) == MODAL_O)
            result = enroll(gated, t)
            assert result.conflicting_ids == expected
            assert result.accepted == (not expected)
        assert gated._codes.tolist() == [
            int(psi(classify(k / bit_length, bands)))
            for k in range(bit_length + 1)]

        whole = Gallery(bands=bands, enrolled=templates)
        assert consistency_check(whole) == scalar_consistency(templates,
                                                              bands)
        for polarity in Polarity:
            for identity in sorted(whole.identities()):
                claim = Claim(polarity, identity)
                assert verify(whole, probe, claim) == \
                    scalar_verify(whole, probe, claim)


def outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return repr(exc)


gated_steps = st.lists(st.tuples(st.integers(0, 2 ** 16), st.booleans()),
                       min_size=1, max_size=20)


class TestGalleryMatrix:
    """The packed matrix a gallery keeps must follow every gated enroll, and
    a gallery changes in no other way."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 130), st.integers(0, 2 ** 32 - 1), gated_steps)
    def test_matches_a_fresh_gallery_after_every_edit(self, bit_length,
                                                      seed, steps):
        pool = noisy_copies(bit_length, 10, seed)
        # one template of another bit length, which the gate refuses once
        # the gallery holds a template
        pool.append(tpl(np.ones(bit_length + 1), "id1", "long"))
        gallery = Gallery(bands=BANDS)
        for step, (pick, check) in enumerate(steps):
            outcome(enroll, gallery, pool[pick % len(pool)])
            if not check and step < len(steps) - 1:
                continue   # several enrolls between two uses
            fresh = Gallery(bands=BANDS, enrolled=gallery.enrolled)
            claim = Claim(Polarity.POSITIVE, f"id{pick % 4}")   # id3: none
            probe = pool[(pick + 1) % len(pool)]
            for call, args in ((verify, (probe, claim)),
                               (consistency_check, ())):
                assert outcome(call, gallery, *args) == \
                    outcome(call, fresh, *args)
            # fresh is built by the same append; the scalar references are not
            assert gallery.identities() == \
                {t.identity for t in gallery.enrolled}
            assert consistency_check(gallery) == \
                scalar_consistency(gallery.enrolled, BANDS)
            assert outcome(verify, gallery, probe, claim) == \
                outcome(scalar_verify, gallery, probe, claim)
            copy = Template(bits=probe.bits, identity=probe.identity,
                            template_id=f"probe{step}")
            assert outcome(enroll, gallery, copy) == \
                outcome(enroll, fresh, copy)
            assert gallery.enrolled == fresh.enrolled

    def test_enrolled_is_read_only(self, base_bits):
        gallery = Gallery(bands=BANDS)
        assert enroll(gallery, tpl(base_bits, "alice", "alice_1")).accepted
        assert isinstance(gallery.enrolled, tuple)
        with pytest.raises(AttributeError):
            gallery.enrolled.append(tpl(base_bits, "bob", "bob_1"))
        with pytest.raises(FrozenInstanceError):
            gallery.enrolled = ()
        assert [t.template_id for t in gallery.enrolled] == ["alice_1"]

    def test_template_id_held_twice_is_refused(self, base_bits):
        with pytest.raises(ValueError,
                           match="^duplicate template_id 'alice_1'$"):
            Gallery(bands=BANDS, enrolled=[
                tpl(base_bits, "alice", "alice_1"),
                flipped(base_bits, 0, 500, "bob", "bob_1"),
                flipped(base_bits, 0, 100, "alice", "alice_1")])

    def test_other_bit_length_is_refused(self, base_bits):
        with pytest.raises(ValueError,
                           match="^bit lengths differ: 1000 vs 999$"):
            Gallery(bands=BANDS, enrolled=[
                tpl(base_bits, "alice", "alice_1"),
                tpl(base_bits[:999], "bob", "bob_1")])

    def test_empty_gallery_has_no_identity(self, base_bits):
        # built empty, and built whole from an empty list as load_gallery does
        for gallery in (Gallery(bands=BANDS), Gallery(bands=BANDS,
                                                      enrolled=[])):
            with pytest.raises(ValueError, match="'alice' is not enrolled"):
                verify(gallery, tpl(base_bits, "alice", "probe"),
                       Claim(Polarity.POSITIVE, "alice"))

    def test_private_state_stays_out_of_repr_and_equality(self, base_bits):
        a = Gallery(bands=BANDS)
        for t in (tpl(base_bits, "alice", "alice_1"),
                  flipped(base_bits, 0, 100, "alice", "alice_2"),
                  flipped(base_bits, 0, 500, "bob", "bob_1")):
            assert enroll(a, t).accepted
        # a's matrix has spare rows, b's is built whole to size
        b = Gallery(bands=BANDS, enrolled=a.enrolled)
        assert a == b
        assert repr(a) == repr(b)
        # the code table is private state too
        assert "_codes" not in repr(a)
        object.__setattr__(b, "_codes", np.full_like(b._codes, 7))
        assert a == b
        assert repr(a) == repr(b)

    def test_code_table_is_the_same_however_the_gallery_is_built(
            self, tmp_path, base_bits):
        templates = [tpl(base_bits, "alice", "alice_1"),
                     flipped(base_bits, 0, 100, "alice", "alice_2"),
                     flipped(base_bits, 0, 500, "bob", "bob_1")]
        grown = Gallery(bands=BANDS)
        assert grown._codes.size == 0
        assert enroll(grown, templates[0]).accepted
        table = grown._codes
        for t in templates[1:]:
            assert enroll(grown, t).accepted
        assert grown._codes is table   # built once, on the first append
        save_gallery(grown, tmp_path / "g.json")
        want = [int(psi(classify(k / 1000, BANDS))) for k in range(1001)]
        # 0.6 and 0.75 are k/1000 scores: D and I at the thresholds
        assert want[600] == psi(MODAL_D) and want[601] == psi(MODAL_O)
        assert want[749] == psi(MODAL_O) and want[750] == psi(MODAL_I)
        for gallery in (grown, Gallery(bands=BANDS, enrolled=templates),
                        load_gallery(tmp_path / "g.json")):
            assert gallery._codes.dtype == np.uint8
            assert gallery._codes.tolist() == want
            assert not gallery._codes.flags.writeable
        save_gallery(Gallery(bands=BANDS), tmp_path / "empty.json")
        assert load_gallery(tmp_path / "empty.json")._codes.size == 0

    def test_a_built_gallery_calls_no_classifier(self, base_bits,
                                                 monkeypatch):
        # the code table answers every comparison once the first append
        # has built it
        gallery = Gallery(bands=BANDS, enrolled=[
            tpl(base_bits, "alice", "alice_1"),
            flipped(base_bits, 0, 500, "bob", "bob_1")])

        def refuse(*args):
            raise AssertionError("a classifier was called")

        for module in (decision_engine, enrollment):
            for name in ("classify", "classify_many"):
                monkeypatch.setattr(module, name, refuse)
        admitted = flipped(base_bits, 0, 100, "alice", "alice_2")
        refused = flipped(base_bits, 0, 300, "carol", "carol_1")   # 0.7: O
        results = [enroll(gallery, admitted), enroll(gallery, refused)]
        probe = flipped(base_bits, 0, 350, "alice", "probe")
        claims = [Claim(polarity, "alice") for polarity in Polarity]
        results += [verify(gallery, probe, claim) for claim in claims]
        results.append(consistency_check(gallery))
        monkeypatch.undo()
        assert results == [
            enrollment.EnrollResult(accepted=True),
            enrollment.EnrollResult(accepted=False,
                                    conflicting_ids=("alice_1",)),
            *(scalar_verify(gallery, probe, claim) for claim in claims),
            scalar_consistency(gallery.enrolled, BANDS)]

    def test_gallery_is_unhashable(self):
        with pytest.raises(TypeError, match="unhashable type: 'Gallery'"):
            hash(Gallery(bands=BANDS))



def scalar_load_gallery(path):
    """Reference loader: one bits_from_hex and one Template per entry."""
    with _reading(path, "gallery") as fh:
        doc = json.load(fh)
        bands = _bands_from_doc(doc["bands"])
        bit_length = doc["bit_length"]
        if not (type(bit_length) is int and bit_length > 0
                or bit_length is None and not doc["templates"]):
            raise TypeError(f"bit_length {json.dumps(bit_length)} is not a "
                            f"positive integer")
        if type(doc["templates"]) is not list:
            raise TypeError("templates is not a list")
        if bit_length is not None and not doc["templates"]:
            raise TypeError(f"bit_length {json.dumps(bit_length)} is given "
                            f"for no templates")
        return Gallery(bands=bands, enrolled=[
            Template(bits=bits_from_hex(entry["bits"], bit_length),
                     identity=enrollment._string(entry, "identity"),
                     template_id=enrollment._string(entry, "template_id"))
            for entry in doc["templates"]
        ])


def loaded(load, path):
    """The error a loader raises, or what it loaded, in comparable form."""
    try:
        gallery = load(path)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc)
    return gallery.bands, [(t.template_id, t.identity, t.bits.dtype,
                            t.bits.tobytes(), t.packed.dtype,
                            t.packed.tobytes()) for t in gallery.enrolled]


def traced_peak(call, *args):
    """call's result and the tracemalloc peak of the call alone, in bytes."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def gallery_doc(bit_length, payloads):
    """A gallery document holding the payloads under ids t0, t1, ..."""
    return {"bands": {"n": "0.6", "p": "0.75", "target_rate": "1e-06"},
            "bit_length": bit_length,
            "templates": [{"bits": payload, "identity": f"id{k % 2}",
                           "template_id": f"t{k}"}
                          for k, payload in enumerate(payloads)]}


def edited(doc, k, key, value):
    """doc with entry k's key set to value, or removed when value is None."""
    entry = {**doc["templates"][k], key: value}
    if value is None:
        del entry[key]
    templates = list(doc["templates"])
    templates[k] = entry
    return {**doc, "templates": templates}


_FAULTS = [("bits", 7), ("bits", None), ("bits", ["b2"]),
           ("bits", "missing"), ("identity", 3), ("identity", None),
           ("identity", "missing"), ("template_id", ["t0"]),
           ("template_id", "t0"), ("template_id", "missing"),
           ("entry", 4), ("entry", "x"), ("entry", ["t0"])]


@st.composite
def gallery_documents(draw):
    """Gallery documents, well-formed or with any number of faults."""
    bit_length = draw(st.integers(1, 40))
    faulty = draw(st.booleans())
    entries = []
    for k in range(draw(st.integers(0, 5))):
        payload = bits_to_hex(draw(st.lists(
            st.integers(0, 1), min_size=bit_length, max_size=bit_length)))
        at = draw(st.integers(0, len(payload) - 1))
        forms = {
            "ok": payload, "upper": payload.upper(),
            "spaced": " ".join(payload[i:i + 2]
                               for i in range(0, len(payload), 2)),
            "nonhex": payload[:at] + "z" + payload[at + 1:],
            "short": payload[:-2], "long": payload + "00",
            "padding": payload[:-1] + "f",
        }
        form = draw(st.sampled_from(
            list(forms) if faulty else ["ok", "upper", "spaced"]))
        entry = {"bits": forms[form], "identity": f"id{k % 2}",
                 "template_id": f"t{k}"}
        if faulty and draw(st.integers(0, 3)) == 0:
            key, value = draw(st.sampled_from(_FAULTS))
            if key == "entry":
                entry = value
            elif value == "missing":
                del entry[key]
            else:
                entry[key] = value
        entries.append(entry)
    if faulty and len(entries) > 1 and draw(st.booleans()):
        # a byte moved to the next payload leaves the joined payloads as
        # they were
        a, b = (e.get("bits") if isinstance(e, dict) else None
                for e in entries[:2])
        if isinstance(a, str) and isinstance(b, str):
            entries[0]["bits"], entries[1]["bits"] = a[:-2], a[-2:] + b
    templates = entries
    if faulty and draw(st.integers(0, 4)) == 0:
        templates = draw(st.sampled_from(
            [None, {}, {"t0": entries}, "", "templates"]))
    if faulty and draw(st.integers(0, 9)) == 0:
        bit_length = None
    return dict(gallery_doc(bit_length, []), templates=templates)


class TestPersistence:
    def test_hex_round_trip(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1],
                        dtype=np.uint8)
        assert np.array_equal(bits_from_hex(bits_to_hex(bits), 12), bits)
        empty = bits_from_hex("", 0)
        assert empty.dtype == np.uint8 and empty.shape == (0,)

    def test_bits_from_hex_matches_slice_and_copy(self):
        rng = np.random.default_rng(45)
        for bit_length in range(46):
            payload = bits_to_hex(rng.integers(0, 2, bit_length,
                                               dtype=np.uint8))
            got = bits_from_hex(payload, bit_length)
            want = np.unpackbits(np.frombuffer(
                bytes.fromhex(payload), np.uint8))[:bit_length].copy()
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable and got.base is None

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
        assert path.read_text() == GALLERY_12_BITS

    def test_failed_save_keeps_the_old_gallery(self, tmp_path, base_bits,
                                               monkeypatch):
        alice = tpl(base_bits, "alice", "alice_1")
        path = tmp_path / "gallery.json"
        save_gallery(Gallery(bands=BANDS, enrolled=[alice]), path)
        old = path.read_bytes()

        def unencodable(doc):
            raise TypeError("Object of type object is not JSON serializable")

        # a document JSON cannot encode fails the write part-way
        monkeypatch.setattr(enrollment, "_json_text", unencodable)
        gallery = Gallery(bands=BANDS, enrolled=[
            alice, flipped(base_bits, 0, 500, "bob", "bob_1")])
        with pytest.raises(TypeError):
            save_gallery(gallery, path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["gallery.json"]

    @pytest.mark.parametrize("identity, template_id, message", [
        (7, "t_8", r"^template 't_8': identity 7 is not a str$"),
        ("alice", 8, r"^template 8: template_id 8 is not a str$"),
        (("alice",), "t_9",
         r"^template 't_9': identity \('alice',\) is not a str$"),
    ], ids=["int-identity", "int-template_id", "tuple-identity"])
    def test_save_refuses_ids_the_loader_refuses(self, tmp_path, base_bits,
                                                 identity, template_id,
                                                 message):
        # Template takes any hashable id, and enroll gates it; the gallery
        # file holds strings only, so the save refuses before it writes
        gallery = Gallery(bands=BANDS)
        assert enroll(gallery, tpl(base_bits, identity, template_id)).accepted
        path = tmp_path / "gallery.json"
        with pytest.raises(TypeError, match=message):
            save_gallery(gallery, path)
        assert os.listdir(tmp_path) == []

    @settings(max_examples=100, deadline=None)
    @given(bands=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                           st.floats(0.0, 1.0, exclude_min=True,
                                     exclude_max=True))
           .filter(lambda b: b[0] < b[1])
           .map(lambda b: ScoreBands(*b)),
           entries=st.integers(1, 130).flatmap(lambda bit_length: st.lists(
               st.tuples(st.text(), st.text(),
                         st.lists(st.integers(0, 1), min_size=bit_length,
                                  max_size=bit_length)),
               max_size=5, unique_by=lambda e: e[0])))
    def test_saved_gallery_loads_back(self, tmp_path_factory, bands,
                                      entries):
        gallery = Gallery(bands=bands, enrolled=[
            tpl(bits, identity, template_id)
            for template_id, identity, bits in entries])
        path = tmp_path_factory.mktemp("gallery") / "gallery.json"
        save_gallery(gallery, path)
        loaded = load_gallery(path)
        assert loaded.bands == bands
        assert [(t.template_id, t.identity, t.bits.tolist())
                for t in loaded.enrolled] == entries

    @settings(max_examples=100, deadline=None)
    @given(entries=st.integers(1, 130).flatmap(lambda bit_length: st.lists(
        st.tuples(*[st.text(st.characters(exclude_categories=()))] * 2,
                  st.lists(st.integers(0, 1), min_size=bit_length,
                           max_size=bit_length)),
        max_size=5, unique_by=lambda e: e[0])))
    @example(entries=[])
    @example(entries=[('"q"\\b', "\x00\x1f\u2028", [1]),
                      ("\U0001f600", "\ud800\x7f", [0])])
    def test_saved_layout_is_the_json_dumps_of_what_loads(
            self, tmp_path_factory, entries):
        # the reference a faster writer must match, over ids from all of
        # Unicode, lone surrogates (category Cs) included
        path = tmp_path_factory.mktemp("gallery") / "gallery.json"
        save_gallery(Gallery(bands=BANDS, enrolled=[
            tpl(bits, identity, template_id)
            for template_id, identity, bits in entries]), path)
        loaded = load_gallery(path)
        doc = {"bands": {"n": repr(loaded.bands.n), "p": repr(loaded.bands.p),
                         "target_rate": repr(loaded.bands.target_rate)},
               "bit_length": loaded.bit_length(),
               "templates": [{"bits": bits_to_hex(t.bits),
                              "identity": t.identity,
                              "template_id": t.template_id}
                             for t in loaded.enrolled]}
        assert path.read_bytes() == (
            json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()

    def test_malformed_document_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"templates": []}))
        with pytest.raises(ValueError):
            load_gallery(path)

    @pytest.mark.parametrize("bit_length, payload", [
        (None, "b2d0"), (12.0, "b2d0"), (True, "80"), (0, ""), (-8, "b2"),
        ("12", "b2d0")])
    def test_bit_length_must_be_a_positive_int(self, tmp_path, bit_length,
                                               payload):
        path = tmp_path / "gallery.json"
        path.write_text(json.dumps({
            "bands": {"n": "0.6", "p": "0.75", "target_rate": "1e-06"},
            "bit_length": bit_length,
            "templates": [{"bits": payload, "identity": "alice",
                           "template_id": "alice_1"}]}))
        with pytest.raises(ValueError, match=r"gallery\.json: not a gallery "
                                             r"document \(bit_length "):
            load_gallery(path)

    def test_payload_error_passes_through(self, tmp_path):
        # only KeyError and TypeError become "not a gallery document"; a
        # payload error keeps its own words behind the file name
        path = tmp_path / "gallery.json"
        path.write_text(json.dumps({
            "bands": {"n": "0.6", "p": "0.75", "target_rate": "1e-06"},
            "bit_length": 12,
            "templates": [{"bits": "b2", "identity": "alice",
                           "template_id": "alice_1"}]}))
        with pytest.raises(ValueError) as info:
            load_gallery(path)
        assert str(info.value) == (f"{path}: hex payload does not match the "
                                   f"bit length")

    def test_empty_gallery_has_no_bit_length(self, tmp_path):
        path = tmp_path / "gallery.json"
        save_gallery(Gallery(bands=BANDS), path)
        assert json.loads(path.read_text())["bit_length"] is None
        loaded = load_gallery(path)
        assert loaded.enrolled == () and loaded.bit_length() is None
        path.write_text(json.dumps(gallery_doc(12, [])))
        with pytest.raises(ValueError) as info:
            load_gallery(path)
        assert str(info.value) == (f"{path}: not a gallery document "
                                   f"(bit_length 12 is given for no "
                                   f"templates)")

    def test_duplicate_template_id_rejected(self, tmp_path):
        path = tmp_path / "gallery.json"
        path.write_text(json.dumps({
            "bands": {"n": "0.6", "p": "0.75", "target_rate": "1e-06"},
            "bit_length": 4,
            "templates": [
                {"bits": "b0", "identity": "alice", "template_id": "a_1"},
                {"bits": "60", "identity": "bob", "template_id": "b_1"},
                {"bits": "20", "identity": "bob", "template_id": "a_1"}]}))
        with pytest.raises(ValueError, match=r"gallery\.json: duplicate "
                                             r"template_id 'a_1'$"):
            load_gallery(path)

    @pytest.mark.parametrize("key", ["identity", "template_id"])
    def test_ids_must_be_strings(self, tmp_path, key):
        entry = {"bits": "b2d0", "identity": "alice",
                 "template_id": "alice_1"}
        entry[key] = [entry[key]]
        path = tmp_path / "gallery.json"
        path.write_text(json.dumps({
            "bands": {"n": "0.6", "p": "0.75", "target_rate": "1e-06"},
            "bit_length": 12, "templates": [entry]}))
        with pytest.raises(ValueError, match=rf"gallery\.json: not a gallery "
                                             rf"document \({key} \["):
            load_gallery(path)

    @settings(max_examples=300, deadline=None)
    @given(doc=gallery_documents())
    # faults a decode of the joined payloads would miss: padding bits set,
    # and a byte moved to the next payload; whitespace between byte pairs is
    # valid
    @example(doc=gallery_doc(12, ["b2d0", "b2df"]))
    @example(doc=gallery_doc(16, ["b2", "d0b2d0"]))
    @example(doc=gallery_doc(16, ["b2 d0", "B2D0"]))
    # the first bad entry is reported, whatever the later entries hold; a
    # repeated id only once every entry has decoded
    @example(doc=edited(gallery_doc(12, ["b2d0", "zzd0"]), 0, "identity",
                        ["id0"]))
    @example(doc=edited(gallery_doc(12, ["b2df", "b2d0"]), 1, "template_id",
                        None))
    @example(doc=edited(gallery_doc(12, ["b2d0", "b2d0", "b2"]), 1,
                        "template_id", "t0"))
    # a bit length with no templates, which save_gallery never writes
    @example(doc=gallery_doc(12, []))
    def test_loader_matches_scalar_loader(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("gallery") / "gallery.json"
        path.write_text(json.dumps(doc))
        got = loaded(load_gallery, path)
        assert got == loaded(scalar_load_gallery, path)
        if isinstance(got[0], type):
            return
        for t in load_gallery(path).enrolled:
            with pytest.raises(ValueError):
                t.bits[0] = 1
            with pytest.raises(ValueError):
                t.packed[0] = 0
            padded = np.zeros(t.packed.size * 8, dtype=np.uint8)
            padded[:-(-t.bits.size // 8)] = np.packbits(t.bits)
            assert padded.tobytes() == t.packed.tobytes()

    def test_large_gallery_loads_as_one_matrix(self, tmp_path, monkeypatch):
        # 8 bytes per bit anywhere in the loader would be 11.7 MiB
        gallery = Gallery(bands=BANDS, enrolled=generate_population(
            375, 4, 1024, 0.15, seed=7))
        path = tmp_path / "gallery.json"
        save_gallery(gallery, path)

        def refuse(*args, **kwargs):
            raise AssertionError("per-entry decoding of a well-formed file")

        monkeypatch.setattr(enrollment, "bits_from_hex", refuse)
        monkeypatch.setattr(np, "packbits", refuse)
        monkeypatch.setattr(Template, "__post_init__", refuse)
        loaded_gallery, load_peak = traced_peak(load_gallery, path)
        assert load_peak <= 4.5 * 2 ** 20
        assert traced_peak(save_gallery, gallery, path)[1] <= 4 * 2 ** 20
        assert [(t.template_id, t.bits.tobytes())
                for t in loaded_gallery.enrolled] == \
            [(t.template_id, t.bits.tobytes()) for t in gallery.enrolled]

"""Algebra core: operations, axioms, representations, subalgebras."""

import pytest

from irislogic.octal_algebra import (
    BOTTOM,
    ELEMENTS,
    MODAL_D,
    MODAL_E,
    MODAL_I,
    MODAL_O,
    MODALS_BY_OCTAL,
    TOP,
    BitTriple,
    CubeVector,
    IntervalSet,
    ModalString,
    Octal,
    bit_and,
    bit_not,
    bit_or,
    bits_to_cube,
    bits_to_modal,
    bits_to_octal,
    chains_csv,
    cube_join,
    cube_meet,
    cube_not,
    cube_to_bits,
    entropy,
    generate_table,
    intervals_to_octal,
    join_via_order,
    leq,
    maximal_chains,
    meet_via_order,
    modal_to_bits,
    neg,
    octal_to_bits,
    octal_to_intervals,
    product,
    product_oracle,
    relative_complement,
    subalgebra_closure,
    sum_,
    sum_oracle,
    table_csv,
    verification_checks,
    verify_block_recursive,
)

from table_data import CHAINS, ENTROPY_PRODUCT, ENTROPY_SUM, PRODUCT, SUM

PAIRS = [(a, b) for a in ELEMENTS for b in ELEMENTS]
TRIPLES = [(a, b, c) for a in ELEMENTS for b in ELEMENTS for c in ELEMENTS]


class TestOctal:
    def test_reduces_modulo_eight(self):
        assert Octal(8) == 0
        assert Octal(9) == 1
        assert Octal(-1) == 7
        assert Octal(7) == 7

    def test_is_an_int(self):
        assert isinstance(Octal(3), int)
        assert Octal(3) + 1 == 4

    def test_constants(self):
        assert BOTTOM == 0
        assert TOP == 7
        assert ELEMENTS == tuple(range(8))


class TestOperationTables:
    def test_product_table_matches_frozen(self):
        assert generate_table("product") == PRODUCT

    def test_sum_table_matches_frozen(self):
        assert generate_table("sum") == SUM

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            generate_table("xor")
        with pytest.raises(ValueError):
            entropy(3, "meet")

    def test_entropy_columns(self):
        assert [entropy(a, "product") for a in ELEMENTS] == ENTROPY_PRODUCT
        assert [entropy(a, "sum") for a in ELEMENTS] == ENTROPY_SUM

    def test_table_csv_layout(self):
        text = table_csv("product")
        lines = text.splitlines()
        assert lines[0] == "P,0,1,2,3,4,5,6,7,E"
        assert len(lines) == 9
        assert text.endswith("\n")
        # row 5: element, its table row, its entropy
        assert lines[6] == "5," + ",".join(str(v) for v in PRODUCT[5]) + ",4"
        sum_lines = table_csv("sum").splitlines()
        assert sum_lines[0] == "S,0,1,2,3,4,5,6,7,E"
        assert sum_lines[8] == "7,7,7,7,7,7,7,7,7,1"


class TestThreeConstructions:
    """The formula, the bitwise route and the order search must agree,
    and all of them must match native integer and/or, which none of the
    three implementations uses."""

    def test_product_all_pairs(self):
        for a, b in PAIRS:
            expected = int(a) & int(b)
            assert product(a, b) == expected
            assert product_oracle(a, b) == expected
            assert meet_via_order(a, b) == expected

    def test_sum_all_pairs(self):
        for a, b in PAIRS:
            expected = int(a) | int(b)
            assert sum_(a, b) == expected
            assert sum_oracle(a, b) == expected
            assert join_via_order(a, b) == expected

    def test_negation(self):
        for a in ELEMENTS:
            assert neg(a) == 7 - a


class TestBooleanAxioms:
    def test_commutativity(self):
        for a, b in PAIRS:
            assert product(a, b) == product(b, a)
            assert sum_(a, b) == sum_(b, a)

    def test_associativity(self):
        for a, b, c in TRIPLES:
            assert product(a, product(b, c)) == product(product(a, b), c)
            assert sum_(a, sum_(b, c)) == sum_(sum_(a, b), c)

    def test_distributivity_both_ways(self):
        for a, b, c in TRIPLES:
            assert product(a, sum_(b, c)) == sum_(product(a, b),
                                                  product(a, c))
            assert sum_(a, product(b, c)) == product(sum_(a, b), sum_(a, c))

    def test_absorption(self):
        for a, b in PAIRS:
            assert product(a, sum_(a, b)) == a
            assert sum_(a, product(a, b)) == a

    def test_identity_elements(self):
        for a in ELEMENTS:
            assert product(a, TOP) == a
            assert sum_(a, BOTTOM) == a
            assert product(a, BOTTOM) == BOTTOM
            assert sum_(a, TOP) == TOP

    def test_idempotence(self):
        for a in ELEMENTS:
            assert product(a, a) == a
            assert sum_(a, a) == a

    def test_complement_laws(self):
        for a in ELEMENTS:
            assert product(a, neg(a)) == BOTTOM
            assert sum_(a, neg(a)) == TOP
            assert neg(neg(a)) == a

    def test_de_morgan(self):
        for a, b in PAIRS:
            assert neg(product(a, b)) == sum_(neg(a), neg(b))
            assert neg(sum_(a, b)) == product(neg(a), neg(b))


class TestOrder:
    def test_partial_order_axioms(self):
        for a in ELEMENTS:
            assert leq(a, a)
        for a, b in PAIRS:
            if leq(a, b) and leq(b, a):
                assert a == b
        for a, b, c in TRIPLES:
            if leq(a, b) and leq(b, c):
                assert leq(a, c)

    def test_bounds(self):
        for a in ELEMENTS:
            assert leq(BOTTOM, a)
            assert leq(a, TOP)

    def test_order_matches_subset_order(self):
        # a <= b exactly when a's members are a subset of b's
        for a, b in PAIRS:
            subset = MODALS_BY_OCTAL[a].members <= MODALS_BY_OCTAL[b].members
            assert leq(a, b) == subset

    def test_maximal_chains_match_frozen(self):
        assert maximal_chains() == CHAINS

    def test_every_chain_is_ordered_and_maximal(self):
        for chain in maximal_chains():
            assert len(chain) == 4
            assert chain[0] == BOTTOM and chain[-1] == TOP
            for lo, hi in zip(chain, chain[1:]):
                assert leq(lo, hi) and lo != hi

    def test_chains_csv(self):
        lines = chains_csv().splitlines()
        assert lines == [",".join(str(int(x)) for x in c) for c in CHAINS]


class TestBitTriple:
    def test_validation(self):
        with pytest.raises(ValueError):
            BitTriple(0, 2, 0)
        with pytest.raises(ValueError):
            BitTriple(-1, 0, 0)

    def test_octal_round_trip(self):
        for a in ELEMENTS:
            assert bits_to_octal(octal_to_bits(a)) == a

    def test_bit_weights(self):
        assert octal_to_bits(4) == BitTriple(1, 0, 0)
        assert octal_to_bits(2) == BitTriple(0, 1, 0)
        assert octal_to_bits(1) == BitTriple(0, 0, 1)
        assert bits_to_octal(BitTriple(1, 1, 0)) == 6

    def test_componentwise_ops(self):
        t, u = octal_to_bits(5), octal_to_bits(3)
        assert bit_and(t, u) == octal_to_bits(1)
        assert bit_or(t, u) == octal_to_bits(7)
        assert bit_not(t) == octal_to_bits(2)


class TestModalString:
    def test_parsing(self):
        assert ModalString("").members == frozenset()
        assert ModalString("E").members == frozenset()
        assert ModalString("IOD").members == {"I", "O", "D"}
        assert ModalString(["D", "I"]) == ModalString("ID")
        assert ModalString(MODAL_I) == MODAL_I

    def test_invalid_characters(self):
        with pytest.raises(ValueError):
            ModalString("X")
        with pytest.raises(ValueError):
            ModalString("IQ")

    def test_str_uses_fixed_letter_order(self):
        assert str(ModalString("OI")) == "IO"
        assert str(ModalString("DOI")) == "IOD"
        assert str(MODAL_E) == "E"

    def test_set_ops_match_bit_ops(self):
        for m in MODALS_BY_OCTAL:
            assert modal_to_bits(m.complement()) == bit_not(modal_to_bits(m))
            for w in MODALS_BY_OCTAL:
                assert modal_to_bits(m.union(w)) == bit_or(
                    modal_to_bits(m), modal_to_bits(w))
                assert modal_to_bits(m.intersection(w)) == bit_and(
                    modal_to_bits(m), modal_to_bits(w))

    def test_round_trip(self):
        for m in MODALS_BY_OCTAL:
            assert bits_to_modal(modal_to_bits(m)) == m

    def test_atoms(self):
        assert MODALS_BY_OCTAL[4] == MODAL_I
        assert MODALS_BY_OCTAL[2] == MODAL_O
        assert MODALS_BY_OCTAL[1] == MODAL_D
        assert MODALS_BY_OCTAL[0] == MODAL_E

    def test_container_protocol(self):
        m = ModalString("ID")
        assert "I" in m and "D" in m and "O" not in m
        assert len(m) == 2
        assert list(m) == ["I", "D"]


class TestCubeVector:
    def test_vertex_validation(self):
        with pytest.raises(ValueError):
            CubeVector((0.5, 0.0, 1.0))
        with pytest.raises(ValueError):
            CubeVector((0.0, 1.0))

    def test_ops_match_bit_ops(self):
        for a, b in PAIRS:
            u, v = bits_to_cube(octal_to_bits(a)), bits_to_cube(octal_to_bits(b))
            assert cube_to_bits(cube_meet(u, v)) == octal_to_bits(a & b)
            assert cube_to_bits(cube_join(u, v)) == octal_to_bits(a | b)
        for a in ELEMENTS:
            u = bits_to_cube(octal_to_bits(a))
            assert cube_to_bits(cube_not(u)) == octal_to_bits(7 - a)

    def test_round_trip(self):
        for a in ELEMENTS:
            t = octal_to_bits(a)
            assert cube_to_bits(bits_to_cube(t)) == t


class _Bands:
    n = 0.3
    p = 0.7


class TestIntervalSet:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            IntervalSet(0.7, 0.3, True, False, False)
        with pytest.raises(ValueError):
            IntervalSet(0.3, 1.2, True, False, False)

    def test_mixed_thresholds_rejected(self):
        a = octal_to_intervals(5, _Bands)
        b = IntervalSet(0.1, 0.9, True, False, False)
        with pytest.raises(ValueError):
            a.union(b)
        with pytest.raises(ValueError):
            a.intersection(b)

    def test_ops_match_table(self):
        for a, b in PAIRS:
            sa = octal_to_intervals(a, _Bands)
            sb = octal_to_intervals(b, _Bands)
            assert intervals_to_octal(sa.intersection(sb)) == (a & b)
            assert intervals_to_octal(sa.union(sb)) == (a | b)
        for a in ELEMENTS:
            sa = octal_to_intervals(a, _Bands)
            assert intervals_to_octal(sa.complement()) == 7 - a

    def test_round_trip(self):
        for a in ELEMENTS:
            assert intervals_to_octal(octal_to_intervals(a, _Bands)) == a

    def test_pieces_text(self):
        s = octal_to_intervals(5, _Bands)  # I and D: outer bands
        assert s.pieces() == ("[0, 0.3]", "[0.7, 1]")
        assert str(s) == "[0, 0.3] u [0.7, 1]"
        assert str(octal_to_intervals(0, _Bands)) == "{}"
        assert str(octal_to_intervals(2, _Bands)) == "(0.3, 0.7)"


class TestBlockRecursive:
    def test_product_table_has_the_structure(self):
        assert verify_block_recursive(generate_table("product"))

    def test_sum_table_does_not(self):
        assert not verify_block_recursive(generate_table("sum"))

    def test_tampered_table_detected(self):
        table = generate_table("product")
        table[6][6] = 0
        assert not verify_block_recursive(table)

    def test_wrong_corner_detected(self):
        table = generate_table("product")
        table[0][0] = 1
        assert not verify_block_recursive(table)


class TestSubalgebra:
    def test_relative_complement_in_full_algebra(self):
        for a in ELEMENTS:
            assert relative_complement(a, TOP) == neg(a)

    def test_relative_complement_in_sublattice(self):
        assert relative_complement(4, 5) == 1
        assert relative_complement(1, 5) == 4
        assert relative_complement(5, 5) == 0
        assert relative_complement(0, 5) == 5

    def test_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            relative_complement(2, 5)
        with pytest.raises(ValueError):
            relative_complement(0, 5, bottom=1)

    def test_closure_of_two_atoms(self):
        sub = subalgebra_closure({1, 4})
        assert sub == {0, 1, 4, 5}
        # inside the closure, 1 and 4 complement each other
        for a in sub:
            rc = relative_complement(a, 5)
            assert rc in sub
            assert product(a, rc) == 0
            assert sum_(a, rc) == 5
            # uniqueness within the closure
            others = [x for x in sub
                      if product(a, x) == 0 and sum_(a, x) == 5]
            assert others == [rc]

    def test_closure_degenerate_and_full(self):
        assert subalgebra_closure({7}) == {7}
        assert subalgebra_closure({0, 7}) == {0, 7}
        assert subalgebra_closure({1, 2}) == {0, 1, 2, 3}
        assert subalgebra_closure(ELEMENTS) == set(ELEMENTS)

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            subalgebra_closure(set())


class TestVerificationChecks:
    def test_all_pass(self):
        rows = verification_checks()
        assert len(rows) == 19
        failures = [name for name, _, ok in rows if not ok]
        assert failures == []

    def test_names_unique_and_cases_positive(self):
        rows = verification_checks()
        names = [name for name, _, _ in rows]
        assert len(set(names)) == len(names)
        assert all(cases > 0 for _, cases, _ in rows)

    def test_each_product_is_computed_once(self):
        # and each sum and complement: all three are cached
        ops = (product, sum_, neg)
        for op in ops:
            op.cache_clear()
        verification_checks()
        misses = [op.cache_info().misses for op in ops]
        assert misses[0] <= 64 and misses[1] <= 64 and misses[2] <= 8
        for a, b in PAIRS:
            formula = sum(2 ** k * (a % 2 ** (k + 1) >= 2 ** k)
                          * (b % 2 ** (k + 1) >= 2 ** k) for k in range(3))
            assert product(a, b) == formula
            assert type(product(a, b)) is Octal
            assert sum_(a, b) == 7 - product(7 - a, 7 - b)
            assert type(sum_(a, b)) is Octal
        for a in ELEMENTS:
            assert neg(a) == 7 - a and type(neg(a)) is Octal
        # every argument was cached by the checks: none of the calls missed
        assert [op.cache_info().misses for op in ops] == misses

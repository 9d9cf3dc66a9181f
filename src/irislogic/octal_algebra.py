"""Eight-element Boolean algebra of comparison outcomes.

A binary-template comparison resolves to one of three atomic outcomes:
I (identical), O (otherwise: no decision) and D (different). Subsets of
{I, O, D} form an eight-element Boolean algebra that admits four
interchangeable representations:

* modal strings: subsets of the characters I, O, D, with E for the empty one;
* bit triples: membership indicator bits for I, O and D;
* cube vectors: vertices of the unit cube in three dimensions;
* integers 0 through 7, with bit weights I = 4, O = 2, D = 1.

The integer form carries the working operations. Negation is the complement
relative to 7. The product (infimum) is evaluated from its arithmetic
definition

    product(a, b) = sum over k in {0, 1, 2} of
                    2^k * [a mod 2^(k+1) >= 2^k] * [b mod 2^(k+1) >= 2^k]

where each bracket is 1 when the comparison holds and 0 otherwise, and the
sum (supremum) is defined from the product by complementarity. The same two
operations are rebuilt two more ways, bitwise (componentwise min/max of bit
triples) and order-theoretically (exhaustive search for the extremum under
the induced partial order), as independent oracles; verification_checks()
confronts all constructions and the Boolean axioms exhaustively.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cache, reduce
from typing import Iterable


class Octal(int):
    """Algebra element as an integer; construction reduces modulo 8."""

    __slots__ = ()

    def __new__(cls, value: int) -> "Octal":
        return super().__new__(cls, int(value) % 8)


ELEMENTS: tuple[Octal, ...] = tuple(Octal(v) for v in range(8))

BOTTOM = Octal(0)
TOP = Octal(7)


# ---------------------------------------------------------------------------
# core operations on the integer representation


@cache
def neg(a: int) -> Octal:
    """Complement: the unique b with a + b = 7."""
    return Octal(7 - Octal(a))


@cache
def product(a: int, b: int) -> Octal:
    """Infimum of two elements, from the arithmetic definition.

    Uses only modulo and order comparisons, never a native bitwise
    operator, so that product_oracle stays an independent construction.
    product, sum_ and neg are each cached: verification_checks asks for
    the 64 products, 64 sums and 8 complements thousands of times.
    """
    a, b = Octal(a), Octal(b)
    c = 0
    for k in (0, 1, 2):
        half = 2 ** k
        full = 2 ** (k + 1)
        c += half * int(a % full >= half) * int(b % full >= half)
    return Octal(c)


@cache
def sum_(a: int, b: int) -> Octal:
    """Supremum of two elements, defined from the product by complementarity."""
    return neg(product(neg(a), neg(b)))


# ---------------------------------------------------------------------------
# bit-triple representation and the bitwise oracles


@dataclass(frozen=True)
class BitTriple:
    """Membership bits for the three atomic outcomes, I first."""

    bit_I: int
    bit_O: int
    bit_D: int

    def __post_init__(self) -> None:
        for name, bit in (("bit_I", self.bit_I), ("bit_O", self.bit_O),
                          ("bit_D", self.bit_D)):
            if bit not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {bit!r}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.bit_I, self.bit_O, self.bit_D)


def bit_and(t: BitTriple, u: BitTriple) -> BitTriple:
    return BitTriple(min(t.bit_I, u.bit_I), min(t.bit_O, u.bit_O),
                     min(t.bit_D, u.bit_D))


def bit_or(t: BitTriple, u: BitTriple) -> BitTriple:
    return BitTriple(max(t.bit_I, u.bit_I), max(t.bit_O, u.bit_O),
                     max(t.bit_D, u.bit_D))


def bit_not(t: BitTriple) -> BitTriple:
    return BitTriple(1 - t.bit_I, 1 - t.bit_O, 1 - t.bit_D)


def octal_to_bits(a: int) -> BitTriple:
    a = Octal(a)
    return BitTriple(a // 4 % 2, a // 2 % 2, a % 2)


def bits_to_octal(t: BitTriple) -> Octal:
    """I carries weight 4, O weight 2, D weight 1."""
    return Octal(4 * t.bit_I + 2 * t.bit_O + t.bit_D)


def product_oracle(a: int, b: int) -> Octal:
    """Bitwise reconstruction of the infimum: componentwise minimum."""
    return bits_to_octal(bit_and(octal_to_bits(a), octal_to_bits(b)))


def sum_oracle(a: int, b: int) -> Octal:
    """Bitwise reconstruction of the supremum: componentwise maximum."""
    return bits_to_octal(bit_or(octal_to_bits(a), octal_to_bits(b)))


# ---------------------------------------------------------------------------
# induced order and the order-theoretic oracles


def leq(a: int, b: int) -> bool:
    """Partial order: a <= b iff product(a, b) = a."""
    return product(a, b) == Octal(a)


def meet_via_order(a: int, b: int) -> Octal:
    """Greatest lower bound found by exhaustive search using leq only."""
    lower = [x for x in ELEMENTS if leq(x, a) and leq(x, b)]
    greatest = [x for x in lower if all(leq(y, x) for y in lower)]
    if len(greatest) != 1:
        raise RuntimeError(f"meet of {int(a)} and {int(b)} is not unique")
    return greatest[0]


def join_via_order(a: int, b: int) -> Octal:
    """Least upper bound found by exhaustive search using leq only."""
    upper = [x for x in ELEMENTS if leq(a, x) and leq(b, x)]
    least = [x for x in upper if all(leq(x, y) for y in upper)]
    if len(least) != 1:
        raise RuntimeError(f"join of {int(a)} and {int(b)} is not unique")
    return least[0]


# ---------------------------------------------------------------------------
# modal-string representation

_MODAL_CHARS = ("I", "O", "D")


class ModalString:
    """Subset of the outcome characters {I, O, D}; the empty set prints as E."""

    __slots__ = ("members",)

    def __init__(self, source: "str | Iterable[str] | ModalString" = "") -> None:
        if isinstance(source, ModalString):
            members = source.members
        elif isinstance(source, str):
            members = frozenset() if source in ("", "E") else frozenset(source)
        else:
            members = frozenset(source)
        bad = members - set(_MODAL_CHARS)
        if bad:
            raise ValueError(f"invalid modal characters: {sorted(bad)!r}")
        self.members: frozenset[str] = members

    def union(self, other: "ModalString") -> "ModalString":
        return ModalString(self.members | ModalString(other).members)

    def intersection(self, other: "ModalString") -> "ModalString":
        return ModalString(self.members & ModalString(other).members)

    def complement(self) -> "ModalString":
        return ModalString(frozenset(_MODAL_CHARS) - self.members)

    def __contains__(self, ch: str) -> bool:
        return ch in self.members

    def __iter__(self):
        return iter(c for c in _MODAL_CHARS if c in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModalString):
            return NotImplemented
        return self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __str__(self) -> str:
        return "".join(self) if self.members else "E"

    def __repr__(self) -> str:
        return f"ModalString({str(self)!r})"


MODAL_E = ModalString("")
MODAL_I = ModalString("I")
MODAL_O = ModalString("O")
MODAL_D = ModalString("D")


def modal_to_bits(m: "str | ModalString") -> BitTriple:
    m = ModalString(m)
    return BitTriple(int("I" in m), int("O" in m), int("D" in m))


def bits_to_modal(t: BitTriple) -> ModalString:
    chars = [c for c, bit in zip(_MODAL_CHARS, t.as_tuple()) if bit]
    return ModalString(chars)


#: all eight modal values, indexed by their integer code
MODALS_BY_OCTAL: tuple[ModalString, ...] = tuple(
    bits_to_modal(octal_to_bits(a)) for a in ELEMENTS
)


# ---------------------------------------------------------------------------
# cube-vertex representation


@dataclass(frozen=True)
class CubeVector:
    """Vertex of the unit cube; every coordinate must be exactly 0 or 1."""

    coordinates: tuple[float, float, float]

    def __post_init__(self) -> None:
        coords = tuple(float(c) for c in self.coordinates)
        if len(coords) != 3 or any(c not in (0.0, 1.0) for c in coords):
            raise ValueError(f"not a cube vertex: {self.coordinates!r}")
        object.__setattr__(self, "coordinates", coords)


def cube_meet(u: CubeVector, v: CubeVector) -> CubeVector:
    """Componentwise product."""
    return CubeVector(tuple(a * b for a, b in
                            zip(u.coordinates, v.coordinates)))


def cube_join(u: CubeVector, v: CubeVector) -> CubeVector:
    """Componentwise a + b - a*b."""
    return CubeVector(tuple(a + b - a * b for a, b in
                            zip(u.coordinates, v.coordinates)))


def cube_not(u: CubeVector) -> CubeVector:
    """Reflection through the cube's main diagonal midpoint."""
    return CubeVector(tuple(1.0 - a for a in u.coordinates))


def bits_to_cube(t: BitTriple) -> CubeVector:
    return CubeVector((float(t.bit_I), float(t.bit_O), float(t.bit_D)))


def cube_to_bits(u: CubeVector) -> BitTriple:
    return BitTriple(*(int(c) for c in u.coordinates))


# ---------------------------------------------------------------------------
# score-interval representation


@dataclass(frozen=True)
class IntervalSet:
    """Union of score bands for thresholds (n, p), held symbolically.

    The three base pieces are the accept band [p, 1], the uncertainty band
    (n, p) and the reject band [0, n]. Membership is stored as one flag per
    piece so the interval algebra is exact.
    """

    n: float
    p: float
    accept: bool
    uncertain: bool
    reject: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.n < self.p <= 1.0:
            raise ValueError(f"invalid thresholds: n={self.n!r} p={self.p!r}")

    def _check_same_bands(self, other: "IntervalSet") -> None:
        if (self.n, self.p) != (other.n, other.p):
            raise ValueError("interval sets built over different thresholds")

    def union(self, other: "IntervalSet") -> "IntervalSet":
        self._check_same_bands(other)
        return IntervalSet(self.n, self.p, self.accept or other.accept,
                           self.uncertain or other.uncertain,
                           self.reject or other.reject)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        self._check_same_bands(other)
        return IntervalSet(self.n, self.p, self.accept and other.accept,
                           self.uncertain and other.uncertain,
                           self.reject and other.reject)

    def complement(self) -> "IntervalSet":
        return IntervalSet(self.n, self.p, not self.accept,
                           not self.uncertain, not self.reject)

    def pieces(self) -> tuple[str, ...]:
        """Concrete interval notation for the included pieces, low to high."""
        out = []
        if self.reject:
            out.append(f"[0, {self.n!r}]")
        if self.uncertain:
            out.append(f"({self.n!r}, {self.p!r})")
        if self.accept:
            out.append(f"[{self.p!r}, 1]")
        return tuple(out)

    def __str__(self) -> str:
        return " u ".join(self.pieces()) if self.pieces() else "{}"


def octal_to_intervals(a: int, bands) -> IntervalSet:
    """Score-band image of an element; `bands` needs n and p attributes."""
    n, p = float(bands.n), float(bands.p)
    t = octal_to_bits(a)
    return IntervalSet(n, p, bool(t.bit_I), bool(t.bit_O), bool(t.bit_D))


def intervals_to_octal(s: IntervalSet) -> Octal:
    return bits_to_octal(BitTriple(int(s.accept), int(s.uncertain),
                                   int(s.reject)))


# ---------------------------------------------------------------------------
# tables, entropy, chains

_OPS = {"product": product, "sum": sum_}


def _op(name: str):
    try:
        return _OPS[name]
    except KeyError:
        raise ValueError(f"op must be 'product' or 'sum', got {name!r}") from None


def entropy(a: int, op: str) -> int:
    """Count of distinct values op(a, b) as b ranges over all eight elements."""
    fn = _op(op)
    return len({fn(a, b) for b in ELEMENTS})


def generate_table(op: str) -> list[list[int]]:
    """Full 8x8 operation table, row index first operand."""
    fn = _op(op)
    return [[int(fn(a, b)) for b in ELEMENTS] for a in ELEMENTS]


def verify_block_recursive(table: list[list[int]]) -> bool:
    """Check the doubling structure of the infimum table.

    Growing from the 1x1 table [[0]], each doubling step k -> 2k repeats the
    leading k-block in the upper-left, upper-right and lower-left quadrants
    and adds k throughout the lower-right quadrant. Returns False for any
    table that breaks the pattern at k in {1, 2, 4}.
    """
    if table[0][0] != 0:
        return False
    for k in (1, 2, 4):
        for i in range(2 * k):
            for j in range(2 * k):
                expected = table[i % k][j % k] + (k if (i >= k and j >= k) else 0)
                if table[i][j] != expected:
                    return False
    return True


def table_csv(op: str) -> str:
    """Operation table as CSV: row label, eight entries, entropy column."""
    _op(op)
    label = "P" if op == "product" else "S"
    table = generate_table(op)
    lines = [",".join([label] + [str(b) for b in range(8)] + ["E"])]
    for a in ELEMENTS:
        row = [str(int(a))] + [str(v) for v in table[a]] + [str(entropy(a, op))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _covers(x: Octal) -> list[Octal]:
    return [y for y in ELEMENTS
            if x != y and leq(x, y)
            and not any(z != x and z != y and leq(x, z) and leq(z, y)
                        for z in ELEMENTS)]


def maximal_chains() -> list[tuple[Octal, ...]]:
    """Every maximal totally ordered subset, each listed bottom to top."""
    minimal = [x for x in ELEMENTS
               if all(x == y or not leq(y, x) for y in ELEMENTS)]
    found: list[tuple[Octal, ...]] = []

    def extend(chain: list[Octal]) -> None:
        nxt = _covers(chain[-1])
        if not nxt:
            found.append(tuple(chain))
            return
        for y in nxt:
            extend(chain + [y])

    for m in minimal:
        extend([m])
    return sorted(found)


def chains_csv() -> str:
    """Maximal chains, one per line, comma-separated bottom to top."""
    return "\n".join(",".join(str(int(x)) for x in chain)
                     for chain in maximal_chains()) + "\n"


def _exhaustive_chains() -> list[tuple[Octal, ...]]:
    # independent reference: filter all 2^8 subsets for maximal total orders
    subsets = []
    for mask in range(1, 256):
        subset = [x for x in ELEMENTS if mask // (2 ** int(x)) % 2 == 1]
        if all(leq(a, b) or leq(b, a) for a in subset for b in subset):
            subsets.append(frozenset(subset))
    maximal = [s for s in subsets
               if not any(s < t for t in subsets)]
    return sorted(tuple(sorted(s, key=lambda x: sum(1 for y in s if leq(y, x))))
                  for s in maximal)


# ---------------------------------------------------------------------------
# subalgebras


def relative_complement(a: int, top: int, bottom: int = 0) -> Octal:
    """Complement of a inside the interval [bottom, top].

    Returns the unique b in the interval with product(a, b) = bottom and
    sum(a, b) = top. Raises when a lies outside the interval.
    """
    a, top, bottom = Octal(a), Octal(top), Octal(bottom)
    if not (leq(bottom, a) and leq(a, top)):
        raise ValueError(
            f"{int(a)} is not inside the interval [{int(bottom)}, {int(top)}]")
    return sum_(bottom, product(top, neg(a)))


def subalgebra_closure(seed: Iterable[int]) -> set[Octal]:
    """Smallest superset of the seed closed under product, sum, and
    complement relative to the generated bottom and top."""
    current = {Octal(x) for x in seed}
    if not current:
        raise ValueError("seed must be non-empty")
    while True:
        bottom = reduce(product, current)
        top = reduce(sum_, current)
        grown = set(current)
        for a in current:
            grown.add(relative_complement(a, top, bottom))
            for b in current:
                grown.add(product(a, b))
                grown.add(sum_(a, b))
        if grown == current:
            return current
        current = grown


# ---------------------------------------------------------------------------
# exhaustive self-verification

_CheckBands = namedtuple("_CheckBands", "n p")


def verification_checks() -> list[tuple[str, int, bool]]:
    """Exhaustive cross-checks of the algebra: (name, cases, passed) rows."""
    pairs = [(a, b) for a in ELEMENTS for b in ELEMENTS]
    triples = [(a, b, c) for a in ELEMENTS for b in ELEMENTS for c in ELEMENTS]
    rows: list[tuple[str, int, bool]] = []

    def add(name: str, cases: int, ok: bool) -> None:
        rows.append((name, cases, bool(ok)))

    add("product_formula_vs_bitwise", 64,
        all(product(a, b) == product_oracle(a, b) for a, b in pairs))
    add("sum_formula_vs_bitwise", 64,
        all(sum_(a, b) == sum_oracle(a, b) for a, b in pairs))
    add("product_vs_order_meet", 64,
        all(product(a, b) == meet_via_order(a, b) for a, b in pairs))
    add("sum_vs_order_join", 64,
        all(sum_(a, b) == join_via_order(a, b) for a, b in pairs))
    add("commutativity", 64,
        all(product(a, b) == product(b, a) and sum_(a, b) == sum_(b, a)
            for a, b in pairs))
    add("associativity", 512,
        all(product(a, product(b, c)) == product(product(a, b), c)
            and sum_(a, sum_(b, c)) == sum_(sum_(a, b), c)
            for a, b, c in triples))
    add("distributivity", 512,
        all(product(a, sum_(b, c)) == sum_(product(a, b), product(a, c))
            and sum_(a, product(b, c)) == product(sum_(a, b), sum_(a, c))
            for a, b, c in triples))
    add("absorption", 64,
        all(product(a, sum_(a, b)) == a and sum_(a, product(a, b)) == a
            for a, b in pairs))
    add("complement_laws", 8,
        all(product(a, neg(a)) == BOTTOM and sum_(a, neg(a)) == TOP
            for a in ELEMENTS))
    add("double_negation", 8, all(neg(neg(a)) == a for a in ELEMENTS))
    add("de_morgan", 64,
        all(neg(product(a, b)) == sum_(neg(a), neg(b))
            and neg(sum_(a, b)) == product(neg(a), neg(b))
            for a, b in pairs))
    add("partial_order_axioms", 512,
        all(leq(a, a) for a in ELEMENTS)
        and all(not (leq(a, b) and leq(b, a)) or a == b for a, b in pairs)
        and all(not (leq(a, b) and leq(b, c)) or leq(a, c)
                for a, b, c in triples))
    add("block_recursive_product", 64,
        verify_block_recursive(generate_table("product")))

    def bit_count(a: Octal) -> int:
        return sum(octal_to_bits(a).as_tuple())

    add("entropy_bit_counts", 16,
        all(entropy(a, "product") == 2 ** bit_count(a)
            and entropy(a, "sum") == 2 ** (3 - bit_count(a))
            for a in ELEMENTS))
    add("maximal_chains", 6, maximal_chains() == _exhaustive_chains())
    add("modal_bits_isomorphism", 64,
        all(modal_to_bits(m.union(w)) == bit_or(modal_to_bits(m), modal_to_bits(w))
            and modal_to_bits(m.intersection(w)) == bit_and(modal_to_bits(m),
                                                            modal_to_bits(w))
            for m in MODALS_BY_OCTAL for w in MODALS_BY_OCTAL)
        and all(modal_to_bits(m.complement()) == bit_not(modal_to_bits(m))
                for m in MODALS_BY_OCTAL))
    add("cube_bits_isomorphism", 64,
        all(cube_to_bits(cube_meet(bits_to_cube(octal_to_bits(a)),
                                   bits_to_cube(octal_to_bits(b))))
            == bit_and(octal_to_bits(a), octal_to_bits(b))
            and cube_to_bits(cube_join(bits_to_cube(octal_to_bits(a)),
                                       bits_to_cube(octal_to_bits(b))))
            == bit_or(octal_to_bits(a), octal_to_bits(b))
            for a, b in pairs)
        and all(cube_to_bits(cube_not(bits_to_cube(octal_to_bits(a))))
                == bit_not(octal_to_bits(a)) for a in ELEMENTS))
    check_bands = _CheckBands(n=0.25, p=0.75)
    add("interval_isomorphism", 64,
        all(octal_to_intervals(product(a, b), check_bands)
            == octal_to_intervals(a, check_bands).intersection(
                octal_to_intervals(b, check_bands))
            and octal_to_intervals(sum_(a, b), check_bands)
            == octal_to_intervals(a, check_bands).union(
                octal_to_intervals(b, check_bands))
            for a, b in pairs)
        and all(octal_to_intervals(neg(a), check_bands)
                == octal_to_intervals(a, check_bands).complement()
                for a in ELEMENTS)
        and all(intervals_to_octal(octal_to_intervals(a, check_bands)) == a
                for a in ELEMENTS))
    add("representation_roundtrips", 8,
        all(bits_to_octal(octal_to_bits(a)) == a
            and bits_to_modal(modal_to_bits(MODALS_BY_OCTAL[a])) == MODALS_BY_OCTAL[a]
            and cube_to_bits(bits_to_cube(octal_to_bits(a))) == octal_to_bits(a)
            for a in ELEMENTS))
    return rows

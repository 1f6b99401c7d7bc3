"""Finite lattice implication algebras.

Every algebra is one table-backed :class:`Algebra`: its elements in display
order, their spellings, and every operation precomputed as a table, so
``leq``, ``meet``, ``join``, ``imp`` and ``neg`` are lookups and a value
that is not an element raises :class:`DimensionError`. Two builders emit
the tables:

- ``ProductAlgebra`` combines Lukasiewicz chains coordinatewise; on a factor
  chain of size n the implication is ``(i, j) -> min(n - i + j, n)``,
  negation is ``i -> n + 1 - i``, and meet/join come out as the
  coordinatewise min/max. A product may have at most
  ``PRODUCT_ELEMENT_LIMIT`` (512) elements; a larger one raises
  :class:`BudgetError` before any table is built.
- ``TableAlgebra`` (usually via :func:`load_table_algebra`) takes explicit
  implication and negation tables. Nothing is assumed about a loaded table,
  so run :func:`check_axioms` to find out whether it actually is a lattice
  implication algebra. The check first tries to prove it by isomorphism:
  every finite lattice implication algebra is a product of Lukasiewicz
  chains, and a table that is one under a renaming of its elements passes
  after O(n^2) lookups. Any other table gets the exhaustive law check.

From the implication the algebra derives the rest once, at construction:
top is the common value of the diagonal, x <= y iff imp(x, y) = top, and
meets and joins come from that order. Every table is indexed by element
position (display order) and holds positions; a :class:`TruthValue` is
only ever an argument or result of the public operations.

The default product of a 3-chain and a 2-chain carries the six linguistic
labels AbT, VeT, SlT, SlF, VeF, AbF (modifier + polarity); every other
algebra spells its values as comma-separated coordinates or table names.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import BudgetError, DimensionError, LoadError, StructureError

# the element budget of check_axioms, for the CLI check and for the check
# behind Algebra._is_lia, which gates the one-closure enumeration and the
# congener test
DEFAULT_AXIOM_BUDGET = 128
# Products build every table eagerly, about n^2 entries each; larger
# products raise BudgetError instead of exhausting time and memory.
PRODUCT_ELEMENT_LIMIT = 512
# a byte other than zero: where the XOR of two byte strings marks a difference
_NONZERO_BYTE = re.compile(rb"[^\x00]")

MODIFIERS = ("Sl", "Ve", "Ab")
META_TRUE = "Tr"
META_FALSE = "Fa"


@dataclass(frozen=True, slots=True)
class TruthValue:
    """A point of a finite algebra: one 1-based index per factor chain.

    Values carry no identity beyond their coordinates; all operations live
    on the owning algebra.
    """

    coords: tuple[int, ...]

    def __repr__(self) -> str:
        return f"TruthValue({self.coords})"


@dataclass(frozen=True, slots=True)
class LinguisticLabel:
    """A hedged truth judgment: a modifier (Sl/Ve/Ab) plus Tr or Fa."""

    modifier: str
    meta: str

    def __post_init__(self):
        if self.modifier not in MODIFIERS:
            raise ValueError(f"unknown modifier {self.modifier!r}")
        if self.meta not in (META_TRUE, META_FALSE):
            raise ValueError(f"unknown meta truth value {self.meta!r}")

    @property
    def spelling(self) -> str:
        return self.modifier + self.meta[0]

    @classmethod
    def from_spelling(cls, text: str) -> "LinguisticLabel":
        if len(text) == 3 and text[:2] in MODIFIERS and text[2] in "TF":
            return cls(text[:2], META_TRUE if text[2] == "T" else META_FALSE)
        raise ValueError(f"not a canonical label: {text!r}")


class Algebra:
    """A finite algebra whose operations are precomputed position tables.

    Builders pass the elements in display order, their spellings, and the
    implication and negation as position tables (``imp[i][j]`` and
    ``neg[i]`` are positions in ``values``). The constructor derives top
    (at position ``_top``), the order (``_up[i]`` / ``_down[i]``: bitmasks
    of the positions above / below i), bottom, and meet and join tables
    with None where no unique bound exists. Each operation is stored once,
    as such a table. Values map to positions in one place, ``_by_coords``,
    keyed by coordinate tuples, which hash in C where a ``TruthValue``
    hashes through its dataclass ``__hash__``: ``_position`` maps one value
    and ``_positions`` a vector, and only a value of type ``TruthValue``
    itself is looked up there. It rejects a non-constant diagonal or a
    non-antisymmetric order with LoadError; every law that can still fail
    is left to :func:`check_axioms`, whose verdict ``_is_lia`` caches on
    first use. So is ``_lattice_fault``, which a ``FuzzyContext`` reads to
    refuse an order that is not a lattice and ``hasse_covers`` reads to
    walk a lattice's covers, and so is ``_code``, the encoding of position
    vectors as ints on which every pointwise meet runs, with
    ``_imp_codes``, its implication rows as translate tables.

    Algebras are immutable after construction and every operation is a pure
    function (the cached verdicts are too), so instances may be shared freely
    between threads.
    """

    def __init__(
        self,
        values: Sequence[TruthValue],
        spellings: Sequence[str],
        imp: Sequence[Sequence[int]],
        neg: Sequence[int],
    ):
        els = tuple(values)
        spellings = tuple(spellings)
        n = len(els)
        self.elements = els
        self._by_coords = {v.coords: i for i, v in enumerate(els)}
        self._spellings = spellings
        self._by_spelling = dict(zip(spellings, els))
        self._imp = tuple(map(tuple, imp))
        self._neg = tuple(neg)

        diagonal = {self._imp[i][i] for i in range(n)}
        if len(diagonal) != 1:
            raise LoadError(
                "derived order is not reflexive: the diagonal takes values "
                f"{sorted(spellings[k] for k in diagonal)} instead of a single top element"
            )
        t = diagonal.pop()
        up = [sum(1 << j for j, k in enumerate(row) if k == t) for row in self._imp]
        down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
        for i in range(n):
            both = up[i] & down[i] & ~((2 << i) - 1)
            if both:
                j = (both & -both).bit_length() - 1
                raise LoadError(
                    f"derived order is not antisymmetric: {spellings[i]} and {spellings[j]} "
                    "lie below each other"
                )
        self._up, self._down = up, down
        self._top = t
        self.top = els[t]
        bottoms = [i for i in range(n) if up[i] == (1 << n) - 1]
        self._bottom = els[bottoms[0]] if bottoms else None
        self._meet = _meet_table(down)
        self._join = _meet_table(up)

    @property
    def bottom(self) -> TruthValue:
        if self._bottom is None:
            raise StructureError("the derived order has no least element")
        return self._bottom

    @cached_property
    def _is_lia(self) -> bool:
        """Whether the algebra is shown to be a lattice implication algebra:
        :func:`check_axioms` passes within ``DEFAULT_AXIOM_BUDGET``
        (128 elements), the budget of the CLI check too, either by
        certifying it as a renamed product of Lukasiewicz chains or by the
        exhaustive law check. An algebra over that budget counts as not
        shown.
        Computed once, on first use; products are LIAs by construction and
        skip the check."""
        try:
            return check_axioms(self).passed
        except BudgetError:
            return False

    @cached_property
    def _lattice_fault(self) -> str | None:
        """Why the derived order is not a lattice, or None when it is: the
        first pair in display order with no meet, else the first triple
        that breaks transitivity, else the first pair with no join.
        Computed once, on first use; products are lattices by construction."""
        els, up = self.elements, self._up

        def unbounded(what: str, table) -> str | None:
            return next((str(self._unbounded(what, els[i], els[row.index(None)]))
                         for i, row in enumerate(table) if None in row), None)

        fault = unbounded("greatest lower bound", self._meet)
        if fault is None:
            triple = next(((i, j, k) for i, above in enumerate(up) for j in _bits(above)
                           for k in _bits(up[j] & ~above)), None)
            if triple is not None:
                x, y, z = (self._spellings[k] for k in triple)
                fault = (f"the derived order is not transitive: {x} <= {y} and {y} <= {z} "
                         f"but not {x} <= {z}")
        return fault or unbounded("least upper bound", self._join)

    @cached_property
    def _code(self) -> "VectorCode":
        """The encoding of position vectors as ints, on which a pointwise
        meet is one ``&`` (see ``VectorCode``). Built once, on first use;
        it needs a lattice order, as every context's algebra has."""
        return VectorCode(self._down, self._top)

    @cached_property
    def _imp_codes(self) -> tuple[bytes, ...] | None:
        """Per element b, the ``bytes.translate`` table taking a position v
        to the one-byte block of imp(b, v) in ``_code``, or None where the
        code's blocks are wider than a byte. Built once, on first use."""
        code = self._code
        if code.block != 1:
            return None
        pad = bytes(256 - len(self.elements))
        return tuple(bytes([code.code[k] for k in row]) + pad for row in self._imp)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Algebra)
            and self.elements == other.elements
            and self._spellings == other._spellings
            and self._imp == other._imp
            and self._neg == other._neg
        )

    def __hash__(self) -> int:
        return hash(self._spellings)

    def _has(self, v) -> bool:
        try:
            return type(v) is TruthValue and v.coords in self._by_coords
        except TypeError:  # unhashable, so certainly not an element
            return False

    def _foreign(self, *values) -> DimensionError:
        bad = next(v for v in values if not self._has(v))
        return DimensionError(f"{bad!r} is not an element of {self!r}")

    def _unbounded(self, what: str, x: TruthValue, y: TruthValue) -> StructureError:
        return StructureError(
            f"no unique {what} for ({self.format_value(x)}, {self.format_value(y)}): "
            "the derived order is not a lattice"
        )

    def check_member(self, v: TruthValue) -> None:
        self._position(v)

    def _position(self, v: TruthValue) -> int:
        """The display position of ``v``, looked up by its coordinates if
        its type is TruthValue itself; anything else (a subclass, or
        another type) or a miss raises DimensionError."""
        try:
            if type(v) is TruthValue:
                return self._by_coords[v.coords]
        except (KeyError, TypeError):  # a miss, or unhashable coordinates
            pass
        raise self._foreign(v)

    def _positions(self, values: Sequence[TruthValue]) -> tuple[int, ...]:
        """The display positions of ``values``, each looked up as
        ``_position`` looks it up; the first non-element raises
        DimensionError."""
        try:
            out = [self._by_coords[v.coords] for v in values if type(v) is TruthValue]
        except (KeyError, TypeError):  # a miss, or unhashable coordinates
            out = []
        if len(out) != len(values):
            raise self._foreign(*values)
        return tuple(out)

    def leq(self, x: TruthValue, y: TruthValue) -> bool:
        return bool(self._up[self._position(x)] >> self._position(y) & 1)

    def meet(self, x: TruthValue, y: TruthValue) -> TruthValue:
        k = self._meet[self._position(x)][self._position(y)]
        if k is None:
            raise self._unbounded("greatest lower bound", x, y)
        return self.elements[k]

    def join(self, x: TruthValue, y: TruthValue) -> TruthValue:
        k = self._join[self._position(x)][self._position(y)]
        if k is None:
            raise self._unbounded("least upper bound", x, y)
        return self.elements[k]

    def imp(self, x: TruthValue, y: TruthValue) -> TruthValue:
        return self.elements[self._imp[self._position(x)][self._position(y)]]

    def neg(self, x: TruthValue) -> TruthValue:
        return self.elements[self._neg[self._position(x)]]

    def format_value(self, v: TruthValue) -> str:
        return self._spellings[self._position(v)]

    def parse_value(self, token: str) -> TruthValue:
        try:
            return self._by_spelling[token]
        except KeyError:
            raise ValueError(f"unknown element {token!r}") from None

    def generated_subalgebra(self, values: Iterable[TruthValue]) -> tuple[TruthValue, ...]:
        """Close the given values, plus top, under imp/neg/meet/join, as
        positions over the operation tables; the result is in display order
        and holds bottom (``neg(top)``). The first pair, in display order,
        of the closure so far with no meet, else no join, raises."""
        closed = {self._top, *self._positions(tuple(values))}
        while True:
            current = sorted(closed)
            reached = {self._neg[x] for x in current}
            for table in (self._imp, self._meet, self._join):
                for x in current:
                    row = table[x]
                    reached.update([row[y] for y in current])
            if None in reached:
                raise next(self._unbounded(what, self.elements[x], self.elements[y])
                           for what, table in (("greatest lower bound", self._meet),
                                               ("least upper bound", self._join))
                           for x in current for y in current if table[x][y] is None)
            if reached <= closed:
                return tuple([self.elements[p] for p in current])
            closed |= reached

    def hasse_covers(self) -> tuple[tuple[TruthValue, TruthValue], ...]:
        """Cover pairs (x, y) with x strictly below y and nothing between,
        sorted by the display positions of x, then y."""
        els = self.elements
        pairs = _cover_pairs(self._up, self._lattice_fault is None)
        return tuple((els[i], els[j]) for i, j in pairs)


def _cover_pairs(up: Sequence[int], transitive: bool) -> Iterable[tuple[int, int]]:
    """Hasse edges of a relation given as bitmasks: ``up[i]`` holds the
    elements above i, with or without i itself. (i, j) is a cover when j is
    above i, j is not i, and no k other than i and j lies above i and below
    j. Pairs come in (i, j) order.

    When the caller knows the relation is transitive and the index order
    lists upper elements first (checked here: no bit of ``up[i]`` above
    i), the work follows the number of covers: the highest index left
    above i is minimal there, so it is a cover, and removing everything at
    or above it leaves the remaining covers. Otherwise the masks of the
    elements below each j are built from ``up`` and every strict pair is
    tested on its own, with no transitivity assumed.
    """
    if transitive and all(not above >> (i + 1) for i, above in enumerate(up)):
        for i, above in enumerate(up):
            rest, found = above & ~(1 << i), []
            while rest:
                j = rest.bit_length() - 1
                found.append(j)
                rest &= ~up[j]
            for j in reversed(found):
                yield i, j
        return
    down = [0] * len(up)
    for i, above in enumerate(up):
        for j in _bits(above):
            down[j] |= 1 << i
    for i, above in enumerate(up):
        for j in _bits(above & ~(1 << i)):
            if not above & down[j] & ~(1 << i | 1 << j):
                yield i, j


def _bits(mask: int) -> Iterable[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _meet_table(below: list[int]) -> list[list[int | None]]:
    """Meet table of an order given as bitmasks: ``below[i]`` holds the
    elements below i. Given the masks of the elements above instead, it
    returns the join table, the meet of the dual order.

    The meet of (i, j) is the common element whose own mask holds every
    other common element. Antisymmetry makes it unique when it exists; a
    pair without one gets None. On a lattice the down-set of the meet is
    exactly the common mask ``below[i] & below[j]``, so each cell is one
    lookup of that mask among the elements' own masks. Only a cell that
    misses, which a non-transitive order can have, searches its common
    elements for one whose mask holds them all.
    """
    of_mask = {mask: k for k, mask in enumerate(below)}.get
    table = [list(map(of_mask, map(mask.__and__, below))) for mask in below]
    for i, row in enumerate(table):
        if None in row:
            for j in [j for j, k in enumerate(row) if k is None]:
                common = below[i] & below[j]
                row[j] = next((k for k in _bits(common) if not common & ~below[k]), None)
    return table


class VectorCode:
    """Vectors of element positions encoded as ints, so that the pointwise
    meet of two vectors is the ``&`` of their ints.

    ``code[p]`` is the bitmask of the join-irreducible elements at or below
    p, the irreducibles numbered in display order. On a finite lattice that
    map is injective and an order embedding, and the code of a meet is the
    ``&`` of the codes (Davey and Priestley, *Introduction to Lattices and
    Order*, 2002). A vector is one int of fixed-width blocks, one per
    component and component 0 lowest; a block is ``block`` bytes, enough for
    one bit per irreducible. ``encode`` builds that int and ``decode`` maps
    an int of ``length`` blocks back to positions: with one-byte blocks (at
    most eight irreducibles, so at most 256 elements) by one
    ``bytes.translate``, otherwise through a dict keyed by each block's
    bytes.
    """

    __slots__ = ("code", "block", "_blocks", "_top", "_table", "_of_block")

    def __init__(self, down: Sequence[int], top: int):
        # j is join-irreducible when the elements strictly below it have a
        # greatest one: their mask is some element's down-set
        downsets = set(down)
        irreducibles = [j for j, mask in enumerate(down) if (mask & ~(1 << j)) in downsets]
        self.code = tuple(
            sum(1 << r for r, j in enumerate(irreducibles) if mask >> j & 1) for mask in down
        )
        self.block = max(1, -(-len(irreducibles) // 8))
        self._blocks = [c.to_bytes(self.block, "little") for c in self.code]
        self._top = self._blocks[top]
        self._table = self._of_block = None
        if self.block == 1:
            table = bytearray(256)
            for p, c in enumerate(self.code):
                table[c] = p
            self._table = bytes(table)
        else:
            self._of_block = {b: p for p, b in enumerate(self._blocks)}

    def encode(self, positions: Iterable[int]) -> int:
        """The int of a vector of positions."""
        return int.from_bytes(b"".join([self._blocks[p] for p in positions]), "little")

    def top(self, length: int) -> int:
        """The int of the all-top vector of ``length`` components."""
        return int.from_bytes(self._top * length, "little")

    def decode(self, vector: int, length: int) -> tuple[int, ...]:
        """The positions of an int of ``length`` blocks."""
        if self._table is not None:
            return tuple(vector.to_bytes(length, "little").translate(self._table))
        w, of_block = self.block, self._of_block
        data = vector.to_bytes(length * w, "little")
        return tuple([of_block[data[i:i + w]] for i in range(0, length * w, w)])


class ProductAlgebra(Algebra):
    """Builder for a product of Lukasiewicz chains, ordered coordinatewise.

    Products of more than ``PRODUCT_ELEMENT_LIMIT`` elements raise
    BudgetError.
    """

    _is_lia = True  # every product of Lukasiewicz chains is one
    _lattice_fault = None  # every coordinatewise order is a lattice

    def __init__(self, chain_sizes: Sequence[int]):
        sizes = tuple(int(n) for n in chain_sizes)
        if not sizes:
            raise ValueError("at least one factor chain is required")
        if any(n < 2 for n in sizes):
            raise ValueError(f"every chain size must be >= 2, got {list(sizes)}")
        if math.prod(sizes) > PRODUCT_ELEMENT_LIMIT:
            raise BudgetError(
                f"product {' '.join(map(str, sizes))} has {math.prod(sizes)} elements, "
                f"over the limit of {PRODUCT_ELEMENT_LIMIT}"
            )
        self.chain_sizes = sizes
        # display order runs top-down, later factors first (see
        # _lukasiewicz); on the default algebra this yields AbT VeT SlT SlF
        # VeF AbF
        coords = [()]
        for n in sizes:
            coords = [c + (n - r,) for r in range(n) for c in coords]
        super().__init__(
            [TruthValue(c) for c in coords],
            [_label_of(c).spelling if self.is_linguistic else ",".join(map(str, c))
             for c in coords],
            *_lukasiewicz(sizes),
        )

    def __repr__(self) -> str:
        return f"ProductAlgebra({list(self.chain_sizes)})"

    def describe(self) -> str:
        return "product " + " ".join(str(n) for n in self.chain_sizes)

    @property
    def is_linguistic(self) -> bool:
        return self.chain_sizes == (3, 2)

    def value(self, *coords: int) -> TruthValue:
        """The element with the given coordinates."""
        return self.elements[self._position(TruthValue(tuple(int(c) for c in coords)))]

    def parse_value(self, token: str) -> TruthValue:
        """A spelling, or on any product a comma-separated coordinate token."""
        if token in self._by_spelling:
            return self._by_spelling[token]
        try:
            return self.value(*token.split(","))
        except ValueError:  # also DimensionError, a ValueError
            raise ValueError(f"unknown value {token!r} for algebra '{self.describe()}'") from None


def _lukasiewicz(sizes: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """The implication and negation position tables of the product of
    Lukasiewicz chains of the given sizes. A coordinate c on a chain of size
    n has rank n - c, and the display position is the mixed-radix number of
    the ranks, the first factor lowest. On ranks a chain's implication is
    ``max(rb - ra, 0)`` and its negation ``n - 1 - r``, so the tables grow
    one factor at a time, by one addition per entry."""
    imp, neg = [[0]], [0]
    for n in sizes:
        m = len(neg)
        offsets = [[m * max(s - r, 0) for s in range(n)] for r in range(n)]
        imp = [[v + o for o in offsets[r] for v in row] for r in range(n) for row in imp]
        neg = [v + m * (n - 1 - r) for r in range(n) for v in neg]
    return imp, neg


def default_algebra() -> ProductAlgebra:
    """The six-element algebra of (modifier, polarity) linguistic labels."""
    return ProductAlgebra((3, 2))


def label_to_value(label: LinguisticLabel, algebra: Algebra) -> TruthValue:
    """Encode a linguistic label on the default product 3 2 algebra."""
    _require_linguistic(algebra)
    return algebra.parse_value(label.spelling)


def label_from_value(value: TruthValue, algebra: Algebra) -> LinguisticLabel:
    """Decode a default-algebra value back to its linguistic label."""
    _require_linguistic(algebra)
    algebra.check_member(value)
    return _label_of(value.coords)


def _label_of(coords: tuple[int, ...]) -> LinguisticLabel:
    # Tr labels sit on the upper rail at their modifier rank; Fa labels
    # mirror the rank on the lower rail, so Ab pins the extremes (AbT = top,
    # AbF = bottom) and Sl sits closest to the middle.
    i, j = coords
    if j == 2:
        return LinguisticLabel(MODIFIERS[i - 1], META_TRUE)
    return LinguisticLabel(MODIFIERS[(4 - i) - 1], META_FALSE)


def _require_linguistic(algebra: Algebra) -> None:
    if not (isinstance(algebra, ProductAlgebra) and algebra.is_linguistic):
        raise ValueError("linguistic labels are defined only on the product 3 2 algebra")


class TableAlgebra(Algebra):
    """Builder for an algebra given by implication and negation tables.

    Elements are numbered in declared order, which is also the display
    order. The order is derived from the implication alone (see
    :class:`Algebra`), and meets and joins are derived from the order; a
    pair with no unique bound raises :class:`StructureError` when used. A
    table whose order is not a lattice loads, so that :func:`check_axioms`
    can report it, but a context over it is refused when it is built.
    """

    def __init__(
        self,
        element_names: Sequence[str],
        imp_table: dict[tuple[str, str], str],
        neg_table: dict[str, str],
        source: str | None = None,
    ):
        names = tuple(element_names)
        if not names:
            raise LoadError("a table algebra needs at least one element")
        if len(set(names)) != len(names):
            raise LoadError(f"duplicate element name in {list(names)}")
        index = {name: i for i, name in enumerate(names)}
        for x, y in imp_table:
            if x not in index or y not in index:
                raise LoadError(f"implication entry ({x}, {y}) names an undeclared element")
        for x in neg_table:
            if x not in index:
                raise LoadError(f"negation entry for {x!r} names an undeclared element")
        for x in names:
            for y in names:
                v = imp_table.get((x, y))
                if v is None:
                    raise LoadError(f"implication table is missing entry ({x}, {y})")
                if v not in index:
                    raise LoadError(f"implication entry ({x}, {y}) = {v!r} is not an element")
        for x in names:
            v = neg_table.get(x)
            if v is None:
                raise LoadError(f"negation table is missing entry for {x}")
            if v not in index:
                raise LoadError(f"negation entry {x} -> {v!r} is not an element")
        self.element_names = names
        self.source = source
        super().__init__(
            [TruthValue((i + 1,)) for i in range(len(names))],
            names,
            [[index[imp_table[x, y]] for y in names] for x in names],
            [index[neg_table[x]] for x in names],
        )

    def __repr__(self) -> str:
        return f"TableAlgebra({list(self.element_names)})"

    def describe(self) -> str:
        if self.source is None:
            raise ValueError("table algebra was built in memory and has no source path")
        return f"table {self.source}"


def load_table_algebra(text: str, source: str | None = None) -> TableAlgebra:
    """Parse the line-oriented table format into a TableAlgebra.

    Expected layout (``#`` starts a comment)::

        elements O I
        imp O I I
        imp I O I
        neg O I
        neg I O

    One ``imp`` row per element, in declared order; one ``neg`` line per
    element. Totality, reflexivity and antisymmetry of the derived order are
    validated here; run :func:`check_axioms` for the full law suite.
    """
    names: list[str] = []
    imp_rows: list[tuple[int, str, list[str]]] = []
    neg_lines: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, rest = parts[0], parts[1:]
        if kind == "elements":
            if names:
                raise LoadError("duplicate 'elements' line", lineno)
            if not rest:
                raise LoadError("'elements' needs at least one name", lineno)
            names = rest
        elif kind == "imp":
            if not names:
                raise LoadError("'imp' before 'elements'", lineno)
            if len(rest) != 1 + len(names):
                raise LoadError(
                    f"'imp' row needs a row name and {len(names)} values", lineno
                )
            imp_rows.append((lineno, rest[0], rest[1:]))
        elif kind == "neg":
            if not names:
                raise LoadError("'neg' before 'elements'", lineno)
            if len(rest) != 2:
                raise LoadError("'neg' takes exactly a name and a value", lineno)
            neg_lines.append((lineno, rest[0], rest[1]))
        else:
            raise LoadError(f"unknown directive {kind!r}", lineno)

    if not names:
        raise LoadError("missing 'elements' line")
    if len(imp_rows) != len(names):
        raise LoadError(f"expected {len(names)} 'imp' rows, found {len(imp_rows)}")
    imp_table: dict[tuple[str, str], str] = {}
    for (lineno, row_name, values), expected in zip(imp_rows, names):
        if row_name != expected:
            raise LoadError(
                f"'imp' rows must follow the declared order; expected {expected!r}", lineno
            )
        for col_name, v in zip(names, values):
            imp_table[(row_name, col_name)] = v
    neg_table: dict[str, str] = {}
    for lineno, name, v in neg_lines:
        if name not in names:
            raise LoadError(f"'neg' line names undeclared element {name!r}", lineno)
        if name in neg_table:
            raise LoadError(f"duplicate 'neg' line for {name!r}", lineno)
        neg_table[name] = v
    return TableAlgebra(names, imp_table, neg_table, source=source)


@dataclass
class AxiomReport:
    """Outcome of the exhaustive law check.

    Each violation is a (law, witness) pair where the witness lists the
    offending elements in display spelling. ``passed`` holds exactly when no
    violation was found.
    """

    violations: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def check_axioms(algebra: Algebra) -> AxiomReport:
    """Test the laws of a lattice implication algebra. Algebras larger than
    ``DEFAULT_AXIOM_BUDGET``, read at call time, raise BudgetError. One that
    :func:`_is_lukasiewicz_product` certifies is isomorphic to a lattice
    implication algebra and passes untested; every other, one with a
    missing bound too, gets the exhaustive check over every element tuple:
    bounded-top/-bottom, meet-/join-defined, neg-involutive, neg-antitone,
    lia-3, lia-5 and the cubic lia-1, lia-6, lia-7, meet-assoc and
    join-assoc. Eight more laws hold on every ``Algebra`` by construction
    and are not tested: lia-2 (top is the diagonal's single value), lia-4
    (antisymmetry, which construction enforces), and meet-/join-idem,
    meet-/join-comm and both absorption laws (``_meet_table`` derives (x, y)
    and (y, x) from the same common mask and, on a reflexive antisymmetric
    order, gives x for (x, x) and for any (x, y) with y above x).

    The laws are read straight from the algebra's position tables, over
    positions in display order, so witnesses come in that order. A pair
    missing either bound is reported as ``meet-defined`` and/or
    ``join-defined`` and is skipped for both operations by every later law.
    Every violating instance is reported with a witness tuple of spellings.

    The five cubic laws (lia-1, lia-6, lia-7, meet-assoc, join-assoc) take
    one path, on every table. A screen compares the two sides of each law
    row by row over x, over all (y, z) at once, with ``bytes.translate``
    kernels in which a missing bound is a sentinel position (see
    :func:`_flagged_cells`). It returns the cells (y, z) where both sides
    of some law are defined and differ, which are exactly the cells that
    hold a violation. Only those cells replay the exact per-cell checks, in
    (y, z) order and with the laws in the order above, so the violations
    and their order are those of a loop over every (x, y, z). The Python
    work is quadratic plus one replay per violating cell, and the cubic
    work runs in C.
    """
    n = len(algebra.elements)
    if n > DEFAULT_AXIOM_BUDGET:
        raise BudgetError(f"{n} elements exceed the axiom-check budget of {DEFAULT_AXIOM_BUDGET}")
    if _is_lukasiewicz_product(algebra):
        return AxiomReport()
    name = algebra._spellings
    imp, neg, up, down = algebra._imp, algebra._neg, algebra._up, algebra._down
    els = range(n)
    report = AxiomReport()
    bad = report.violations

    # bounded: a greatest and a least element must exist
    every = (1 << n) - 1
    if every not in down:
        bad.append(("bounded-top", ()))
    if every not in up:
        bad.append(("bounded-bottom", ()))

    # totality of meet/join; a pair missing either bound counts as
    # undefined for both operations
    meet = [[None] * n for _ in els]
    join = [[None] * n for _ in els]
    for x, y in itertools.product(els, repeat=2):
        m, j = algebra._meet[x][y], algebra._join[x][y]
        if m is None:
            bad.append(("meet-defined", (name[x], name[y])))
        if j is None:
            bad.append(("join-defined", (name[x], name[y])))
        if m is not None and j is not None:
            meet[x][y], join[x][y] = m, j

    for x in els:
        if neg[neg[x]] != x:
            bad.append(("neg-involutive", (name[x],)))
    for x, y in itertools.product(els, repeat=2):
        if up[x] >> y & 1 and not up[neg[y]] >> neg[x] & 1:
            bad.append(("neg-antitone", (name[x], name[y])))

    for x, y in itertools.product(els, repeat=2):
        if imp[x][y] != imp[neg[y]][neg[x]]:
            bad.append(("lia-3", (name[x], name[y])))
        if imp[imp[x][y]][y] != imp[imp[y][x]][x]:
            bad.append(("lia-5", (name[x], name[y])))

    # the cubic laws: the screen flags the cells (x, y, z) where some law
    # fails, and only those are replayed, for their witnesses in order
    for x, cells in _flagged_cells(imp, meet, join):
        _cubic_cells(x, cells, imp, meet, join, name, bad)

    return report


def _is_lukasiewicz_product(algebra: Algebra) -> bool:
    """Whether the algebra's implication and negation tables are those of a
    product of Lukasiewicz chains under a renaming of its elements: a proof,
    by isomorphism and in O(n^2) lookups, that it is a lattice implication
    algebra. Every finite one is such a product (Cignoli, D'Ottaviano and
    Mundici, 2000, ch. 3), whose factors are the down-sets of the atoms of
    its Boolean elements (x v neg x = top). The renaming sends x to the
    ranks of its meets with those atoms, numbered as ``_lukasiewicz`` does;
    the verdict rests only on the last step, that it is a bijection carrying
    every ``_imp`` and ``_neg`` entry onto the product's."""
    n, top, neg, down = len(algebra.elements), algebra._top, algebra._neg, algebra._down
    meet, join = algebra._meet, algebra._join
    if any(None in row for row in meet):
        return False
    boolean = sum(1 << x for x in range(n) if join[x][neg[x]] == top)
    bottom = 1 << neg[top]
    factors, sizes, stride = [], [], 1  # (atom, stride, rank of each element below it)
    for b in _bits(boolean & ~bottom):
        chain = down[b]
        if boolean & chain != bottom | 1 << b:
            continue  # a Boolean element, but not an atom
        k = chain.bit_count()
        rank = {y: k - (down[y] & chain).bit_count() for y in _bits(chain)}
        if sorted(rank.values()) != list(range(k)):  # not a chain
            return False
        factors.append((b, stride, rank))
        sizes.append(k)
        stride *= k
    perm = [sum(s * rank[row[b]] for b, s, rank in factors) for row in meet]
    if stride != n or len(set(perm)) != n:
        return False
    product_imp, product_neg = _lukasiewicz(sizes)
    at = perm.__getitem__
    return list(map(at, neg)) == list(map(product_neg.__getitem__, perm)) and all(
        list(map(at, row)) == list(map(product_imp[p].__getitem__, perm))
        for row, p in zip(algebra._imp, perm)
    )


def _flagged_cells(imp, meet, join) -> Iterator[tuple[int, list[int]]]:
    """Per row x, ascending, the cells y * n + z, ascending, at which lia-1,
    lia-6, lia-7, meet-assoc or join-assoc has two defined sides that
    differ, given the position tables of n elements, with None where a pair
    has no bound. Rows without such a cell are left out.

    None is encoded as the sentinel position n, so n < 256 is needed for a
    position to fit a byte; :func:`check_axioms` holds n to
    ``DEFAULT_AXIOM_BUDGET`` (128) before the screen runs. Every row of the
    three tables and every implication column is built once as ``bytes``
    (``rows_i``, ``rows_m``, ``rows_j``, ``cols``), and once more padded
    with the sentinel to 256 bytes as a ``bytes.translate`` table (``ti``,
    ``tm``, ``tj``, ``tc``). So ``b.translate(tm[a])`` is the meet of a with
    each position in b, computed in C, and a sentinel in b yields the
    sentinel. Per x the screen compares, over all (y, z) at once:

    - lia-1, x -> (y -> z) against y -> (x -> z), row by row:
      ``all_i.translate(ti[x])`` with ``ix.translate(ti[y])`` over y;
    - meet-assoc, x ^ (y ^ z) against (x ^ y) ^ z, row by row:
      ``all_m.translate(tm[x])`` with ``rows_m[meet[x][y]]`` over y, a row
      of sentinels where meet[x][y] is missing, and join-assoc the same on
      the join tables;
    - lia-6, (x -> z) ^ (y -> z) against (x v y) -> z, column by column:
      ``cols[z].translate(tm[imp[x][z]])`` with
      ``rows_j[x].translate(tc[z])`` over z, and lia-7 the same with meet
      and join swapped. Their cells z * n + y are mapped to y * n + z.

    A side is the sentinel exactly when it reads a missing bound, which is
    where the exact check skips the law, so a cell is flagged only where
    both sides of a law are defined and differ: exactly the cells that
    hold a violation, on every table.
    """
    n = len(imp)
    rows_i = [bytes(row) for row in imp]
    rows_m, rows_j = (
        [bytes(n if v is None else v for v in row) for row in table] for table in (meet, join)
    )
    cols = [bytes(col) for col in zip(*imp)]
    pad = bytes([n]) * (256 - n)
    defined = bytes([255]) * n + bytes(256 - n)  # 0xFF at a position, 0 at the sentinel
    ti, tm, tj, tc = ([b + pad for b in table] for table in (rows_i, rows_m, rows_j, cols))
    all_i, all_m, all_j = map(b"".join, (rows_i, rows_m, rows_j))
    # row lookups that read the sentinel row where x ^ y or x v y is missing
    meet_row, join_row = ((rows + [bytes([n]) * n]).__getitem__ for rows in (rows_m, rows_j))
    for x, (ix, mx, jx) in enumerate(zip(rows_i, rows_m, rows_j)):
        by_row = (
            (all_i.translate(ti[x]), b"".join(map(ix.translate, ti))),
            (all_m.translate(tm[x]), b"".join(map(meet_row, mx))),
            (all_j.translate(tj[x]), b"".join(map(join_row, jx))),
        )
        by_column = (
            (b"".join(map(bytes.translate, cols, map(tm.__getitem__, ix))),
             b"".join(map(jx.translate, tc))),
            (b"".join(map(bytes.translate, cols, map(tj.__getitem__, ix))),
             b"".join(map(mx.translate, tc))),
        )
        cells = {i for a, b in by_row if a != b for i in _differences(a, b, defined)}
        cells.update(
            i % n * n + i // n for a, b in by_column if a != b for i in _differences(a, b, defined)
        )
        if cells:
            yield x, sorted(cells)


def _differences(a: bytes, b: bytes, defined: bytes) -> Iterator[int]:
    """The indexes, ascending, at which two byte strings of equal length
    hold different bytes that the translate table ``defined`` maps to 0xFF
    in both: the nonzero bytes of their XOR, masked by both translations."""
    word = int.from_bytes
    diff = word(a, "little") ^ word(b, "little")
    diff &= word(a.translate(defined), "little") & word(b.translate(defined), "little")
    return (match.start() for match in _NONZERO_BYTE.finditer(diff.to_bytes(len(a), "little")))


def _cubic_cells(x: int, cells: Iterable[int], imp, meet, join, name, bad: list) -> None:
    """Append the violations of the cubic laws at (x, y, z) for each cell
    y * n + z, in the order given, to ``bad``; pairs without a bound are
    skipped."""
    n = len(imp)
    imp_x, meet_x, join_x = imp[x], meet[x], join[x]
    for y, z in (divmod(cell, n) for cell in cells):
        imp_y, meet_y, join_y = imp[y], meet[y], join[y]
        mxy, jxy = meet_x[y], join_x[y]
        xz, yz = imp_x[z], imp_y[z]
        if imp_x[yz] != imp_y[xz]:
            bad.append(("lia-1", (name[x], name[y], name[z])))
        if jxy is not None and meet[xz][yz] is not None and imp[jxy][z] != meet[xz][yz]:
            bad.append(("lia-6", (name[x], name[y], name[z])))
        if mxy is not None and join[xz][yz] is not None and imp[mxy][z] != join[xz][yz]:
            bad.append(("lia-7", (name[x], name[y], name[z])))
        myz, jyz = meet_y[z], join_y[z]
        if mxy is not None and myz is not None:
            left, right = meet_x[myz], meet[mxy][z]
            if left is not None and right is not None and left != right:
                bad.append(("meet-assoc", (name[x], name[y], name[z])))
        if jxy is not None and jyz is not None:
            left, right = join_x[jyz], join[jxy][z]
            if left is not None and right is not None and left != right:
                bad.append(("join-assoc", (name[x], name[y], name[z])))

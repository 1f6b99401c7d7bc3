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
  implication algebra.

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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import BudgetError, DimensionError, LoadError, StructureError

DEFAULT_AXIOM_BUDGET = 64
# Products build every table eagerly, about n^2 entries each; larger
# products raise BudgetError instead of exhausting time and memory.
PRODUCT_ELEMENT_LIMIT = 512

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
    with None where no unique bound exists (``_meet_partial`` says whether
    the meet table holds a None). Each operation is stored once, as such a
    table; the ops map their TruthValue arguments to positions through
    ``_rank``. It rejects a non-constant diagonal or a non-antisymmetric
    order with LoadError; every other law is left to :func:`check_axioms`,
    whose verdict ``_is_lia`` caches on first use. ``_is_transitive`` is
    cached the same way, for covers.

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
        self._rank = {v: i for i, v in enumerate(els)}
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
        self._meet_partial = any(None in row for row in self._meet)

    @property
    def bottom(self) -> TruthValue:
        if self._bottom is None:
            raise StructureError("the derived order has no least element")
        return self._bottom

    @cached_property
    def _is_lia(self) -> bool:
        """Whether the algebra is shown to be a lattice implication algebra:
        :func:`check_axioms` passes within its default element budget. An
        algebra over the budget counts as not shown. Computed once, on first
        use; products are LIAs by construction and skip the check."""
        try:
            return check_axioms(self).passed
        except BudgetError:
            return False

    @cached_property
    def _is_transitive(self) -> bool:
        """Whether the derived order is transitive: every element above i
        has its own upper set inside i's. O(n^2) mask work, computed once,
        on first use."""
        up = self._up
        return all(not up[j] & ~above for above in up for j in _bits(above))

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
            return v in self._rank
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
        if not self._has(v):
            raise self._foreign(v)

    def _positions(self, values: Sequence[TruthValue]) -> tuple[int, ...]:
        """The display positions of ``values``; the first non-element
        raises DimensionError."""
        try:
            return tuple([self._rank[v] for v in values])
        except (KeyError, TypeError):
            raise self._foreign(*values) from None

    def leq(self, x: TruthValue, y: TruthValue) -> bool:
        try:
            return bool(self._up[self._rank[x]] >> self._rank[y] & 1)
        except (KeyError, TypeError):
            raise self._foreign(x, y) from None

    def meet(self, x: TruthValue, y: TruthValue) -> TruthValue:
        try:
            k = self._meet[self._rank[x]][self._rank[y]]
        except (KeyError, TypeError):
            raise self._foreign(x, y) from None
        if k is None:
            raise self._unbounded("greatest lower bound", x, y)
        return self.elements[k]

    def _meet_columns(self, left: Sequence[int], right: Sequence[int]) -> tuple[int, ...]:
        """The pointwise meet of two vectors of element positions. On an
        algebra whose meet is partial, a pair with no meet raises the
        StructureError ``meet`` raises, naming it, the first such component
        first."""
        meet = self._meet
        out = tuple([meet[p][q] for p, q in zip(left, right)])
        if self._meet_partial and None in out:
            m = out.index(None)
            els = self.elements
            raise self._unbounded("greatest lower bound", els[left[m]], els[right[m]])
        return out

    def join(self, x: TruthValue, y: TruthValue) -> TruthValue:
        try:
            k = self._join[self._rank[x]][self._rank[y]]
        except (KeyError, TypeError):
            raise self._foreign(x, y) from None
        if k is None:
            raise self._unbounded("least upper bound", x, y)
        return self.elements[k]

    def imp(self, x: TruthValue, y: TruthValue) -> TruthValue:
        try:
            return self.elements[self._imp[self._rank[x]][self._rank[y]]]
        except (KeyError, TypeError):
            raise self._foreign(x, y) from None

    def neg(self, x: TruthValue) -> TruthValue:
        try:
            return self.elements[self._neg[self._rank[x]]]
        except (KeyError, TypeError):
            raise self._foreign(x) from None

    def format_value(self, v: TruthValue) -> str:
        try:
            return self._spellings[self._rank[v]]
        except (KeyError, TypeError):
            raise self._foreign(v) from None

    def parse_value(self, token: str) -> TruthValue:
        try:
            return self._by_spelling[token]
        except KeyError:
            raise ValueError(f"unknown element {token!r}") from None

    def generated_subalgebra(self, values: Iterable[TruthValue]) -> tuple[TruthValue, ...]:
        """Close the given values, plus top, under imp/neg/meet/join.

        The result is returned in display order. Seeding with top
        guarantees the closure is never empty and always contains bottom
        (as ``neg(top)``).
        """
        closed = {self.top}
        for v in values:
            self.check_member(v)
            closed.add(v)
        while True:
            current = list(closed)
            new = set()
            for x in current:
                nx = self.neg(x)
                if nx not in closed:
                    new.add(nx)
                for y in current:
                    for z in (self.imp(x, y), self.meet(x, y), self.join(x, y)):
                        if z not in closed:
                            new.add(z)
            if not new:
                break
            closed |= new
        return tuple(sorted(closed, key=self._rank.__getitem__))

    def hasse_covers(self) -> tuple[tuple[TruthValue, TruthValue], ...]:
        """Cover pairs (x, y) with x strictly below y and nothing between,
        sorted by the display positions of x, then y."""
        els = self.elements
        pairs = _cover_pairs(self._up, self._is_transitive)
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
    pair without one gets None. Only the common elements are visited, never
    all n per pair.
    """
    n = len(below)
    table: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            common = below[i] & below[j]
            for k in _bits(common):
                if not common & ~below[k]:
                    table[i][j] = table[j][i] = k
                    break
    return table


class ProductAlgebra(Algebra):
    """Builder for a product of Lukasiewicz chains, ordered coordinatewise.

    Products of more than ``PRODUCT_ELEMENT_LIMIT`` elements raise
    BudgetError.
    """

    _is_lia = True  # every product of Lukasiewicz chains is one
    _is_transitive = True  # every coordinatewise order is

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
        # display order runs top-down, later factors first; on the default
        # algebra this yields AbT VeT SlT SlF VeF AbF
        coords = sorted(
            itertools.product(*[range(1, n + 1) for n in sizes]),
            key=lambda c: c[::-1],
            reverse=True,
        )
        index = {c: i for i, c in enumerate(coords)}
        super().__init__(
            [TruthValue(c) for c in coords],
            [_label_of(c).spelling if self.is_linguistic else ",".join(map(str, c))
             for c in coords],
            [[index[tuple(min(n - a + b, n) for a, b, n in zip(x, y, sizes))] for y in coords]
             for x in coords],
            [index[tuple(n + 1 - a for a, n in zip(c, sizes))] for c in coords],
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
        v = TruthValue(tuple(int(c) for c in coords))
        self.check_member(v)
        return self.elements[self._rank[v]]

    def parse_value(self, token: str) -> TruthValue:
        """A spelling, or on any product a comma-separated coordinate token."""
        if token in self._by_spelling:
            return self._by_spelling[token]
        try:
            return self.value(*token.split(","))
        except ValueError:  # also DimensionError, a ValueError
            raise ValueError(f"unknown value {token!r} for algebra '{self.describe()}'") from None


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
    pair with no unique bound raises :class:`StructureError` when used.
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


def check_axioms(algebra: Algebra, element_budget: int = DEFAULT_AXIOM_BUDGET) -> AxiomReport:
    """Exhaustively test the bounded-lattice laws, the order-reversing
    involution, and the seven implication axioms over every element tuple.

    The laws are read straight from the algebra's position tables, over
    positions in display order, so witnesses come in that order. A pair
    missing either bound is reported as ``meet-defined`` and/or
    ``join-defined`` and is skipped for both operations by every later law.
    The check is cubic in the element count and meant for desk-scale
    validation; algebras larger than ``element_budget`` raise BudgetError.
    Every violating instance is reported with a witness tuple of spellings.
    """
    n = len(algebra.elements)
    if n > element_budget:
        raise BudgetError(f"{n} elements exceed the axiom-check budget of {element_budget}")
    name = algebra._spellings
    imp, neg, up, down = algebra._imp, algebra._neg, algebra._up, algebra._down
    top = algebra._top
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
        if meet[x][x] is not None and meet[x][x] != x:
            bad.append(("meet-idem", (name[x],)))
        if join[x][x] is not None and join[x][x] != x:
            bad.append(("join-idem", (name[x],)))
        if neg[neg[x]] != x:
            bad.append(("neg-involutive", (name[x],)))

    for x, y in itertools.product(els, repeat=2):
        mxy, myx = meet[x][y], meet[y][x]
        jxy, jyx = join[x][y], join[y][x]
        if mxy is not None and myx is not None and mxy != myx:
            bad.append(("meet-comm", (name[x], name[y])))
        if jxy is not None and jyx is not None and jxy != jyx:
            bad.append(("join-comm", (name[x], name[y])))
        if jxy is not None and meet[x][jxy] is not None and meet[x][jxy] != x:
            bad.append(("absorb-meet-join", (name[x], name[y])))
        if mxy is not None and join[x][mxy] is not None and join[x][mxy] != x:
            bad.append(("absorb-join-meet", (name[x], name[y])))
        if up[x] >> y & 1 and not up[neg[y]] >> neg[x] & 1:
            bad.append(("neg-antitone", (name[x], name[y])))

    for x in els:
        if imp[x][x] != top:
            bad.append(("lia-2", (name[x],)))
    for x, y in itertools.product(els, repeat=2):
        if imp[x][y] != imp[neg[y]][neg[x]]:
            bad.append(("lia-3", (name[x], name[y])))
        if imp[x][y] == top and imp[y][x] == top and x != y:
            bad.append(("lia-4", (name[x], name[y])))
        if imp[imp[x][y]][y] != imp[imp[y][x]][x]:
            bad.append(("lia-5", (name[x], name[y])))

    for x in els:
        imp_x, meet_x, join_x = imp[x], meet[x], join[x]
        for y in els:
            imp_y, meet_y, join_y = imp[y], meet[y], join[y]
            mxy, jxy = meet_x[y], join_x[y]
            for z in els:
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

    return report

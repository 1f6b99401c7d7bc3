"""Galois derivations and concept lattices.

The derivation pair maps an object-side fuzzy set A to the intent
``m -> meet_g imp(A(g), I(g, m))`` and dually for attribute-side sets; its
composites are closure operators and the fixpoint pairs form a complete
lattice. A derivation is one kernel over vectors encoded as ints: every
element is coded by the join-irreducibles at or below it, a vector is one
int of fixed-width blocks, and a pointwise meet is one ``&`` (see
``lia.VectorCode``). The context caches, per object (per attribute for an
extent) and per element a, the encoded implication column imp(a, I(g, m))
as a mask, so a derivation is the ``&`` of one mask per position of its
argument, starting from all-top, decoded once to element positions.
``TruthValue``s appear only at the public boundary (the arguments and
results of the derivations) and in ``Concept``s.

Enumeration runs that fold over every candidate of one chosen side at
once, on the set of distinct partial vectors, each one int (see
``enumerate_concepts``). It admits exactly the concepts of closing every
candidate one by one (the exhaustive scan the test suite keeps as its
oracle), while its work follows the number of concepts. Each distinct
image is closed by one public back-derivation, the one public derivation
left, which the benchmark's tracer counts; over a lattice implication
algebra that closure gives the image's extent, and only off that path is
each closed set checked as a fixpoint, on the kernel. A ``ConceptLattice``
keeps every extent and intent as a tuple of positions: the order, the
covers, the labels and the exports read those, and ``Concept``s are built
only when a caller asks for them. The intent engine is the extent engine
on the transposed grid, which keeps a dual-side check available: folding
extents and folding intents must produce the same concept set. The concept
order comes from per-object bitmasks of the concepts at or above each
extent value, read from the algebra's order bitmasks, and its covers are
walked one edge at a time where the order allows it (see
``lia._cover_pairs``).

Every finite lattice implication algebra is a product of Lukasiewicz
chains. Over one of two or more chains and at most 256 elements, a scan of
the whole algebra is factored: implication and meet act coordinatewise, so
the concept lattice is the product of the lattices of the context's
projections onto the chains. Each projection is enumerated as above, over
its chain, and the product's concepts are assembled from theirs by adding
position vectors, its covers from theirs by index arithmetic (see
``enumerate_concepts`` and ``ConceptLattice.covers``). One chain, a domain
missing an element, a larger algebra and an algebra that is not a lattice
implication algebra are scanned unfactored.

A scan needs a value domain. ``"generated"`` (the default) ranges over the
subalgebra generated by the values actually present in the context, which
is where a context's arithmetic lives; ``"full"`` ranges over every element
of the ambient algebra and can surface additional fixpoints valued outside
the data. Either way the budget counts the |domain|^|side| candidates the
fold stands for, each distinct value counted once.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cache, cached_property
from itertools import repeat
from json.encoder import encode_basestring_ascii

from ._value import _setattr, _Value
from .context import FuzzyContext
from .errors import BudgetError, DimensionError, MembershipError, StructureError
from .lia import ProductAlgebra, TruthValue, _bits, _cover_pairs

OBJECTS = "objects"
ATTRIBUTES = "attributes"

EXTENT_SCAN = "extent"
INTENT_SCAN = "intent"

GENERATED_DOMAIN = "generated"
FULL_DOMAIN = "full"

DEFAULT_CANDIDATE_BUDGET = 10**6


class FuzzySet(_Value):
    """A vector of truth values aligned with one side of a context."""

    __slots__ = _fields = ("side", "values")

    def __init__(self, side: str, values: tuple[TruthValue, ...]):
        if side not in (OBJECTS, ATTRIBUTES):
            raise ValueError(f"side must be 'objects' or 'attributes', got {side!r}")
        _setattr(self, "side", side)
        _setattr(self, "values", tuple(values))

    def __len__(self) -> int:
        return len(self.values)


def object_set(values: Iterable[TruthValue]) -> FuzzySet:
    return FuzzySet(OBJECTS, tuple(values))


def attribute_set(values: Iterable[TruthValue]) -> FuzzySet:
    return FuzzySet(ATTRIBUTES, tuple(values))


class Concept(_Value):
    """A fixpoint pair: derive(extent) = intent and derive(intent) = extent."""

    __slots__ = _fields = ("extent", "intent")

    def __init__(self, extent: FuzzySet, intent: FuzzySet):
        if extent.side != OBJECTS or intent.side != ATTRIBUTES:
            raise ValueError("a concept pairs an object-side set with an attribute-side set")
        _setattr(self, "extent", extent)
        _setattr(self, "intent", intent)


def _check_sized(fset: FuzzySet, side: str, size: int) -> None:
    if fset.side != side:
        raise DimensionError(f"expected a {side}-side set, got {fset.side}-side")
    if len(fset.values) != size:
        raise DimensionError(f"set of size {len(fset.values)} against {side} list of size {size}")


def _derive(algebra, masks, width: int, values) -> tuple[int, ...]:
    """The derivation kernel: the ``&`` over positions k of
    ``masks[k][values[k]]``, the encoded implication column imp(values[k],
    I(k, m)) (see ``FuzzyContext.row_masks``), starting from the all-top
    vector of ``width`` components, decoded once to element positions. Per
    component that is the meet over k of imp(values[k], I(k, m)); with no
    positions it is top."""
    code = algebra._code
    out = code.top(width)
    for line, a in zip(masks, values):
        out &= line[a]
    return code.decode(out, width)


def derive_intent(context: FuzzyContext, extent: FuzzySet) -> FuzzySet:
    """Map an object-side set to its intent.

    Per attribute: the meet over all objects of imp(A(g), I(g, m)). With no
    objects the meet is empty and every intent component is top.
    """
    _check_sized(extent, OBJECTS, len(context.objects))
    algebra = context.algebra
    positions = algebra._positions(extent.values)
    els = algebra.elements
    intent = _derive(algebra, context.row_masks, len(context.attributes), positions)
    return FuzzySet(ATTRIBUTES, tuple([els[k] for k in intent]))


def derive_extent(context: FuzzyContext, intent: FuzzySet) -> FuzzySet:
    """Dual of derive_intent: per object, meet over attributes of
    imp(B(m), I(g, m)); the empty attribute set yields an all-top extent."""
    _check_sized(intent, ATTRIBUTES, len(context.attributes))
    algebra = context.algebra
    positions = algebra._positions(intent.values)
    els = algebra.elements
    extent = _derive(algebra, context.column_masks, len(context.objects), positions)
    return FuzzySet(OBJECTS, tuple([els[k] for k in extent]))


def closure_extent(context: FuzzyContext, extent: FuzzySet) -> FuzzySet:
    """The object-side closure; extensive and idempotent."""
    return derive_extent(context, derive_intent(context, extent))


def closure_intent(context: FuzzyContext, intent: FuzzySet) -> FuzzySet:
    """The attribute-side closure; extensive and idempotent."""
    return derive_intent(context, derive_extent(context, intent))


def scan_domain(context: FuzzyContext, domain) -> tuple[TruthValue, ...]:
    """Resolve a domain spec to the concrete values a scan ranges over.

    ``"full"`` is every algebra element, ``"generated"`` the subalgebra
    generated by the distinct ``row_positions``; an explicit sequence of
    values is passed through after one ``_positions`` check.
    """
    algebra = context.algebra
    if domain == FULL_DOMAIN:
        return algebra.elements
    if domain == GENERATED_DOMAIN:
        els = algebra.elements
        return algebra.generated_subalgebra([els[p] for p in set().union(*context.row_positions)])
    if isinstance(domain, str):
        raise ValueError(f"unknown domain {domain!r}; use 'generated' or 'full'")
    values = tuple(domain)
    if not values:
        raise ValueError("a scan domain needs at least one value")
    algebra._positions(values)
    return values


class ConceptLattice:
    """The concepts of one context, ordered by extent inclusion.

    Concepts are kept in canonical display order: extents sorted descending
    lexicographically on their coordinate vectors. That is a linear
    extension of the pointwise order only when the element numbering is one
    (true for products, not for every table algebra), so ``top`` and
    ``bottom`` are located by their all-top extent and all-top intent rather
    than by position. Cover pairs (i, j) mean concept i is covered by
    concept j.

    A lattice also holds every extent and intent as a tuple of element
    positions (``_extents`` and ``_intents``), which the order, the covers
    and the exports read. Enumeration builds a lattice from those tuples
    (``_from_positions``); a lattice built from ``Concept``s maps them to
    position tuples when it is built, so a value outside the algebra, or a
    set of the wrong side or length, raises DimensionError there. Both
    constructors sort the tuples the same way (``_arrange``), and either
    lattice builds its ``Concept``s on first use. A factored enumeration
    assembles its lattice from the lattices of its factors
    (``_from_factors``) in the same order, and keeps them for ``covers``.
    """

    _factors = None  # a factored lattice's factors, see _from_factors

    def __init__(self, context: FuzzyContext, concepts: Iterable[Concept]):
        positions = context.algebra._positions
        objects, attributes = len(context.objects), len(context.attributes)
        pairs = {}
        for c in concepts:
            _check_sized(c.extent, OBJECTS, objects)
            _check_sized(c.intent, ATTRIBUTES, attributes)
            pairs[positions(c.extent.values), positions(c.intent.values)] = None
        self._arrange(context, pairs)

    @classmethod
    def _from_positions(
        cls, context: FuzzyContext, pairs: Iterable[tuple[tuple[int, ...], tuple[int, ...]]]
    ) -> "ConceptLattice":
        """The lattice of distinct (extent, intent) position pairs, in the
        canonical order of the public constructor."""
        lattice = cls.__new__(cls)
        lattice._arrange(context, pairs)
        return lattice

    @classmethod
    def _from_factors(
        cls, context: FuzzyContext, factors: list["ConceptLattice"]
    ) -> "ConceptLattice":
        """The lattice of a context over a product of chains of at most 256
        elements, from the lattices of its factor contexts, one per chain of
        ``Algebra._chains`` and in that order (see ``_factored``).

        Derivations act coordinatewise, so a pair is a concept exactly when
        its projection onto every chain is a concept of that chain's factor
        context: the concepts are the combinations of one concept per
        factor, numbered with the first factor's index varying fastest. A
        combination's vectors are the sums of its factor concepts' position
        vectors scaled by the chains' mixed-radix strides, added as ints of
        one-byte blocks; a sum is a position in ``ProductAlgebra(sizes)``,
        below 256, so no block carries into the next. One
        ``bytes.translate`` takes a sum to element positions, and one more
        to the ranks ``_arrange`` sorts by, compared in C. The lattice keeps
        its factors and where each combination landed in canonical order,
        from which ``covers`` reads its edges."""
        sizes, perm = context.algebra._chains
        rank = _ranks(context.algebra)
        to_element, to_rank = bytearray(256), bytearray(256)
        for p, q in enumerate(perm):
            to_element[q], to_rank[q] = p, rank[p]
        extents, intents, stride = [0], [0], 1
        for k, factor in zip(sizes, factors):
            scaled = [
                [int.from_bytes(bytes([stride * d for d in vector]), "little") for vector in side]
                for side in (factor._extents, factor._intents)
            ]
            extents = [e + f for f in scaled[0] for e in extents]
            intents = [i + f for f in scaled[1] for i in intents]
            stride *= k
        g, m = len(context.objects), len(context.attributes)
        extents = [e.to_bytes(g, "little") for e in extents]
        keys = [e.translate(to_rank) for e in extents]
        order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
        where = [0] * len(order)
        for new, old in enumerate(order):
            where[old] = new
        lattice = cls.__new__(cls)
        lattice.context = context
        lattice._extents = tuple([tuple(extents[i].translate(to_element)) for i in order])
        lattice._intents = tuple(
            [tuple(intents[i].to_bytes(m, "little").translate(to_element)) for i in order]
        )
        lattice._factors = (tuple(factors), where)
        return lattice

    def _arrange(self, context: FuzzyContext, pairs: Iterable) -> None:
        """Store the context and the (extent, intent) position pairs in
        canonical order.

        The order sorts extents descending lexicographically on their
        elements' coordinates, read as one integer rank per position (see
        ``_ranks``). Sorting is stable, so equal extents keep their order in
        ``pairs``."""
        at = _ranks(context.algebra).__getitem__
        pairs = sorted(pairs, key=lambda pair: tuple(map(at, pair[0])), reverse=True)
        self.context = context
        self._extents = tuple([extent for extent, _ in pairs])
        self._intents = tuple([intent for _, intent in pairs])

    @cached_property
    def concepts(self) -> tuple[Concept, ...]:
        """The concepts in canonical order, built from the position tuples
        on first use."""
        els = self.context.algebra.elements
        return tuple(
            Concept(
                FuzzySet(OBJECTS, tuple([els[p] for p in extent])),
                FuzzySet(ATTRIBUTES, tuple([els[p] for p in intent])),
            )
            for extent, intent in zip(self._extents, self._intents)
        )

    @cached_property
    def _index(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
        """The canonical index of each (extent, intent) position pair."""
        return {pair: i for i, pair in enumerate(zip(self._extents, self._intents))}

    def __len__(self) -> int:
        return len(self._extents)

    def __iter__(self) -> Iterator[Concept]:
        return iter(self.concepts)

    def __getitem__(self, index: int) -> Concept:
        return self.concepts[index]

    def index_of(self, concept: Concept) -> int:
        """The index of ``concept``, found by its position pair; a concept
        of another lattice, or holding a non-element, raises
        MembershipError."""
        positions = self.context.algebra._positions
        try:
            return self._index[positions(concept.extent.values), positions(concept.intent.values)]
        except (DimensionError, KeyError):
            raise MembershipError("concept does not belong to this lattice") from None

    def _computed(self, extent: tuple[int, ...], intent: tuple[int, ...]) -> Concept:
        """The concept with this position pair, computed by a lattice
        operation; a pair outside the lattice raises StructureError."""
        try:
            return self.concepts[self._index[extent, intent]]
        except KeyError:
            raise StructureError(
                "computed concept is missing from the lattice; was it fully enumerated?"
            ) from None

    def leq(self, lower: Concept, upper: Concept) -> bool:
        up = self.context.algebra._up
        below, above = self._extents[self.index_of(lower)], self._extents[self.index_of(upper)]
        return all(up[a] >> b & 1 for a, b in zip(below, above))

    @property
    def top(self) -> Concept:
        """The concept whose extent is all-top."""
        return self._with_top_side("extent")

    @property
    def bottom(self) -> Concept:
        """The concept whose intent is all-top."""
        return self._with_top_side("intent")

    def _with_top_side(self, side: str) -> Concept:
        top = self.context.algebra._top
        for i, vector in enumerate(self._extents if side == "extent" else self._intents):
            if vector.count(top) == len(vector):
                return self.concepts[i]
        raise StructureError(f"no concept has an all-top {side}")

    def extent_set(self) -> frozenset[FuzzySet]:
        return frozenset(c.extent for c in self.concepts)

    def pairs(self) -> frozenset[tuple[FuzzySet, FuzzySet]]:
        return frozenset((c.extent, c.intent) for c in self.concepts)

    @cached_property
    def _order_masks(self) -> list[int]:
        """Bitmasks of the pointwise extent order: mask i holds the concepts
        j with extent i <= extent j, concept i included.

        Per object g, one mask collects the concepts whose extent takes
        value v at g; the concepts above a value a at g are the union of
        the masks of the values v with a <= v. Mask i is the AND over g of
        the masks above i's values. That is the pointwise order exactly,
        with no transitivity assumed, in |G| * (distinct values)^2
        comparisons instead of c^2 * |G|.
        """
        above_of = self.context.algebra._up
        up = [(1 << len(self)) - 1] * len(self)
        for column in zip(*self._extents):
            at: dict[int, int] = {}
            for j, v in enumerate(column):
                at[v] = at.get(v, 0) | 1 << j
            above = {a: sum(m for v, m in at.items() if above_of[a] >> v & 1) for a in at}
            up = [mask & above[v] for mask, v in zip(up, column)]
        return up

    @cached_property
    def order_pairs(self) -> tuple[tuple[int, int], ...]:
        """All strict order pairs (i, j) with concept i below concept j."""
        return tuple(
            (i, j) for i, above in enumerate(self._order_masks) for j in _bits(above & ~(1 << i))
        )

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Transitive reduction of the order: the Hasse edges, sorted.

        A lattice assembled from factor lattices (``_from_factors``) is
        ordered as their product, whose covers change one factor's concept
        along one of that factor's covers and keep the others (Davey and
        Priestley, *Introduction to Lattices and Order*, 2002, ch. 1): the
        sum over factors i of e_i times the product of the other factors'
        sizes, each edge found by index arithmetic and renumbered into
        canonical order, with no c x c mask built. Otherwise the pointwise
        order is transitive, as a context's element order is, and the
        canonical order lists upper concepts first on products and on tables
        declared bottom first; then the covers are walked in O(covers) mask
        operations, otherwise tested pair by pair."""
        if self._factors is None:
            return tuple(_cover_pairs(self._order_masks, True))
        factors, where = self._factors
        n, low, edges = len(where), 1, []
        scaled = [w * n for w in where]
        for factor in factors:
            size = len(factor)
            # the combinations whose index in this factor is 0
            offsets = [h + i for h in range(0, n, low * size) for i in range(low)]
            for a, b in _cover_pairs(factor._order_masks, True):
                a, b = a * low, b * low
                edges += [scaled[o + a] + where[o + b] for o in offsets]
            low *= size
        edges.sort()
        return tuple(map(divmod, edges, repeat(n)))


def _ranks(algebra) -> list[int]:
    """Per element position p, the place of element p when the elements
    are sorted by coordinates: the integer rank the canonical order reads."""
    els = algebra.elements
    rank = [0] * len(els)
    for r, p in enumerate(sorted(range(len(els)), key=lambda p: els[p].coords)):
        rank[p] = r
    return rank


def _budgeted(context: FuzzyContext, engine: str, values, budget: int) -> set[int]:
    """The distinct positions of ``values``, once the engine is known and
    its candidate count is within the budget: an unknown engine raises
    ValueError, and a count, |distinct values|^|side|, over the budget
    raises BudgetError naming it."""
    if engine not in (EXTENT_SCAN, INTENT_SCAN):
        raise ValueError(f"unknown engine {engine!r}; use 'extent' or 'intent'")
    side = context.objects if engine == EXTENT_SCAN else context.attributes
    positions = set(context.algebra._positions(values))
    count = len(positions) ** len(side)
    if count > budget:
        raise BudgetError(
            f"{engine} scan needs {count} candidates, over the budget of {budget}"
        )
    return positions


def _images(context: FuzzyContext, engine: str, values, budget: int) -> set[int]:
    """The fold of ``enumerate_concepts``: the set of the distinct encoded
    derivations of every candidate of the engine's side valued in
    ``values``, one ``&`` per distinct partial vector and domain value,
    after ``_budgeted``'s checks.

    Over a lattice implication algebra each image is the intent (extent,
    for the intent engine) of exactly one concept, so the set's size is
    the number of concepts.
    """
    positions = _budgeted(context, engine, values, budget)
    if engine == EXTENT_SCAN:
        masks, width = context.row_masks, len(context.attributes)
    else:
        masks, width = context.column_masks, len(context.objects)
    algebra = context.algebra
    images = {algebra._code.top(width)}  # S_0; after the loop, S_|masks|
    for line in masks:
        columns = [line[a] for a in positions]
        images = {partial & column for partial in images for column in columns}
    return images


def enumerate_concepts(
    context: FuzzyContext,
    engine: str = EXTENT_SCAN,
    *,
    domain=GENERATED_DOMAIN,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> ConceptLattice:
    """Collect every concept by a deduplicated derivation fold plus closure.

    The extent engine derives the intents of all |domain|^|objects|
    object-side candidates; the intent engine dually derives the extents of
    the attribute-side candidates. A derivation is a left fold over the
    candidate's positions, so the fold runs once, one position at a time, on
    the set of distinct partial vectors: S_0 holds the all-top vector and
    S_k every step of an S_(k-1) vector with a domain value a at position
    k, which meets the vector with the implication column imp(a, I(k, m)).
    Vectors are ints and columns the context's cached masks, so a step is
    one ``&`` (see ``FuzzyContext.row_masks``); ``_images`` runs that fold.
    The last set is exactly the set of the candidates' derivations, each
    computed by the same meets as a derivation on its own; each is decoded
    to positions once and derived back once by the public derivation, the
    one public derivation left, kept for the benchmark tracer's ``COUNTED``
    names. The lattice is built from the admitted position pairs, and its
    ``Concept``s are made only when a caller asks for them.

    When the domain holds bottom (``"generated"`` and ``"full"`` always do),
    imp(bottom, x) is top, so over a valid implication algebra each S_k
    contains S_(k-1) and none is larger than the number of concepts. On any
    algebra the fold makes no more meets than deriving every candidate on
    its own, since every partial vector is the prefix of some candidate.

    Over a lattice implication algebra (``Algebra._is_lia``: on a table
    algebra the Lukasiewicz certificate, run once and cached) the
    derivations form a Galois connection, so an image derived back and then
    forward again is itself: every image is already an intent, over any
    domain, and pairs with its one back-derivation. Distinct images have
    distinct back-derivations, since each image is the forward derivation
    of its own, so that costs one derivation per concept and no check. On any
    other algebra closures need not be fixpoints: each distinct closed set,
    with its first image, is derived forward on the kernel and admitted only
    as a mutual fixpoint, which keeps the two engines in agreement on tables
    that fail the axioms. A closed set that derives to its image needs no
    third derivation, since the image closes to it: at most three per image.
    A domain whose candidate count, |distinct domain values|^|side|,
    exceeds the budget raises BudgetError naming the count.

    Over a lattice implication algebra that is a product of two or more
    chains (``Algebra._chains``) with at most 256 elements, a domain holding
    every element is factored (see ``_factored``): the context is projected
    onto each chain, each projection enumerated as above over its chain,
    and the product's concepts assembled from theirs, so the fold and the
    back-derivations run once per factor concept, not per concept, and the
    covers come from the factors' (see ``ConceptLattice.covers``). The
    budget is checked first, on the product. One chain, a domain missing an
    element and an algebra the certificate refuses take the path above.
    """
    values = scan_domain(context, domain)
    algebra = context.algebra
    n = len(algebra.elements)
    if (len(_budgeted(context, engine, values, budget)) == n <= 256
            and algebra._is_lia and len(algebra._chains[0]) > 1):
        return _factored(context, engine, budget)
    return _enumerate(context, engine, values, budget)


@cache
def _chain(size: int) -> ProductAlgebra:
    """The Lukasiewicz chain of ``size`` elements, built once per size."""
    return ProductAlgebra([size])


def _factored(context: FuzzyContext, engine: str, budget: int) -> ConceptLattice:
    """The lattice of a context over the whole of a product of chains
    (``Algebra._chains``) from one enumeration per chain. The factor context
    of chain i holds, in each cell, digit i of the cell's position in
    ``ProductAlgebra(sizes)`` in mixed radix, the first chain lowest, as an
    element of the chain alone; it is enumerated over that chain's every
    element by the same fold and back-derivation as any context
    (``_enumerate``), and ``ConceptLattice._from_factors`` assembles the
    product."""
    sizes, perm = context.algebra._chains
    factors, stride = [], 1
    for k in sizes:
        chain = _chain(k)
        value = [chain.elements[q // stride % k] for q in perm]
        rows = [[value[p] for p in row] for row in context.row_positions]
        factor = FuzzyContext(chain, context.objects, context.attributes, rows)
        factors.append(_enumerate(factor, engine, chain.elements, budget))
        stride *= k
    return ConceptLattice._from_factors(context, factors)


def _enumerate(context: FuzzyContext, engine: str, values, budget: int) -> ConceptLattice:
    """``enumerate_concepts`` over the resolved domain ``values``, unfactored:
    the fold, one back-derivation per image and, off a lattice implication
    algebra, the fixpoint check."""
    images = _images(context, engine, values, budget)
    if engine == EXTENT_SCAN:
        image_side, back = ATTRIBUTES, derive_extent
        masks, back_masks = context.row_masks, context.column_masks
    else:
        image_side, back = OBJECTS, derive_intent
        masks, back_masks = context.column_masks, context.row_masks
    algebra = context.algebra
    width, back_width = len(back_masks), len(masks)
    els, positions_of, decode = algebra.elements, algebra._positions, algebra._code.decode
    pairs = []
    for image in [decode(vector, width) for vector in images]:
        closed = back(context, FuzzySet(image_side, tuple([els[k] for k in image])))
        pairs.append((positions_of(closed.values), image))
    if not algebra._is_lia:
        first = dict(reversed(pairs))  # each closed set with its first image
        # derived == image means derived derives back to key, as image does
        pairs = [
            (key, derived) for key, image in first.items()
            if (derived := _derive(algebra, masks, width, key)) == image
            or _derive(algebra, back_masks, back_width, derived) == key
        ]
    if engine == INTENT_SCAN:
        pairs = [(extent, intent) for intent, extent in pairs]
    return ConceptLattice._from_positions(context, pairs)


def concept_meet(lattice: ConceptLattice, left: Concept, right: Concept) -> Concept:
    """Greatest common subconcept: extents are closed under pointwise
    meets, so its extent is the pointwise meet of the two (read from the
    algebra's meet table) and its intent that extent's derivation. Exact
    over a lattice implication algebra; over one that breaks lia-6 it can
    raise StructureError where the concept order has a meet."""
    i, j = lattice.index_of(left), lattice.index_of(right)
    context, meet = lattice.context, lattice.context.algebra._meet
    extent = tuple([meet[p][q] for p, q in zip(lattice._extents[i], lattice._extents[j])])
    intent = _derive(context.algebra, context.row_masks, len(context.attributes), extent)
    return lattice._computed(extent, intent)


def concept_join(lattice: ConceptLattice, left: Concept, right: Concept) -> Concept:
    """Least common superconcept: closure of the pointwise join of extents,
    pointwise meet of intents (both read from the algebra's tables). Exact
    over a lattice implication algebra; off lia-6 it can miss the least one."""
    i, j = lattice.index_of(left), lattice.index_of(right)
    context, algebra = lattice.context, lattice.context.algebra
    join, meet = algebra._join, algebra._meet
    joined = [join[p][q] for p, q in zip(lattice._extents[i], lattice._extents[j])]
    closed = _derive(algebra, context.row_masks, len(context.attributes), joined)
    extent = _derive(algebra, context.column_masks, len(context.objects), closed)
    intent = tuple([meet[p][q] for p, q in zip(lattice._intents[i], lattice._intents[j])])
    return lattice._computed(extent, intent)


def concept_label(lattice: ConceptLattice, index: int) -> str:
    """Display form ``k# (extent | intent)`` in canonical value spelling."""
    spell = lattice.context.algebra._spellings
    extent = " ".join([spell[p] for p in lattice._extents[index]])
    intent = " ".join([spell[p] for p in lattice._intents[index]])
    return f"{index}# ({extent} | {intent})"


def export_dot(lattice: ConceptLattice) -> str:
    """Graphviz digraph: one box per concept, one edge per cover, drawn
    bottom-to-top so the greatest concept lands at the top. Backslashes and
    double quotes in labels are escaped, so any element spelling is safe."""
    lines = ["digraph concept_lattice {", "  rankdir=BT;", "  node [shape=box];"]
    for i in range(len(lattice)):
        label = concept_label(lattice, i).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  c{i} [label="{label}"];')
    for i, j in lattice.covers:
        lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_array(items: list[str], depth: int) -> str:
    """A JSON array of already encoded items, laid out as ``json.dumps``
    lays it out with ``indent=2`` as a member at nesting ``depth`` (the
    members of the top-level object are at depth 1)."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _json_document(members: dict[str, str]) -> str:
    """A top-level JSON object of already encoded member values, laid out
    as ``json.dumps(doc, indent=2)`` lays it out, plus a newline."""
    return "{\n" + ",\n".join([f'  "{key}": {value}' for key, value in members.items()]) + "\n}\n"


def export_json(lattice: ConceptLattice) -> str:
    """Deterministic JSON document with labels in canonical spelling.

    Schema: ``{algebra, objects, attributes, concepts: [{extent, intent}],
    covers: [[i, j], ...]}`` where covers pair lower with upper indexes.
    The text is ``json.dumps(doc, indent=2)`` plus a newline, byte for
    byte, written straight from the position tuples: every spelling and
    name is encoded once, by the function ``json.dumps`` encodes strings
    with (``ensure_ascii``), since with an indent ``json.dumps`` would run
    its pure-Python encoder over every item.
    """
    context = lattice.context
    encode = encode_basestring_ascii
    members = {
        "algebra": encode(context.algebra.describe()),
        "objects": _json_array([encode(n) for n in context.objects], 1),
        "attributes": _json_array([encode(n) for n in context.attributes], 1),
    }
    spell = [encode(s) for s in context.algebra._spellings]
    concepts = [
        '{\n      "extent": ' + _json_array([spell[p] for p in extent], 3)
        + ',\n      "intent": ' + _json_array([spell[p] for p in intent], 3)
        + "\n    }"
        for extent, intent in zip(lattice._extents, lattice._intents)
    ]
    members["concepts"] = _json_array(concepts, 1)
    members["covers"] = _json_array(
        [f"[\n      {i},\n      {j}\n    ]" for i, j in lattice.covers], 1
    )
    return _json_document(members)

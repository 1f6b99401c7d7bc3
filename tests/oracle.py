"""Reference implementations, kept as test oracles.

``reference_step`` and ``reference_derive`` are the derivation kernel
``galois`` ran on truth values through the public algebra operations,
before it folded on element positions; ``reference_derive_intent`` and
``reference_derive_extent`` apply it the way the public derivations do.
``scan_concepts`` derives and closes every candidate of |domain|^|side|
one by one, with the body ``galois.enumerate_concepts`` had before it
became a deduplicated fold. ``reference_check_axioms`` is the law check
``lia.check_axioms`` ran through the public operations before it read the
position tables directly and before it certified Lukasiewicz products;
it still tests the eight laws that ``check_axioms`` leaves out because
every ``Algebra`` satisfies them by construction.
``reference_cubic_violations`` is the exact per-cell check of the five
cubic laws that ``check_axioms`` ran on position tables, replaying the
cells its screen flagged, before the screen itself named the violations.
``reference_check_axioms`` reads the library's
own meet and join tables, through ``meet`` and ``join``, so
``reference_bound_table`` checks those tables against the definition: the
greatest common lower (or least common upper) bound of each pair, by
brute force over ``leq``.
``reference_generated_subalgebra`` is
``Algebra.generated_subalgebra`` as it closed a set of truth values
through the public operations, before it closed positions over the
operation tables. ``reference_extend_context``,
``reference_classify_columns``, ``reference_extend_concepts_fast``,
``reference_is_congener`` and ``reference_mine`` are the tacit layer as
it ran on truth values, before it built columns and intents on element
positions, searched a column's upper set and decided congener by the
closure rule on every new column: extension, classification and the
fast extension fold ``Algebra.meet`` row by row from top, and congener
verdicts always come from enumerating the extension.
``reference_export_json`` is ``galois.export_json`` as it built the
document and handed it to ``json.dumps(doc, indent=2)``, before it wrote
that layout itself.
``reference_congener_report`` is ``tacit._congener_report`` as it
compared the extent sets of ``Concept``s, before it compared position
tuples. ``pointwise_leq`` is the value-by-value extent comparison
``ConceptLattice.leq`` ran before it compared position tuples.
``reference_concept_meet`` and ``reference_concept_join`` are
``galois.concept_meet`` and ``concept_join`` as they ran on truth values
(``pointwise_meet`` and ``pointwise_join`` through the public operations,
then ``closure_*`` and a lookup among the lattice's ``Concept``s), before
they ran on position tuples; the meet keeps its closure of the join of
intents, which ``concept_meet``'s derivation of the meet of extents equals
wherever lia-6 holds. ``reference_order_meet`` and ``reference_order_join``
are the greatest common subconcept and least common superconcept by
brute force over the extent order, through ``pointwise_leq``.
``check_pointwise_condition`` is the per-extent congener criterion the
tacit layer exported before a per-column test subsumed it; quantified over
the scan domain it is an independent check of the congener verdict.
Nothing under ``src/`` calls any of them; the suite checks the library
against them.
"""

import functools
import itertools
import json

from ltvcl.context import (
    ORIGINAL,
    AttributeProvenance,
    ExtensionConfig,
    FuzzyContext,
    restrict_agrees,
)
from ltvcl.errors import (
    BudgetError,
    DimensionError,
    MembershipError,
    PreconditionError,
    StructureError,
    UnclassifiedColumnError,
)
from ltvcl.galois import (
    ATTRIBUTES,
    DEFAULT_CANDIDATE_BUDGET,
    EXTENT_SCAN,
    GENERATED_DOMAIN,
    INTENT_SCAN,
    OBJECTS,
    Concept,
    ConceptLattice,
    FuzzySet,
    closure_extent,
    closure_intent,
    derive_extent,
    derive_intent,
    enumerate_concepts,
    scan_domain,
)
from ltvcl.lia import DEFAULT_AXIOM_BUDGET, Algebra, AxiomReport, TruthValue
from ltvcl.tacit import (
    RULE_ALL_TOP,
    RULE_K_MEET,
    RULE_PAIR_MEET,
    CongenerReport,
    MiningReport,
    TheoremCheck,
    extend_concepts_fast,
)


def reference_step(algebra, partial, a, line) -> tuple[TruthValue, ...]:
    """One position of the derivation fold: meet each component m of the
    partial vector with imp(a, line[m])."""
    meet, imp = algebra.meet, algebra.imp
    return tuple([meet(p, imp(a, v)) for p, v in zip(partial, line)])


def reference_derive(algebra, lines, width: int, values) -> tuple[TruthValue, ...]:
    """The derivation kernel, a left fold over positions: start from the
    all-top vector of ``width`` components and take one step per position k
    with values[k] and lines[k]. Per component that is the meet over k of
    imp(values[k], lines[k][m]); with no positions it is top."""
    out = (algebra.top,) * width
    for a, line in zip(values, lines):
        out = reference_step(algebra, out, a, line)
    return out


def reference_derive_intent(context: FuzzyContext, values) -> tuple[TruthValue, ...]:
    """The intent of an object-side vector of values."""
    return reference_derive(context.algebra, context.rows, len(context.attributes), values)


def reference_derive_extent(context: FuzzyContext, values) -> tuple[TruthValue, ...]:
    """The extent of an attribute-side vector of values."""
    return reference_derive(context.algebra, context.columns, len(context.objects), values)


def scan_concepts(
    context: FuzzyContext,
    engine: str = EXTENT_SCAN,
    *,
    domain=GENERATED_DOMAIN,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> ConceptLattice:
    """Collect every concept by exhaustive scan plus closure.

    The extent engine closes all |domain|^|objects| object-side candidates;
    the intent engine dually scans the attribute side. Each collected pair
    is verified as a mutual fixpoint before it is admitted: over a valid
    implication algebra the check never rejects anything, but it keeps the
    two engines in agreement even on table algebras that fail the axioms,
    where scan closures need not be fixpoints at all. A scan whose
    candidate count exceeds the budget raises BudgetError naming the count.
    """
    values = scan_domain(context, domain)
    if engine == EXTENT_SCAN:
        side, forward, back = OBJECTS, derive_intent, derive_extent
        width = len(context.objects)
    elif engine == INTENT_SCAN:
        side, forward, back = ATTRIBUTES, derive_extent, derive_intent
        width = len(context.attributes)
    else:
        raise ValueError(f"unknown engine {engine!r}; use 'extent' or 'intent'")
    count = len(values) ** width
    if count > budget:
        raise BudgetError(
            f"{engine} scan needs {count} candidates, over the budget of {budget}"
        )

    closed = {
        back(context, forward(context, FuzzySet(side, combo)))
        for combo in itertools.product(values, repeat=width)
    }
    concepts = []
    for fset in closed:
        other = forward(context, fset)
        if back(context, other) == fset:
            concepts.append(Concept(fset, other) if side == OBJECTS else Concept(other, fset))
    return ConceptLattice(context, concepts)


def pointwise_leq(context: FuzzyContext, left: FuzzySet, right: FuzzySet) -> bool:
    """Whether ``left`` lies pointwise below ``right``, through
    ``Algebra.leq`` value by value."""
    if left.side != right.side:
        raise DimensionError("cannot compare sets from different sides")
    if len(left.values) != len(right.values):
        raise DimensionError("cannot compare sets of different sizes")
    leq = context.algebra.leq
    return all(leq(a, b) for a, b in zip(left.values, right.values))


def pointwise_meet(context: FuzzyContext, left: FuzzySet, right: FuzzySet) -> FuzzySet:
    """The componentwise meet of two sets of one side, through
    ``Algebra.meet``."""
    meet = context.algebra.meet
    return FuzzySet(left.side, tuple(meet(a, b) for a, b in zip(left.values, right.values)))


def pointwise_join(context: FuzzyContext, left: FuzzySet, right: FuzzySet) -> FuzzySet:
    """The componentwise join of two sets of one side, through
    ``Algebra.join``."""
    join = context.algebra.join
    return FuzzySet(left.side, tuple(join(a, b) for a, b in zip(left.values, right.values)))


def _index_of(lattice: ConceptLattice, concept: Concept) -> int:
    """The index of ``concept`` among the lattice's ``Concept``s, found by
    value."""
    try:
        return lattice.concepts.index(concept)
    except ValueError:
        raise MembershipError("concept does not belong to this lattice") from None


def _locate(lattice: ConceptLattice, extent: FuzzySet, intent: FuzzySet) -> Concept:
    try:
        return lattice.concepts[_index_of(lattice, Concept(extent, intent))]
    except MembershipError:
        raise StructureError(
            "computed concept is missing from the lattice; was it fully enumerated?"
        ) from None


def reference_concept_meet(lattice: ConceptLattice, left: Concept, right: Concept) -> Concept:
    """Pointwise meet of extents, closure of the pointwise join of
    intents."""
    _index_of(lattice, left)
    _index_of(lattice, right)
    extent = pointwise_meet(lattice.context, left.extent, right.extent)
    intent = closure_intent(lattice.context, pointwise_join(lattice.context, left.intent, right.intent))
    return _locate(lattice, extent, intent)


def reference_concept_join(lattice: ConceptLattice, left: Concept, right: Concept) -> Concept:
    """Closure of the pointwise join of extents, pointwise meet of
    intents."""
    _index_of(lattice, left)
    _index_of(lattice, right)
    extent = closure_extent(lattice.context, pointwise_join(lattice.context, left.extent, right.extent))
    intent = pointwise_meet(lattice.context, left.intent, right.intent)
    return _locate(lattice, extent, intent)


def _order_bound(lattice: ConceptLattice, left: Concept, right: Concept, below: bool):
    """The common bound of ``left`` and ``right`` on the ``below`` side
    that lies beyond every other one in the extent order, or None."""
    _index_of(lattice, left)
    _index_of(lattice, right)

    def leq(lower: Concept, upper: Concept) -> bool:
        if not below:
            lower, upper = upper, lower
        return pointwise_leq(lattice.context, lower.extent, upper.extent)

    bounds = [c for c in lattice.concepts if leq(c, left) and leq(c, right)]
    return next((c for c in bounds if all(leq(b, c) for b in bounds)), None)


def reference_order_meet(lattice: ConceptLattice, left: Concept, right: Concept) -> Concept | None:
    """The greatest concept whose extent lies pointwise below both
    extents, or None when there is none."""
    return _order_bound(lattice, left, right, below=True)


def reference_order_join(lattice: ConceptLattice, left: Concept, right: Concept) -> Concept | None:
    """The least concept whose extent lies pointwise above both extents,
    or None when there is none."""
    return _order_bound(lattice, left, right, below=False)


def brute_order_pairs(lattice: ConceptLattice) -> tuple[tuple[int, int], ...]:
    """Every strict pair (i, j) with extent i pointwise below extent j,
    compared pair by pair in (i, j) order."""
    concepts = lattice.concepts
    return tuple(
        (i, j)
        for i, lower in enumerate(concepts)
        for j, upper in enumerate(concepts)
        if i != j and pointwise_leq(lattice.context, lower.extent, upper.extent)
    )


def reference_export_json(lattice: ConceptLattice) -> str:
    """The lattice's JSON document, encoded by ``json.dumps``."""
    context = lattice.context
    fmt = context.algebra.format_value
    doc = {
        "algebra": context.algebra.describe(),
        "objects": list(context.objects),
        "attributes": list(context.attributes),
        "concepts": [
            {"extent": [fmt(v) for v in c.extent.values], "intent": [fmt(v) for v in c.intent.values]}
            for c in lattice.concepts
        ],
        "covers": [list(pair) for pair in lattice.covers],
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_check_axioms(algebra: Algebra, element_budget: int = DEFAULT_AXIOM_BUDGET) -> AxiomReport:
    """Exhaustively test the bounded-lattice laws, the order-reversing
    involution, and the seven implication axioms over every element tuple.

    The check is cubic in the element count and meant for desk-scale
    validation; algebras larger than ``element_budget`` raise BudgetError.
    Every violating instance is reported with a witness tuple.
    """
    els = algebra.elements
    n = len(els)
    if n > element_budget:
        raise BudgetError(f"{n} elements exceed the axiom-check budget of {element_budget}")
    name = algebra.format_value
    report = AxiomReport()
    bad = report.violations

    def safe(op, *args):
        try:
            return op(*args)
        except StructureError:
            return None

    # bounded: a greatest and a least element must exist
    if not any(all(algebra.leq(x, t) for x in els) for t in els):
        bad.append(("bounded-top", ()))
    if not any(all(algebra.leq(b, x) for x in els) for b in els):
        bad.append(("bounded-bottom", ()))

    # totality of meet/join under the derived order
    undefined_pairs = set()
    for x, y in itertools.product(els, repeat=2):
        if safe(algebra.meet, x, y) is None:
            bad.append(("meet-defined", (name(x), name(y))))
            undefined_pairs.add((x, y))
        if safe(algebra.join, x, y) is None:
            bad.append(("join-defined", (name(x), name(y))))
            undefined_pairs.add((x, y))

    # a pair missing either bound counts as undefined for both operations
    def meet(x, y):
        return None if (x, y) in undefined_pairs else safe(algebra.meet, x, y)

    def join(x, y):
        return None if (x, y) in undefined_pairs else safe(algebra.join, x, y)

    for x in els:
        if meet(x, x) is not None and meet(x, x) != x:
            bad.append(("meet-idem", (name(x),)))
        if join(x, x) is not None and join(x, x) != x:
            bad.append(("join-idem", (name(x),)))
        if algebra.neg(algebra.neg(x)) != x:
            bad.append(("neg-involutive", (name(x),)))

    for x, y in itertools.product(els, repeat=2):
        mxy, myx = meet(x, y), meet(y, x)
        jxy, jyx = join(x, y), join(y, x)
        if mxy is not None and myx is not None and mxy != myx:
            bad.append(("meet-comm", (name(x), name(y))))
        if jxy is not None and jyx is not None and jxy != jyx:
            bad.append(("join-comm", (name(x), name(y))))
        if jxy is not None and meet(x, jxy) is not None and meet(x, jxy) != x:
            bad.append(("absorb-meet-join", (name(x), name(y))))
        if mxy is not None and join(x, mxy) is not None and join(x, mxy) != x:
            bad.append(("absorb-join-meet", (name(x), name(y))))
        if algebra.leq(x, y) and not algebra.leq(algebra.neg(y), algebra.neg(x)):
            bad.append(("neg-antitone", (name(x), name(y))))

    imp = algebra.imp
    top = algebra.top
    for x in els:
        if imp(x, x) != top:
            bad.append(("lia-2", (name(x),)))
    for x, y in itertools.product(els, repeat=2):
        if imp(x, y) != imp(algebra.neg(y), algebra.neg(x)):
            bad.append(("lia-3", (name(x), name(y))))
        if imp(x, y) == top and imp(y, x) == top and x != y:
            bad.append(("lia-4", (name(x), name(y))))
        if imp(imp(x, y), y) != imp(imp(y, x), x):
            bad.append(("lia-5", (name(x), name(y))))

    for x, y, z in itertools.product(els, repeat=3):
        if imp(x, imp(y, z)) != imp(y, imp(x, z)):
            bad.append(("lia-1", (name(x), name(y), name(z))))
        witness = (name(x), name(y), name(z))
        mxy, jxy = meet(x, y), join(x, y)
        myz, jyz = meet(y, z), join(y, z)
        if jxy is not None:
            rhs = meet(imp(x, z), imp(y, z))
            if rhs is not None and imp(jxy, z) != rhs:
                bad.append(("lia-6", witness))
        if mxy is not None:
            rhs = join(imp(x, z), imp(y, z))
            if rhs is not None and imp(mxy, z) != rhs:
                bad.append(("lia-7", witness))
        if mxy is not None and myz is not None:
            left, right = meet(x, myz), meet(mxy, z)
            if left is not None and right is not None and left != right:
                bad.append(("meet-assoc", witness))
        if jxy is not None and jyz is not None:
            left, right = join(x, jyz), join(jxy, z)
            if left is not None and right is not None and left != right:
                bad.append(("join-assoc", witness))

    return report


def reference_cubic_violations(imp, meet, join, names) -> list[tuple[str, tuple[str, ...]]]:
    """The violations of lia-1, lia-6, lia-7, meet-assoc and join-assoc,
    cell by cell over every (x, y, z) of the position tables ``imp``,
    ``meet`` and ``join`` (None where a pair has no bound, and the law is
    skipped), with witnesses spelled by ``names``, in the order that loop
    finds them."""
    n = len(imp)
    bad = []
    for x, y, z in itertools.product(range(n), repeat=3):
        witness = (names[x], names[y], names[z])
        mxy, jxy = meet[x][y], join[x][y]
        xz, yz = imp[x][z], imp[y][z]
        if imp[x][yz] != imp[y][xz]:
            bad.append(("lia-1", witness))
        if jxy is not None and meet[xz][yz] is not None and imp[jxy][z] != meet[xz][yz]:
            bad.append(("lia-6", witness))
        if mxy is not None and join[xz][yz] is not None and imp[mxy][z] != join[xz][yz]:
            bad.append(("lia-7", witness))
        myz, jyz = meet[y][z], join[y][z]
        if mxy is not None and myz is not None:
            left, right = meet[x][myz], meet[mxy][z]
            if left is not None and right is not None and left != right:
                bad.append(("meet-assoc", witness))
        if jxy is not None and jyz is not None:
            left, right = join[x][jyz], join[jxy][z]
            if left is not None and right is not None and left != right:
                bad.append(("join-assoc", witness))
    return bad


def reference_bound_table(algebra: Algebra, upper: bool = False):
    """For each pair (x, y) of elements in display order, the common lower
    bound of x and y above every other common lower bound, or None when no
    such bound exists; with ``upper``, the common upper bound below every
    other one. Found by brute force over ``leq``, assuming no transitivity."""
    els = algebra.elements

    def below(a, b):
        return algebra.leq(b, a) if upper else algebra.leq(a, b)

    def bound(x, y):
        common = [z for z in els if below(z, x) and below(z, y)]
        return next((z for z in common if all(below(w, z) for w in common)), None)

    return [[bound(x, y) for y in els] for x in els]


def reference_generated_subalgebra(algebra: Algebra, values) -> tuple[TruthValue, ...]:
    closed = {algebra.top}
    for v in values:
        algebra.check_member(v)
        closed.add(v)
    while True:
        current = list(closed)
        new = set()
        for x in current:
            nx = algebra.neg(x)
            if nx not in closed:
                new.add(nx)
            for y in current:
                for z in (algebra.imp(x, y), algebra.meet(x, y), algebra.join(x, y)):
                    if z not in closed:
                        new.add(z)
        if not new:
            break
        closed |= new
    return tuple(sorted(closed, key=algebra._position))


def meet_all(algebra: Algebra, values) -> TruthValue:
    """Fold meet over the values from top; the empty meet is top."""
    return functools.reduce(algebra.meet, values, algebra.top)


def reference_extend_context(
    context: FuzzyContext, config: ExtensionConfig | None = None
) -> FuzzyContext:
    """Append candidate tacit columns to an unextended context.

    Candidates are the column meets of every subset of original attributes
    with arity 2..max_meet_arity (subsets in lexicographic index order, arity
    ascending), then one all-top column. With the novelty filter on, a
    candidate equal to an existing or already-added column is dropped.
    Original columns are never touched; new columns carry meet/top
    provenance and fresh names continuing the ``m<k>`` numbering.
    """
    cfg = config or ExtensionConfig()
    if cfg.max_meet_arity < 2:
        raise ValueError(f"max_meet_arity must be >= 2, got {cfg.max_meet_arity}")
    if any(p.kind != ORIGINAL for p in context.provenance):
        raise ValueError("context has derived columns already; extend the original")

    algebra = context.algebra
    n_attrs = len(context.attributes)
    if cfg.meet_subsets is not None:
        subsets = []
        for subset in cfg.meet_subsets:
            idx = tuple(int(s) for s in subset)
            if len(idx) < 2 or list(idx) != sorted(set(idx)):
                raise ValueError(f"meet subset {subset!r} must be >= 2 strictly increasing indices")
            if idx[0] < 0 or idx[-1] >= n_attrs:
                raise ValueError(f"meet subset {subset!r} out of range")
            subsets.append(idx)
    else:
        subsets = [
            combo
            for arity in range(2, min(cfg.max_meet_arity, n_attrs) + 1)
            for combo in itertools.combinations(range(n_attrs), arity)
        ]

    seen = set(context.columns)
    new_columns: list[tuple[AttributeProvenance, tuple[TruthValue, ...]]] = []

    def admit(provenance: AttributeProvenance, column: tuple[TruthValue, ...]) -> None:
        if cfg.novelty_filter and column in seen:
            return
        new_columns.append((provenance, column))
        seen.add(column)

    for subset in subsets:
        column = tuple(
            meet_all(algebra, (row[s] for s in subset)) for row in context.rows
        )
        admit(AttributeProvenance.meet_of(subset), column)
    if cfg.include_top_column:
        admit(
            AttributeProvenance.constant_top(),
            tuple(algebra.top for _ in context.objects),
        )

    names = list(context.attributes)
    used = set(names)
    counter = n_attrs + 1
    for _ in new_columns:
        while f"m{counter}" in used:
            counter += 1
        names.append(f"m{counter}")
        used.add(f"m{counter}")
        counter += 1

    rows = tuple(
        tuple(row) + tuple(col[g] for _, col in new_columns)
        for g, row in enumerate(context.rows)
    )
    provenance = context.provenance + tuple(p for p, _ in new_columns)
    return FuzzyContext(algebra, context.objects, tuple(names), rows, provenance)


def _require_restriction(base: FuzzyContext, extended: FuzzyContext) -> None:
    if not restrict_agrees(base, extended):
        raise PreconditionError(
            "the extension disagrees with the base context on an original cell"
        )


def reference_classify_columns(
    base: FuzzyContext,
    extended: FuzzyContext,
    *,
    min_arity: int = 2,
) -> list[TheoremCheck]:
    """Match every new column against the sufficient conditions.

    The original-attribute subsets are searched for an exact column match
    (the algebra is finite and discrete, so equality is exact by
    construction): the empty subset first, whose meet is the all-top
    column, then every subset of arity min_arity and up, in lexicographic
    order, arity ascending. An empty match is all-top, two sources are
    pair-meet, any other count is k-meet. Columns matching nothing come
    back unsatisfied with rule None.
    """
    _require_restriction(base, extended)
    alg = base.algebra
    n_orig = len(base.attributes)
    arities = (0, *range(max(min_arity, 1), n_orig + 1))
    base_names = set(base.attributes)

    def meet_of(subset):
        return tuple(meet_all(alg, (row[s] for s in subset)) for row in base.rows)

    checks: list[TheoremCheck] = []
    for m, name in enumerate(extended.attributes):
        if name in base_names:
            continue
        column = extended.columns[m]
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(n_orig), arity) for arity in arities
        )
        match = next((subset for subset in subsets if meet_of(subset) == column), None)
        if match is None:
            checks.append(TheoremCheck(name, None, False))
            continue
        rule = {0: RULE_ALL_TOP, 2: RULE_PAIR_MEET}.get(len(match), RULE_K_MEET)
        checks.append(TheoremCheck(name, rule, True, tuple(base.attributes[s] for s in match)))
    return checks


def reference_extend_concepts_fast(
    base_lattice: ConceptLattice,
    base: FuzzyContext,
    extended: FuzzyContext,
    *,
    checks: list[TheoremCheck] | None = None,
) -> ConceptLattice:
    """Rewrite the base concepts into the extension's lattice without
    re-enumerating.

    Every concept keeps its extent; its intent gains, per new column, the
    meet of the intent components at the column's sources (the empty meet,
    top, for the constant-top column). Sound only when every new column is
    classified; an unclassified column raises and the caller must fall back
    to enumerate_concepts on the extension.
    """
    if checks is None:
        checks = reference_classify_columns(base, extended)
    else:
        _require_restriction(base, extended)
    unexplained = [c.attribute for c in checks if not c.satisfied]
    if unexplained:
        raise UnclassifiedColumnError(
            "fast extension is unsound for unclassified columns "
            f"{unexplained}; enumerate the extended context instead"
        )
    by_attr = {c.attribute: c for c in checks}
    base_index = {name: i for i, name in enumerate(base.attributes)}

    concepts = []
    for concept in base_lattice:
        intent = concept.intent.values
        extended_values = tuple(
            intent[base_index[name]]
            if name in base_index
            else meet_all(base.algebra, (intent[base_index[s]] for s in by_attr[name].sources))
            for name in extended.attributes
        )
        concepts.append(Concept(concept.extent, FuzzySet(ATTRIBUTES, extended_values)))
    return ConceptLattice(extended, concepts)


def reference_congener_report(
    base_lattice: ConceptLattice, ext_lattice: ConceptLattice
) -> CongenerReport:
    """Compare the two lattices' extent families as sets of ``FuzzySet``s,
    built from every ``Concept`` of both."""
    base_extents = base_lattice.extent_set()
    ext_extents = ext_lattice.extent_set()
    witnesses = [("base", e) for e in base_extents - ext_extents]
    witnesses += [("extended", e) for e in ext_extents - base_extents]
    witnesses.sort(key=lambda w: (w[0], tuple(v.coords for v in w[1].values)))
    return CongenerReport(
        base_extent_count=len(base_extents),
        extended_extent_count=len(ext_extents),
        witnesses=tuple(witnesses),
    )


def reference_is_congener(
    base: FuzzyContext,
    extended: FuzzyContext,
    *,
    engine: str = EXTENT_SCAN,
    domain=GENERATED_DOMAIN,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> CongenerReport:
    """Enumerate both concept lattices and compare their extent families."""
    _require_restriction(base, extended)
    # Both lattices are scanned over one domain. "generated" resolves on the
    # extension, a superset of the base's; the contexts share one algebra
    # (checked above), so "full" and explicit values resolve the same.
    values = scan_domain(extended, domain)
    base_lattice = enumerate_concepts(base, engine, domain=values, budget=budget)
    ext_lattice = enumerate_concepts(extended, engine, domain=values, budget=budget)
    return reference_congener_report(base_lattice, ext_lattice)


def check_pointwise_condition(base: FuzzyContext, extended: FuzzyContext, extent: FuzzySet) -> bool:
    """For one object-side set A, test whether the base closure stays below
    the closure taken through each new column alone.

    Per new attribute n with column values c and v = meet_g imp(A(g), c(g))
    (the extension's intent of A at n), the test is
    closure(A)(g) <= imp(v, c(g)) for every g. Quantified over
    every A in the scan domain this agrees with the congener verdict, which
    the test suite checks exhaustively at desk scale.
    """
    _require_restriction(base, extended)
    alg = base.algebra
    closed = closure_extent(base, extent)
    intent = derive_intent(extended, extent).values
    base_names = set(base.attributes)
    for m, name in enumerate(extended.attributes):
        if name in base_names:
            continue
        column, v = extended.columns[m], intent[m]
        for g in range(len(base.objects)):
            if not alg.leq(closed.values[g], alg.imp(v, column[g])):
                return False
    return True


def reference_mine(
    context: FuzzyContext,
    config: ExtensionConfig | None = None,
    *,
    engine: str = EXTENT_SCAN,
    domain=GENERATED_DOMAIN,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> MiningReport:
    """Full pipeline: extend, classify, fast-extend, verify, report.

    The congener verdict always comes from full re-enumeration of the
    extended context; the fast path is verified against it concept for
    concept rather than trusted.
    """
    extended = reference_extend_context(context, config)
    checks = reference_classify_columns(context, extended)
    values = scan_domain(extended, domain)
    base_lattice = enumerate_concepts(context, engine, domain=values, budget=budget)
    full_lattice = enumerate_concepts(extended, engine, domain=values, budget=budget)
    congener = reference_congener_report(base_lattice, full_lattice)

    fast_verified = False
    if all(c.satisfied for c in checks):
        fast_lattice = extend_concepts_fast(base_lattice, extended, checks=checks)
        fast_verified = fast_lattice.pairs() == full_lattice.pairs()

    tacit = tuple(
        (name, prov.formula(extended.attributes))
        for name, prov in zip(extended.attributes, extended.provenance)
        if prov.kind != ORIGINAL
    )
    return MiningReport(
        tacit_attributes=tacit,
        theorem_checks=tuple(checks),
        congener=congener,
        fast_extension_verified=fast_verified,
    )

"""Reference implementations, kept as test oracles.

``reference_step`` and ``reference_derive`` are the derivation kernel
``galois`` ran on truth values through the public algebra operations,
before it folded on element positions; ``reference_derive_intent`` and
``reference_derive_extent`` apply it the way the public derivations do.
``scan_concepts`` derives and closes every candidate of |domain|^|side|
one by one, with the body ``galois.enumerate_concepts`` had before it
became a deduplicated fold. ``reference_check_axioms`` is the law check
``lia.check_axioms`` ran through the public operations before it read the
position tables directly. Nothing under ``src/`` calls any of them; the
suite checks the library against them.
"""

import itertools

from ltvcl.context import FuzzyContext
from ltvcl.errors import BudgetError, StructureError
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
    derive_extent,
    derive_intent,
    pointwise_leq,
    scan_domain,
)
from ltvcl.lia import DEFAULT_AXIOM_BUDGET, Algebra, AxiomReport, TruthValue


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

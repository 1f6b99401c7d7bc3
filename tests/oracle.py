"""The exhaustive scan, kept as the test oracle for concept enumeration.

``scan_concepts`` derives and closes every candidate of |domain|^|side|
one by one, with the body ``galois.enumerate_concepts`` had before it
became a deduplicated fold. Nothing under ``src/`` calls it; the suite
checks the library against it.
"""

import itertools

from ltvcl.context import FuzzyContext
from ltvcl.errors import BudgetError
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

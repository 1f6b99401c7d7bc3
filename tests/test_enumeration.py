"""Concept enumeration against the exhaustive scan oracle.

``enumerate_concepts`` folds the derivation over deduplicated partial
vectors; ``tests/oracle.py`` keeps the scan that closes every candidate one
by one. Both must admit the same concepts, raise on the same inputs, and
give the same order.
"""

import random

import pytest

from ltvcl import ConceptLattice, ProductAlgebra, enumerate_concepts, load_table_algebra
from ltvcl import galois
from ltvcl.errors import StructureError
from ltvcl.galois import EXTENT_SCAN, FULL_DOMAIN, GENERATED_DOMAIN, INTENT_SCAN
from conftest import DATA_DIR, random_context
from oracle import brute_order_pairs, scan_concepts

ENGINES = (EXTENT_SCAN, INTENT_SCAN)

ALGEBRAS = {
    "product 3 2": lambda: ProductAlgebra([3, 2]),
    "product 2 2": lambda: ProductAlgebra([2, 2]),
    "product 4": lambda: ProductAlgebra([4]),
    "chain5": lambda: load_table_algebra((DATA_DIR / "chain5.lia").read_text(encoding="utf-8")),
}

# 0 < a, b < c, d < 1 with a, b incomparable and c, d incomparable: a and b
# have no least upper bound and c and d no greatest lower bound. Each row is
# imp(x, y) = 1 when x <= y and y otherwise.
NON_LATTICE = """\
elements 0 a b c d 1
imp 0 1 1 1 1 1 1
imp a 0 1 b 1 1 1
imp b 0 a 1 1 1 1
imp c 0 a b 1 d 1
imp d 0 a b c 1 1
imp 1 0 a b c d 1
neg 0 1
neg a b
neg b a
neg c d
neg d c
neg 1 0
"""

# The work guard's context: random_context(Random(7), product 3 2, 7, 7). Its
# full domain has 6^7 = 279,936 candidates; the count was taken once from
# tests/oracle.py, which needs about a minute at this size.
GUARD_SEED = 7
GUARD_CONCEPTS = 2544


def explicit_domains(rng: random.Random, algebra):
    """Value subsets: one without bottom, one with a repeated value, and a
    random draw."""
    elements = algebra.elements
    bottomless = [v for v in elements if v != algebra.bottom]
    some = rng.sample(elements, min(2, len(elements)))
    return [
        rng.sample(bottomless, min(2, len(bottomless))),
        [some[0], some[-1], some[0]],
        [rng.choice(elements) for _ in range(rng.randint(1, 3))],
    ]


def shapes(rng: random.Random):
    """Context sizes: both empty sides, then random ones up to 3 x 3."""
    return [(0, 2), (2, 0), (0, 0)] + [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(5)]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("engine", ENGINES)
def test_fold_admits_the_scans_concepts(name, engine):
    algebra = ALGEBRAS[name]()
    rng = random.Random(f"{name}/{engine}")
    for n_objects, n_attributes in shapes(rng):
        context = random_context(rng, algebra, n_objects, n_attributes)
        for domain in [GENERATED_DOMAIN, FULL_DOMAIN, *explicit_domains(rng, algebra)]:
            lattice = enumerate_concepts(context, engine, domain=domain)
            assert lattice.pairs() == scan_concepts(context, engine, domain=domain).pairs()
            assert lattice.order_pairs == brute_order_pairs(lattice)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("engine", ENGINES)
def test_stored_positions_match_the_concepts(name, engine):
    # an enumerated lattice is built from position tuples, a caller's from
    # Concepts: both must read the same
    algebra = ALGEBRAS[name]()
    rng = random.Random(f"positions/{name}/{engine}")
    for n_objects, n_attributes in shapes(rng):
        context = random_context(rng, algebra, n_objects, n_attributes)
        for domain in (GENERATED_DOMAIN, FULL_DOMAIN):
            lattice = enumerate_concepts(context, engine, domain=domain)
            assert lattice._extents == tuple(algebra._positions(c.extent.values) for c in lattice)
            assert lattice._intents == tuple(algebra._positions(c.intent.values) for c in lattice)
            rebuilt = ConceptLattice(context, list(lattice))
            assert rebuilt.concepts == lattice.concepts
            assert (rebuilt._extents, rebuilt._intents) == (lattice._extents, lattice._intents)
            assert rebuilt.covers == lattice.covers
            assert rebuilt.order_pairs == lattice.order_pairs


@pytest.mark.parametrize("engine", ENGINES)
def test_fold_raises_exactly_when_the_scan_does(engine):
    algebra = load_table_algebra(NON_LATTICE)
    rng = random.Random(engine)
    outcomes = []
    for _ in range(40):
        context = random_context(rng, algebra, rng.randint(1, 3), rng.randint(1, 3))
        for domain in [FULL_DOMAIN, *explicit_domains(rng, algebra)]:
            try:
                expected = scan_concepts(context, engine, domain=domain).pairs()
            except StructureError:
                with pytest.raises(StructureError):
                    enumerate_concepts(context, engine, domain=domain)
                outcomes.append("raised")
            else:
                assert enumerate_concepts(context, engine, domain=domain).pairs() == expected
                outcomes.append("agreed")
    assert set(outcomes) == {"raised", "agreed"}


def test_fold_makes_at_most_three_derivations_per_concept(monkeypatch):
    calls = 0

    def counted(derive):
        def wrapper(context, fset):
            nonlocal calls
            calls += 1
            return derive(context, fset)
        return wrapper

    monkeypatch.setattr(galois, "derive_intent", counted(galois.derive_intent))
    monkeypatch.setattr(galois, "derive_extent", counted(galois.derive_extent))
    context = random_context(random.Random(GUARD_SEED), ProductAlgebra([3, 2]), 7, 7)
    lattice = enumerate_concepts(context, domain=FULL_DOMAIN)
    assert len(lattice) == GUARD_CONCEPTS
    assert 0 < calls <= 3 * len(lattice)


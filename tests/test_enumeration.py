"""Concept enumeration against the exhaustive scan oracle.

``enumerate_concepts`` folds the derivation over deduplicated partial
vectors; ``tests/oracle.py`` keeps the scan that closes every candidate one
by one. Both must admit the same concepts and give the same order.
"""

import itertools
import random

import pytest

from ltvcl import (
    Concept,
    ConceptLattice,
    FuzzyContext,
    ProductAlgebra,
    TableAlgebra,
    enumerate_concepts,
    is_congener,
)
from ltvcl import galois, lia, tacit
from ltvcl.galois import EXTENT_SCAN, FULL_DOMAIN, GENERATED_DOMAIN, INTENT_SCAN
from conftest import (
    ALGEBRAS,
    WIDE_ALGEBRAS,
    append_column,
    break_contraposition,
    load_context,
    random_context,
    shuffled_table,
    shuffled_tables,
)
from oracle import (
    brute_order_pairs,
    reference_derive_extent,
    reference_derive_intent,
    scan_concepts,
)

ENGINES = (EXTENT_SCAN, INTENT_SCAN)


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


def shapes(rng: random.Random, largest: int = 3):
    """Context sizes: both empty sides, then random ones up to largest x
    largest."""
    return [(0, 2), (2, 0), (0, 0)] + [
        (rng.randint(1, largest), rng.randint(1, largest)) for _ in range(5)
    ]


def brute_covers(pairs) -> tuple[tuple[int, int], ...]:
    """The pairs (i, j) of a strict order with nothing strictly between."""
    order = set(pairs)
    above: dict[int, set[int]] = {}
    for i, j in order:
        above.setdefault(i, set()).add(j)
    return tuple(sorted(
        (i, j) for i, j in order if not any((k, j) in order for k in above[i])
    ))


# the one-byte algebras, chain5's checked path among them, and two-byte
# ones on contexts of at most 2 x 2
@pytest.mark.parametrize("name", sorted(ALGEBRAS) + sorted(WIDE_ALGEBRAS))
@pytest.mark.parametrize("engine", ENGINES)
def test_fold_admits_the_scans_concepts(name, engine):
    algebra = {**ALGEBRAS, **WIDE_ALGEBRAS}[name]()
    rng = random.Random(f"{name}/{engine}")
    for n_objects, n_attributes in shapes(rng, 2 if name in WIDE_ALGEBRAS else 3):
        context = random_context(rng, algebra, n_objects, n_attributes)
        for domain in [GENERATED_DOMAIN, FULL_DOMAIN, *explicit_domains(rng, algebra)]:
            lattice = enumerate_concepts(context, engine, domain=domain)
            assert lattice.concepts == scan_concepts(context, engine, domain=domain).concepts
            assert lattice.order_pairs == brute_order_pairs(lattice)
            assert lattice.covers == brute_covers(lattice.order_pairs)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("engine", ENGINES)
def test_stored_positions_match_the_concepts(name, engine):
    # an enumerated lattice is built from position tuples, a caller's from
    # Concepts, here reversed and listed twice: both must read the same
    algebra = ALGEBRAS[name]()
    rng = random.Random(f"positions/{name}/{engine}")
    for n_objects, n_attributes in shapes(rng):
        context = random_context(rng, algebra, n_objects, n_attributes)
        for domain in (GENERATED_DOMAIN, FULL_DOMAIN):
            lattice = enumerate_concepts(context, engine, domain=domain)
            assert lattice._extents == tuple(algebra._positions(c.extent.values) for c in lattice)
            assert lattice._intents == tuple(algebra._positions(c.intent.values) for c in lattice)
            rebuilt = ConceptLattice(context, list(reversed(lattice)) * 2)
            assert rebuilt.concepts == lattice.concepts
            assert (rebuilt._extents, rebuilt._intents) == (lattice._extents, lattice._intents)
            assert rebuilt.covers == lattice.covers
            assert rebuilt.order_pairs == lattice.order_pairs


def test_equal_extents_keep_their_input_order(demo):
    # only a hand-built non-lattice has two concepts with one extent; they
    # are listed in the order they were given, once each
    first, second = list(enumerate_concepts(demo))[:2]
    twin = Concept(first.extent, second.intent)
    assert ConceptLattice(demo, [first, twin, first]).concepts == (first, twin)
    assert ConceptLattice(demo, [twin, first, twin]).concepts == (twin, first)


def count_derivations(monkeypatch, names=("_derive",)):
    """Count the calls of the named ``galois`` functions from here on, by
    default the derivation kernel's; returns a reader. The public
    derivations run through the kernel, so each of theirs counts once there;
    read it before any oracle scan, which runs the kernel too."""
    calls = 0

    def counted(derive):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return derive(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(galois, name, counted(getattr(galois, name)))
    return lambda: calls


def test_fold_makes_at_most_three_derivations_per_concept(monkeypatch):
    calls = count_derivations(monkeypatch)
    context = random_context(random.Random(GUARD_SEED), ProductAlgebra([3, 2]), 7, 7)
    lattice = enumerate_concepts(context, domain=FULL_DOMAIN)
    assert len(lattice) == GUARD_CONCEPTS
    assert 0 < calls() <= 3 * len(lattice)


@pytest.mark.parametrize("engine", ENGINES)
def test_one_derivation_per_concept_over_an_lia(monkeypatch, engine):
    calls = count_derivations(monkeypatch)
    context = random_context(random.Random(GUARD_SEED), ProductAlgebra([3, 2]), 7, 7)
    lattice = enumerate_concepts(context, engine, domain=FULL_DOMAIN)
    assert len(lattice) == GUARD_CONCEPTS
    assert calls() == len(lattice)


@pytest.mark.parametrize("engine", ENGINES)
def test_fixpoint_check_runs_off_an_lia(monkeypatch, engine):
    # chain5 fails the axioms, so every distinct image of the fold is
    # derived back, by the one public call per image, and every distinct
    # closed set forward on the kernel and, unless it derives to its image,
    # back again: at most three calls per image, and more than one per
    # concept, since the check rejects some closed sets
    context = load_context("chain5.ctx")
    assert not context.algebra._is_lia
    values = galois.scan_domain(context, FULL_DOMAIN)
    derive, width = (
        (reference_derive_intent, len(context.objects))
        if engine == EXTENT_SCAN
        else (reference_derive_extent, len(context.attributes))
    )
    images = {derive(context, c) for c in itertools.product(values, repeat=width)}
    calls = count_derivations(monkeypatch)
    public = count_derivations(monkeypatch, ("derive_intent", "derive_extent"))
    lattice = enumerate_concepts(context, engine, domain=FULL_DOMAIN)
    assert public() == len(images)
    assert len(lattice) < calls() <= 3 * len(images)
    assert lattice.pairs() == scan_concepts(context, engine, domain=FULL_DOMAIN).pairs()


@pytest.mark.parametrize("engine", ENGINES)
def test_gate_checks_tables_between_64_elements_and_the_axiom_budget(monkeypatch, engine):
    # 72 elements, over the former budget of 64 and within the budget of
    # 128: the shuffled copy of an LIA is shown to be one, and closes one
    # image per concept, as many concepts as over the product
    product = ProductAlgebra([3, 3, 2, 2, 2])
    table, rename = shuffled_table(product, 72)
    context = random_context(random.Random(72), table, 3, 3)
    calls = count_derivations(monkeypatch)
    lattice = enumerate_concepts(context, engine, domain=FULL_DOMAIN)
    assert 64 < len(table.elements) <= lia.DEFAULT_AXIOM_BUDGET
    assert table._is_lia is True
    assert calls() == len(lattice)
    back = {y: x for x, y in rename.items()}
    rows = tuple(tuple(back[v] for v in row) for row in context.rows)
    original = FuzzyContext(product, context.objects, context.attributes, rows)
    assert len(enumerate_concepts(original, engine, domain=FULL_DOMAIN)) == len(lattice)


@pytest.mark.parametrize("engine", ENGINES)
def test_gate_rejects_a_corrupted_table_over_the_cli_axiom_budget(monkeypatch, engine):
    rng = random.Random(72)
    names, imp, neg, _ = shuffled_tables(ProductAlgebra([3, 3, 2, 2, 2]), rng)
    table = TableAlgebra(names, break_contraposition(names, imp, neg, rng), neg)
    context = random_context(rng, table, 3, 3)
    calls = count_derivations(monkeypatch)
    lattice = enumerate_concepts(context, engine, domain=FULL_DOMAIN)
    assert table._is_lia is False
    assert len(lattice) < calls()


def test_gate_is_off_for_tables_over_the_axiom_budget(monkeypatch):
    # a shuffled copy of a 162-element LIA: check_axioms refuses it, so it
    # is not shown to be one; enumeration keeps its fixpoint check and
    # is_congener enumerates a congener extension, and both agree with the
    # product, on which the gate is on
    product = ProductAlgebra([3, 3, 3, 3, 2])
    table, rename = shuffled_table(product, 162)
    assert len(table.elements) > lia.DEFAULT_AXIOM_BUDGET
    assert table._is_lia is False
    base = random_context(random.Random(162), table, 2, 2)
    meet = tuple(table.meet(*row) for row in base.rows)
    ext = append_column(base, "x", meet)
    back = {y: x for x, y in rename.items()}

    def over_product(context):
        rows = tuple(tuple(back[v] for v in row) for row in context.rows)
        return FuzzyContext(product, context.objects, context.attributes, rows)

    enumerated = []

    def counting(context, *args, **kwargs):
        enumerated.append(context)
        return enumerate_concepts(context, *args, **kwargs)

    monkeypatch.setattr(tacit, "enumerate_concepts", counting)
    calls = count_derivations(monkeypatch)
    for engine in ENGINES:
        before = calls()
        lattice = enumerate_concepts(base, engine, domain=FULL_DOMAIN)
        assert len(lattice) < calls() - before
        product_lattice = enumerate_concepts(over_product(base), engine, domain=FULL_DOMAIN)
        assert len(product_lattice) == len(lattice)
        enumerated.clear()
        report = is_congener(base, ext, engine=engine, domain=FULL_DOMAIN, budget=10**7)
        assert enumerated == [base, ext]
        assert report.is_congener
        assert report == is_congener(
            over_product(base), over_product(ext), engine=engine, domain=FULL_DOMAIN, budget=10**7
        )


@pytest.mark.parametrize("name", ["bool2", "seeded-order"])
def test_table_gate_checks_the_axioms_once(name, monkeypatch):
    algebra = ALGEBRAS[name]()
    assert "_is_lia" not in vars(algebra)
    checked = []
    check_axioms = lia.check_axioms

    def counted(*args, **kwargs):
        checked.append(args[0])
        return check_axioms(*args, **kwargs)

    monkeypatch.setattr(lia, "check_axioms", counted)
    context = random_context(random.Random(name), algebra, 2, 2)
    for engine in ENGINES:
        enumerate_concepts(context, engine, domain=FULL_DOMAIN)
    assert checked == [algebra]
    assert vars(algebra)["_is_lia"] is True

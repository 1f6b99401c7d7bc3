"""Concept enumeration against the exhaustive scan oracle.

``enumerate_concepts`` folds the derivation over deduplicated partial
vectors; ``tests/oracle.py`` keeps the scan that closes every candidate one
by one. Both must admit the same concepts and give the same order.
"""

import itertools
import math
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
    corrupted_tables,
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


def factor_lattices(context, engine=EXTENT_SCAN) -> list[ConceptLattice]:
    """The lattices of the projections of a context over a
    ``ProductAlgebra`` onto its chains, one coordinate each, each
    enumerated over its chain's every element."""
    lattices = []
    for i, k in enumerate(context.algebra.chain_sizes):
        chain = ProductAlgebra([k])
        rows = [[chain.value(v.coords[i]) for v in row] for row in context.rows]
        factor = FuzzyContext(chain, context.objects, context.attributes, rows)
        lattices.append(enumerate_concepts(factor, engine, domain=FULL_DOMAIN))
    return lattices


def factor_sizes(context, engine) -> list[int]:
    return [len(lattice) for lattice in factor_lattices(context, engine)]


@pytest.mark.parametrize("engine", ENGINES)
def test_one_derivation_per_concept_over_an_lia(monkeypatch, engine):
    # the full domain of a product of two chains is factored: one
    # derivation per concept of each chain's projection
    calls = count_derivations(monkeypatch)
    context = random_context(random.Random(GUARD_SEED), ProductAlgebra([3, 2]), 7, 7)
    lattice = enumerate_concepts(context, engine, domain=FULL_DOMAIN)
    assert len(lattice) == GUARD_CONCEPTS
    derivations = calls()
    factors = factor_sizes(context, engine)
    assert derivations == sum(factors)
    assert len(lattice) == math.prod(factors)


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
    # image per concept of each chain's projection, with as many concepts
    # as over the product
    product = ProductAlgebra([3, 3, 2, 2, 2])
    table, rename = shuffled_table(product, 72)
    context = random_context(random.Random(72), table, 3, 3)
    calls = count_derivations(monkeypatch)
    lattice = enumerate_concepts(context, engine, domain=FULL_DOMAIN)
    derivations = calls()
    assert 64 < len(table.elements) <= lia.DEFAULT_AXIOM_BUDGET
    assert table._is_lia is True
    back = {y: x for x, y in rename.items()}
    rows = tuple(tuple(back[v] for v in row) for row in context.rows)
    original = FuzzyContext(product, context.objects, context.attributes, rows)
    assert derivations == sum(factor_sizes(original, engine))
    assert len(enumerate_concepts(original, engine, domain=FULL_DOMAIN)) == len(lattice)


@pytest.mark.parametrize("engine", ENGINES)
def test_gate_rejects_a_corrupted_table_within_the_axiom_budget(monkeypatch, engine):
    rng = random.Random(72)
    names, imp, neg, _ = shuffled_tables(ProductAlgebra([3, 3, 2, 2, 2]), rng)
    table = TableAlgebra(names, break_contraposition(names, imp, neg, rng), neg)
    context = random_context(rng, table, 3, 3)
    calls = count_derivations(monkeypatch)
    lattice = enumerate_concepts(context, engine, domain=FULL_DOMAIN)
    assert table._is_lia is False
    assert len(lattice) < calls()


def test_gate_certifies_tables_over_the_axiom_budget(monkeypatch):
    # a shuffled copy of a 162-element LIA, over the axiom-check budget: the
    # certificate shows it is one, so enumeration closes one image per
    # concept of each chain's projection and is_congener enumerates
    # nothing, and both agree with the
    # product; its one-entry corruption is refused, keeps the fixpoint
    # check and enumerates the extension
    product = ProductAlgebra([3, 3, 3, 3, 2])
    table, rename = shuffled_table(product, 162)
    corrupted = TableAlgebra(*corrupted_tables(product, 162))
    assert len(table.elements) > lia.DEFAULT_AXIOM_BUDGET
    assert table._is_lia is True
    assert corrupted._is_lia is False
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
    for algebra in (table, corrupted):
        base = random_context(random.Random(162), algebra, 2, 2)
        ext = append_column(base, "x", tuple(algebra.meet(*row) for row in base.rows))
        for engine in ENGINES:
            before = calls()
            lattice = enumerate_concepts(base, engine, domain=FULL_DOMAIN)
            derivations = calls() - before
            enumerated.clear()
            report = is_congener(base, ext, engine=engine, domain=FULL_DOMAIN, budget=10**7)
            if algebra is corrupted:
                assert len(lattice) < derivations
                assert enumerated == [base, ext]
                continue
            assert derivations == sum(factor_sizes(over_product(base), engine))
            assert enumerated == []
            product_lattice = enumerate_concepts(over_product(base), engine, domain=FULL_DOMAIN)
            renamed = {tuple(back[v] for v in c.extent.values + c.intent.values) for c in lattice}
            assert renamed == {c.extent.values + c.intent.values for c in product_lattice}
            assert report.is_congener
            assert report == is_congener(
                over_product(base), over_product(ext), engine=engine, domain=FULL_DOMAIN,
                budget=10**7,
            )


@pytest.mark.parametrize("name", ["bool2", "seeded-order"])
def test_table_gate_checks_the_axioms_once(name, monkeypatch):
    # the gate runs the certificate once and never the law check
    algebra = ALGEBRAS[name]()
    assert "_chains" not in vars(algebra)
    calls = {"_lukasiewicz_factors": [], "check_axioms": []}

    def counted(function):
        def wrapper(*args, **kwargs):
            calls[function.__name__].append(args[0])
            return function(*args, **kwargs)
        return wrapper

    for function in calls:
        monkeypatch.setattr(lia, function, counted(getattr(lia, function)))
    context = random_context(random.Random(name), algebra, 2, 2)
    for engine in ENGINES:
        enumerate_concepts(context, engine, domain=FULL_DOMAIN)
    assert calls == {"_lukasiewicz_factors": [algebra], "check_axioms": []}
    assert vars(algebra)["_chains"] is not None


# the algebras that are products of two or more chains; bool2, product 4,
# product 12 and chain5 are not
MULTI_CHAIN = ["product 2 2", "product 2 3 2", "product 3 2", "product 3 3",
               "product 4 4 4", "seeded-order"]


@pytest.mark.parametrize("name", MULTI_CHAIN)
@pytest.mark.parametrize("engine", ENGINES)
def test_factored_lattices_match_the_scan(name, engine):
    # every domain holding the whole of a product of chains is factored:
    # the full one, a generated one that is the whole algebra, and an
    # explicit one listing every element, shuffled and with a repeat; the
    # concepts are the scan's and the covers the reduction of the order
    algebra = {**ALGEBRAS, **WIDE_ALGEBRAS}[name]()
    assert len(algebra._chains[0]) > 1
    rng = random.Random(f"factored/{name}/{engine}")
    everything = list(algebra.elements)
    generated = 0
    for n_objects, n_attributes in shapes(rng, 2 if name in WIDE_ALGEBRAS else 3):
        context = random_context(rng, algebra, n_objects, n_attributes)
        rng.shuffle(everything)
        domains = [FULL_DOMAIN, everything + everything[:1]]
        if len(galois.scan_domain(context, GENERATED_DOMAIN)) == len(everything):
            domains.append(GENERATED_DOMAIN)
            generated += 1
        for domain in domains:
            lattice = enumerate_concepts(context, engine, domain=domain)
            assert lattice._factors is not None
            assert lattice.concepts == scan_concepts(context, engine, domain=domain).concepts
            assert lattice.covers == brute_covers(brute_order_pairs(lattice))
            assert lattice.order_pairs == brute_order_pairs(lattice)
    assert generated


@pytest.mark.parametrize("engine", ENGINES)
def test_partial_domains_take_the_unfactored_path(engine):
    # a generated subalgebra of product 2 3 2 that is itself a product of
    # two chains but not the whole algebra, an explicit domain missing one
    # element, one chain (bool2 and product 4), chain5, which fails the
    # axioms, and two chains of 258 elements, whose positions overflow a
    # byte: none is factored, and each still matches the scan
    rng = random.Random(f"unfactored/{engine}")
    product = ProductAlgebra([2, 3, 2])
    diagonal = [v for v in product.elements if v.coords[0] == v.coords[2]]
    cases = []
    for _ in range(4):
        rows = [[rng.choice(diagonal) for _ in range(3)] for _ in range(3)]
        context = FuzzyContext(product, ("g1", "g2", "g3"), ("m1", "m2", "m3"), rows)
        if set(galois.scan_domain(context, GENERATED_DOMAIN)) == set(diagonal):
            cases.append((context, GENERATED_DOMAIN))
        missing = rng.choice(product.elements)
        cases.append((context, [v for v in product.elements if v != missing]))
    assert any(domain == GENERATED_DOMAIN for _, domain in cases)
    for name in ("bool2", "product 4", "chain5"):
        algebra = ALGEBRAS[name]()
        cases += [(random_context(rng, algebra, 3, 3), FULL_DOMAIN) for _ in range(3)]
    cases.append((random_context(rng, ProductAlgebra([2, 129]), 1, 2), FULL_DOMAIN))
    for context, domain in cases:
        lattice = enumerate_concepts(context, engine, domain=domain)
        assert lattice._factors is None
        assert lattice.concepts == scan_concepts(context, engine, domain=domain).concepts


def test_factored_lattice_at_10x10():
    # 20,577 concepts: as many as the fold has images, each pair a fixpoint
    # of the kernel, and sum_i e_i * prod_(j != i) c_j covers, each a strict
    # pointwise order pair, sorted
    algebra = ProductAlgebra([3, 2])
    context = random_context(random.Random(10), algebra, 10, 10)
    lattice = enumerate_concepts(context, domain=FULL_DOMAIN, budget=10**100)
    assert lattice._factors is not None
    assert len(lattice) == len(galois._images(context, EXTENT_SCAN, algebra.elements, 10**100))
    g, m = len(context.objects), len(context.attributes)
    for extent, intent in zip(lattice._extents, lattice._intents):
        assert galois._derive(algebra, context.row_masks, m, extent) == intent
        assert galois._derive(algebra, context.column_masks, g, intent) == extent
    factors = factor_lattices(context)
    sizes = [len(factor) for factor in factors]
    assert len(lattice) == math.prod(sizes)
    assert len(lattice.covers) == sum(
        len(factor.covers) * math.prod(sizes) // size for factor, size in zip(factors, sizes)
    )
    assert list(lattice.covers) == sorted(set(lattice.covers))
    up, extents = algebra._up, lattice._extents
    for i, j in lattice.covers:
        assert i != j and all(up[a] >> b & 1 for a, b in zip(extents[i], extents[j]))

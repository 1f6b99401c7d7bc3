"""Cover pairs: the walk against the pair-by-pair test.

``lia._cover_pairs`` walks the covers in O(covers) mask operations when the
relation is transitive and its index order lists upper elements first, and
tests every strict pair on its own otherwise. Both must give the same pairs
in the same order, on concept lattices and on algebras, and the pair-by-pair
test must be the one that runs where the walk does not apply.
"""

import random

import pytest

from ltvcl import ProductAlgebra, enumerate_concepts, lia, load_table_algebra
from ltvcl.galois import EXTENT_SCAN, FULL_DOMAIN, GENERATED_DOMAIN, INTENT_SCAN
from ltvcl.lia import _cover_pairs
from conftest import DATA_DIR, random_context
from test_lia import shuffled_table


def _table(name: str):
    return lambda: load_table_algebra((DATA_DIR / name).read_text(encoding="utf-8"))


ALGEBRAS = {
    "product 3 2": lambda: ProductAlgebra([3, 2]),
    "product 2 2": lambda: ProductAlgebra([2, 2]),
    "product 4": lambda: ProductAlgebra([4]),
    "product 2 3 2": lambda: ProductAlgebra([2, 3, 2]),
    "product 3 3": lambda: ProductAlgebra([3, 3]),
    "bool2": _table("bool2.lia"),
    "chain5": _table("chain5.lia"),
}
ENGINES = (EXTENT_SCAN, INTENT_SCAN)
DOMAINS = (GENERATED_DOMAIN, FULL_DOMAIN)

# O <= A and A <= I, but not O <= I: the derived order is not transitive.
# Every implication is A or I, which have a meet, so every context over it
# enumerates.
INTRANSITIVE = """\
elements O A I
imp O I I A
imp A A I I
imp I A A I
neg O I
neg A A
neg I O
"""

# a Boolean table declared top first: its display order lists upper
# elements first
TOP_FIRST = "elements I O\nimp I I O\nimp O I I\nneg I O\nneg O I\n"


def pair_by_pair(up):
    return tuple(_cover_pairs(up, False))


def upper_first(up) -> bool:
    return all(not above >> (i + 1) for i, above in enumerate(up))


def count_tested(monkeypatch, compute):
    """The result of ``compute()`` and how many masks the pair-by-pair test
    expanded meanwhile: of ``_cover_pairs``'s two paths only that one calls
    ``lia._bits``. Warm every other cached use of ``_bits`` first."""
    calls = 0
    bits = lia._bits

    def counted(mask):
        nonlocal calls
        calls += 1
        return bits(mask)

    monkeypatch.setattr(lia, "_bits", counted)
    result = compute()
    monkeypatch.setattr(lia, "_bits", bits)
    return result, calls


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_walk_equals_pair_by_pair_on_random_lattices(name, monkeypatch):
    algebra = ALGEBRAS[name]()
    # products declare the verdict; the check must agree with it
    assert lia.Algebra._is_transitive.func(algebra)
    rng = random.Random(name)
    for engine in ENGINES:
        for domain in DOMAINS:
            for _ in range(6):
                context = random_context(rng, algebra, rng.randint(1, 4), rng.randint(1, 4))
                lattice = enumerate_concepts(context, engine, domain=domain)
                up = lattice._order_masks
                assert algebra._is_transitive and upper_first(up)
                covers, tested = count_tested(monkeypatch, lambda: lattice.covers)
                assert tested == 0
                assert covers == pair_by_pair(up)


def test_walk_at_8x8_full_domain():
    context = random_context(random.Random(8), ProductAlgebra([3, 2]), 8, 8)
    lattice = enumerate_concepts(context, domain=FULL_DOMAIN, budget=10**100)
    assert len(lattice) == 1920
    assert lattice.covers == pair_by_pair(lattice._order_masks)


def test_seeded_order_tables_fall_back(monkeypatch):
    # valid algebras in a shuffled declaration order: the canonical concept
    # order reads declared positions, which do not list upper concepts first
    for seed in range(4):
        table, _ = shuffled_table(ProductAlgebra([3, 2]), seed)
        assert table._is_transitive
        rng = random.Random(seed)
        for _ in range(3):
            lattice = enumerate_concepts(random_context(rng, table, 3, 3), domain=FULL_DOMAIN)
            up = lattice._order_masks
            assert not upper_first(up)
            covers, tested = count_tested(monkeypatch, lambda: lattice.covers)
            assert tested >= len(lattice)
            assert covers == pair_by_pair(up)


def test_intransitive_table_falls_back(monkeypatch):
    algebra = load_table_algebra(INTRANSITIVE)
    assert not algebra._is_transitive
    rng = random.Random(3)
    edges = 0
    for _ in range(8):
        lattice = enumerate_concepts(random_context(rng, algebra, 3, 3), domain=FULL_DOMAIN)
        up = lattice._order_masks
        covers, tested = count_tested(monkeypatch, lambda: lattice.covers)
        assert tested >= len(lattice)
        assert covers == pair_by_pair(up)
        edges += len(covers)
    assert edges


@pytest.mark.parametrize("build, walked", [
    (lambda: ProductAlgebra([3, 2]), True),
    (lambda: ProductAlgebra([2, 3, 2]), True),
    (lambda: load_table_algebra(TOP_FIRST), True),
    (_table("bool2.lia"), False),
    (_table("chain5.lia"), False),
    (lambda: shuffled_table(ProductAlgebra([3, 2]), 1)[0], False),
    (lambda: load_table_algebra(INTRANSITIVE), False),
], ids=["product-3-2", "product-2-3-2", "top-first", "bool2", "chain5", "seeded-order",
        "intransitive"])
def test_hasse_covers_on_both_paths(build, walked, monkeypatch):
    algebra = build()
    algebra._is_transitive  # computed once, with _bits, before counting
    covers, tested = count_tested(monkeypatch, algebra.hasse_covers)
    assert (tested == 0) == walked
    els = algebra.elements
    expected = [(els[i], els[j]) for i, j in pair_by_pair(algebra._up)]
    assert list(covers) == expected


def test_intransitive_hasse_covers_keep_the_pair_by_pair_meaning():
    algebra = load_table_algebra(INTRANSITIVE)
    O, A, I = (algebra.parse_value(name) for name in "OAI")
    assert not algebra.leq(O, I)
    assert algebra.hasse_covers() == ((O, A), (A, I))

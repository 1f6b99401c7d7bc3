"""Acceptance suite.

One test per criterion, each printing a PASS line on success (run with
``pytest -s`` to see them); a pytest failure is the corresponding FAIL line.
Criteria with a runtime bound assert it with a wall clock.
"""

import itertools
import json
import random
import time

import pytest

from ltvcl import (
    ExtensionConfig,
    ProductAlgebra,
    check_axioms,
    default_algebra,
    derive_intent,
    enumerate_concepts,
    extend_concepts_fast,
    extend_context,
    is_congener,
    load_table_algebra,
    mine,
    object_set,
)
from ltvcl.cli import main
from ltvcl.galois import FULL_DOMAIN, closure_extent
from conftest import DATA_DIR, concept_set, random_context
from golden import BASE_CONCEPTS, EXTENDED_CONCEPTS
from oracle import pointwise_leq

DEMO_PATH = str(DATA_DIR / "demo.ctx")


@pytest.fixture(scope="session")
def campaign():
    """100 random contexts over the default algebra, |G|,|M| <= 3, each with
    every meet-column extension of arity 2 and 3 plus the all-top extension.
    Shared by the congener and fast-extension criteria."""
    rng = random.Random(0x5EED)
    algebra = default_algebra()
    records = []
    for _ in range(100):
        ctx = random_context(rng, algebra, rng.randint(1, 3), rng.randint(1, 3))
        base = enumerate_concepts(ctx)
        n = len(ctx.attributes)
        extensions = []
        for arity in (2, 3):
            for subset in itertools.combinations(range(n), arity):
                ext = extend_context(
                    ctx,
                    ExtensionConfig(
                        meet_subsets=(subset,),
                        include_top_column=False,
                        novelty_filter=False,
                    ),
                )
                extensions.append(("meet", ext))
        top_ext = extend_context(
            ctx, ExtensionConfig(meet_subsets=(), novelty_filter=False)
        )
        extensions.append(("top", top_ext))
        records.append((ctx, base, extensions))
    return records


def test_c1_demo_context_enumerates_to_the_twelve_known_concepts(demo):
    started = time.perf_counter()
    lattice = enumerate_concepts(demo)
    elapsed = time.perf_counter() - started
    assert len(lattice) == 12
    assert set(lattice.concepts) == concept_set(demo, BASE_CONCEPTS)
    assert elapsed < 1.0
    print(f"\nPASS [1] demo context yields exactly the 12 known concepts ({elapsed:.3f}s)")


def test_c2_dual_engine_oracle(demo):
    started = time.perf_counter()
    algebra = demo.algebra
    assert len(algebra.elements) ** len(demo.objects) == 36
    assert len(algebra.elements) ** len(demo.attributes) == 216
    by_extent = enumerate_concepts(demo, "extent", domain=FULL_DOMAIN)
    by_intent = enumerate_concepts(demo, "intent", domain=FULL_DOMAIN)
    assert by_extent.pairs() == by_intent.pairs()

    rng = random.Random(0xD0A1)
    for _ in range(100):
        ctx = random_context(rng, algebra, rng.randint(1, 3), rng.randint(1, 3))
        a = enumerate_concepts(ctx, "extent", domain=FULL_DOMAIN)
        b = enumerate_concepts(ctx, "intent", domain=FULL_DOMAIN)
        assert a.pairs() == b.pairs()
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"PASS [2] extent and intent scans agree on the demo (36/216 candidates) "
          f"and on 100 random contexts ({elapsed:.3f}s)")


def test_c3_mining_pipeline_reproduces_the_extended_concepts(demo, tmp_path):
    started = time.perf_counter()
    out_path = tmp_path / "report.json"
    assert main(["mine", DEMO_PATH, "--preset", "paper", "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["tacit"] == [
        {"name": "m4", "kind": "meet", "sources": ["m1", "m2"]},
        {"name": "m5", "kind": "top", "sources": []},
    ]
    assert doc["congener"] is True
    assert doc["fast_verified"] is True
    assert doc["concepts_base"] == doc["concepts_ext"] == 12

    preset = ExtensionConfig(meet_subsets=((0, 1),))
    extended = extend_context(demo, preset)
    fmt = demo.algebra.format_value
    assert [fmt(v) for v in extended.columns[3]] == ["AbF", "AbF"]
    assert [fmt(v) for v in extended.columns[4]] == ["AbT", "AbT"]
    lattice = enumerate_concepts(extended)
    assert len(lattice) == 12
    assert set(lattice.concepts) == concept_set(extended, EXTENDED_CONCEPTS)

    report = mine(demo, preset)
    assert report.congener.is_congener
    assert report.fast_extension_verified
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS [3] two-column mining preset reproduces the 12 extended concepts ({elapsed:.3f}s)")


def test_c4_axiom_suite():
    started = time.perf_counter()
    for sizes in ([2, 2], [3, 2], [4, 2], [5, 2]):
        report = check_axioms(ProductAlgebra(sizes))
        assert report.passed, f"violations on {sizes}: {report.violations}"
    boolean = (DATA_DIR / "bool2.lia").read_text()
    assert check_axioms(load_table_algebra(boolean)).passed
    corrupted = boolean.replace("imp O I I", "imp O I O")
    report = check_axioms(load_table_algebra(corrupted))
    assert not report.passed
    assert any(witness for _, witness in report.violations)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"PASS [4] axiom checker passes 4 products and catches a corrupted table ({elapsed:.3f}s)")


def test_c5_meet_column_extensions_are_congener(campaign):
    checked = 0
    for ctx, _base, extensions in campaign:
        for kind, ext in extensions:
            if kind != "meet":
                continue
            report = is_congener(ctx, ext)
            assert report.is_congener, (ctx, ext.attributes)
            checked += 1
    assert checked > 100
    print(f"PASS [5] all {checked} meet-column extensions (arity 2 and 3) are congener")


def test_c6_top_column_extensions_are_congener(campaign):
    checked = 0
    for ctx, _base, extensions in campaign:
        for kind, ext in extensions:
            if kind != "top":
                continue
            report = is_congener(ctx, ext)
            assert report.is_congener, (ctx, ext.attributes)
            checked += 1
    assert checked == 100
    print(f"PASS [6] all {checked} all-top extensions are congener")


def test_c7_galois_law_suite(demo):
    algebra22 = ProductAlgebra([2, 2])
    population = list(itertools.product(algebra22.elements, repeat=4))
    rng = random.Random(0x6A15)
    failures = 0

    def run_laws(ctx):
        nonlocal failures
        alg = ctx.algebra
        candidates = [
            object_set(combo)
            for combo in itertools.product(alg.elements, repeat=len(ctx.objects))
        ]
        intents = {a: derive_intent(ctx, a) for a in candidates}
        for a in candidates:
            if not pointwise_leq(ctx, a, closure_extent(ctx, a)):
                failures += 1
            if derive_intent(ctx, closure_extent(ctx, a)) != intents[a]:
                failures += 1
        for a1, a2 in itertools.product(candidates, repeat=2):
            if pointwise_leq(ctx, a1, a2):
                if not pointwise_leq(ctx, intents[a2], intents[a1]):
                    failures += 1

    from ltvcl import FuzzyContext

    for cells in rng.sample(population, 200):
        ctx = FuzzyContext(
            algebra22, ("g1", "g2"), ("m1", "m2"),
            ((cells[0], cells[1]), (cells[2], cells[3])),
        )
        run_laws(ctx)
    run_laws(demo)
    assert failures == 0
    print("PASS [7] antitonicity, extensivity and the closure identity hold "
          "on 200 sampled 2x2 contexts and exhaustively on the demo")


def test_c8_fast_extension_equals_full_enumeration(campaign):
    checked = 0
    for ctx, base, extensions in campaign:
        for _kind, ext in extensions:
            fast = extend_concepts_fast(base, ext)
            full = enumerate_concepts(ext)
            assert fast.pairs() == full.pairs(), (ctx, ext.attributes)
            checked += 1
    assert checked > 200
    print(f"PASS [8] fast extension matched full enumeration on all {checked} extensions")


def test_c9_implication_distributes_over_meet():
    algebra = default_algebra()
    triples = 0
    for x, y, z in itertools.product(algebra.elements, repeat=3):
        assert algebra.imp(x, algebra.meet(y, z)) == algebra.meet(
            algebra.imp(x, y), algebra.imp(x, z)
        )
        triples += 1
    assert triples == 216
    print(f"PASS [9] imp distributes over meet in its second argument ({triples} triples)")

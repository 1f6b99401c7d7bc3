"""The tacit layer against its value-level oracle.

``tests/oracle.py`` keeps the tacit layer as it ran on truth values: subset
meets folded row by row, every subset of the originals searched, and every
congener verdict taken from enumerating the extension. The library builds
columns on element positions, searches a column's upper set, and decides
congener by the closure of every new column in the base context, on the
encoded kernel, where that is exact; a congener extension then gets its
concept count from the base scan's fold, with no lattice built. ``mine``
decides there by construction: every column it builds passes the closure
rule. Both must give the same extensions, classifications, congener
reports and mining reports, and raise the same errors, on algebras where
the closure test applies and on algebras where it is gated off. The
library's decision must follow the public rule,
``closure_extent(base, c) == c`` for every new column c, and the fold must
count the concepts exactly over a lattice implication algebra, and not off
one.
"""

import functools
import random
from collections import Counter

import pytest

from ltvcl import (
    ExtensionConfig,
    FuzzyContext,
    ProductAlgebra,
    classify_columns,
    closure_extent,
    enumerate_concepts,
    extend_concepts_fast,
    extend_context,
    is_congener,
    mine,
    object_set,
    tacit,
)
from ltvcl.cli import main
from ltvcl.errors import BudgetError, StructureError, UnclassifiedColumnError
from ltvcl.galois import (
    EXTENT_SCAN,
    FULL_DOMAIN,
    GENERATED_DOMAIN,
    INTENT_SCAN,
    _images,
    scan_domain,
)
from conftest import (
    ALGEBRAS,
    DATA_DIR,
    WIDE_ALGEBRAS,
    append_column,
    load_context,
    random_context,
    table,
)
from oracle import (
    reference_classify_columns,
    reference_extend_concepts_fast,
    reference_extend_context,
    reference_is_congener,
    reference_mine,
)

# the parity runs compare verdicts, so no budget gets in their way; the
# budget change itself is pinned in test_tacit.py
BUDGET = 10**100
DOMAINS = (GENERATED_DOMAIN, FULL_DOMAIN)
ENGINES = (EXTENT_SCAN, INTENT_SCAN)
KINDS = ("random", "meet", "extent", "flipped")


# the closure test applies to these ...
LIAS = {
    "product 3 2": lambda: ProductAlgebra([3, 2]),
    "product 2 2": lambda: ProductAlgebra([2, 2]),
    "product 4": lambda: ProductAlgebra([4]),
    "product 2 3 2": lambda: ProductAlgebra([2, 3, 2]),
    "bool2": lambda: table("bool2.lia"),
    # eleven join-irreducibles: two-byte blocks
    "product 12": lambda: ProductAlgebra([12]),
}
# ... and is gated off on this lattice, which fails the axioms
NON_LIAS = {
    "chain5": lambda: table("chain5.lia"),
}


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of what it raised."""
    try:
        return "ok", fn(*args, **kwargs)
    except (StructureError, BudgetError) as exc:
        return type(exc).__name__, str(exc)


def new_column(rng: random.Random, context, kind: str):
    """A column to append: random values, a meet of originals, a base
    extent, or a meet of originals with one cell changed."""
    alg = context.algebra
    random_column = tuple(rng.choice(alg.elements) for _ in context.objects)
    if kind == "meet" or kind == "flipped":
        n = len(context.attributes)
        sources = rng.sample(range(n), rng.randint(1, n))
        column = tuple(
            functools.reduce(alg.meet, (row[s] for s in sources), alg.top)
            for row in context.rows
        )
        if kind == "flipped":
            g = rng.randrange(len(column))
            others = [v for v in alg.elements if v != column[g]]
            column = column[:g] + (rng.choice(others),) + column[g + 1:]
        return column
    if kind == "extent":
        return closure_extent(context, object_set(random_column)).values
    return random_column


def cases(name: str, factory, count: int):
    """Seeded (base, extension) pairs: one or two new columns of one kind,
    the second appended after the first."""
    algebra = factory()
    rng = random.Random(name)
    for i in range(count):
        base = random_context(rng, algebra, rng.randint(1, 3), rng.randint(1, 3))
        kind = KINDS[i % len(KINDS)]
        ext = base
        for label in ("x", "y")[: rng.randint(1, 2)]:
            ext = append_column(ext, label, new_column(rng, base, kind))
        yield base, ext


@pytest.mark.parametrize("name", sorted(LIAS))
def test_congener_and_classification_match_the_oracle(name):
    verdicts = set()
    for base, ext in cases(name, LIAS[name], 16):
        assert base.algebra._is_lia
        assert outcome(classify_columns, base, ext) == outcome(reference_classify_columns, base, ext)
        for domain in DOMAINS:
            for engine in ENGINES:
                got = outcome(is_congener, base, ext, engine=engine, domain=domain, budget=BUDGET)
                assert got == outcome(
                    reference_is_congener, base, ext, engine=engine, domain=domain, budget=BUDGET
                )
                verdicts.add(got[1].is_congener)
        checks = classify_columns(base, ext)
        if all(c.satisfied for c in checks):
            base_lattice = enumerate_concepts(base)
            fast = extend_concepts_fast(base_lattice, ext, checks=checks)
            assert fast.pairs() == enumerate_concepts(ext).pairs()
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", sorted({**LIAS, **NON_LIAS}))
def test_fast_extension_matches_the_oracle(name):
    # the same concepts, in the same order, with the same covers, or the
    # same error; the fast extension reads and builds position tuples
    factory = {**LIAS, **NON_LIAS}[name]
    built = set()
    for base, ext in cases(name, factory, 16):
        base_lattice = enumerate_concepts(base)
        got = outcome(extend_concepts_fast, base_lattice, ext)
        want = outcome(reference_extend_concepts_fast, base_lattice, base, ext)
        built.add(got[0])
        if got[0] == want[0] == "ok":
            assert got[1].concepts == want[1].concepts
            assert got[1].covers == want[1].covers
        else:
            assert got == want
    assert "ok" in built


def configs(rng: random.Random):
    for max_k in (2, 3):
        yield ExtensionConfig(
            max_meet_arity=max_k,
            include_top_column=rng.random() < 0.7,
            novelty_filter=rng.random() < 0.7,
        )


# a non-chain algebra with two-byte blocks (nine join-irreducibles), whose
# codes are not nested; its random cases seldom classify every column, so
# only the mining parity runs over it
MINED = {**LIAS, "product 6 5": lambda: ProductAlgebra([6, 5])}


@pytest.mark.parametrize("name", sorted(MINED))
def test_mining_matches_the_oracle(name):
    algebra = MINED[name]()
    rng = random.Random(name)
    cases = []
    for _ in range(3):
        context = random_context(rng, algebra, rng.randint(1, 3), rng.randint(1, 4))
        cases.append((context, list(configs(rng))))
    # no attributes: without the top column the extension has none either,
    # and every fast-extension intent is empty
    no_attributes = random_context(rng, algebra, 2, 0)
    cases.append((no_attributes, [ExtensionConfig(include_top_column=top) for top in (False, True)]))
    for context, case_configs in cases:
        for config in case_configs:
            extended = extend_context(context, config)
            assert extended == reference_extend_context(context, config)
            # an explicit domain gates mine's verdict off the
            # classification: it enumerates the extension and checks the
            # fast path against its intents
            for domain in (*DOMAINS, algebra.elements):
                for engine in ENGINES:
                    report = mine(context, config, engine=engine, domain=domain, budget=BUDGET)
                    assert report == reference_mine(
                        context, config, engine=engine, domain=domain, budget=BUDGET
                    )
                    assert report.congener.is_congener and report.fast_extension_verified


@pytest.mark.parametrize("name", sorted(ALGEBRAS) + sorted(WIDE_ALGEBRAS))
def test_extension_and_classification_at_every_arity_match_the_oracle(name):
    # k = |M|: the subset fold keeps only the first subset of each meet at
    # each arity, so this is where its deduplication could lose a first
    # subset; graded and crisp contexts, with a foreign column classified too
    algebra = {**ALGEBRAS, **WIDE_ALGEBRAS}[name]()
    rng = random.Random(f"every arity/{name}")
    crisp = (algebra.bottom, algebra.top)
    for i in range(8):
        n_objects, n_attrs = rng.randint(0, 5), rng.randint(2, 6)
        context = random_context(rng, algebra, n_objects, n_attrs)
        if i % 2:
            rows = [[rng.choice(crisp) for _ in row] for row in context.rows]
            context = FuzzyContext(algebra, context.objects, context.attributes, rows)
        foreign = [rng.choice(algebra.elements) for _ in context.objects]
        for top in (False, True):
            for novelty in (False, True):
                config = ExtensionConfig(
                    max_meet_arity=n_attrs, include_top_column=top, novelty_filter=novelty
                )
                extended = extend_context(context, config)
                assert extended == reference_extend_context(context, config)
                extended = append_column(extended, "x", foreign)
                assert classify_columns(context, extended) == (
                    reference_classify_columns(context, extended)
                )


@pytest.mark.parametrize("name", ["product 3 2", "product 2 3 2"])
def test_mining_over_random_explicit_domains_matches_the_oracle(name):
    # an explicit domain always enumerates the extension, and a domain that
    # is no subalgebra can make it non-congener; a congener one is verified
    # against intents derived from the base extents
    algebra = LIAS[name]()
    rng = random.Random(f"explicit/{name}")
    verdicts = Counter()
    for _ in range(8):
        context = random_context(rng, algebra, rng.randint(1, 3), rng.randint(1, 3))
        domain = rng.sample(algebra.elements, rng.randint(1, 4))
        for config in configs(rng):
            for engine in ENGINES:
                report = mine(context, config, engine=engine, domain=domain, budget=BUDGET)
                assert report == reference_mine(
                    context, config, engine=engine, domain=domain, budget=BUDGET
                )
                verdicts[report.congener.is_congener, report.fast_extension_verified] += 1
    assert verdicts[True, True] and verdicts[False, False]


def test_mine_builds_the_fast_extension_only_for_a_congener_verdict(monkeypatch):
    # the oracle builds it whenever every column is classified, through its
    # own import, so only mine's calls are counted
    built = []
    fast = tacit.extend_concepts_fast

    def counting(*args, **kwargs):
        built.append(args)
        return fast(*args, **kwargs)

    monkeypatch.setattr(tacit, "extend_concepts_fast", counting)
    algebra = LIAS["product 3 2"]()
    rng = random.Random("explicit/product 3 2")
    verdicts = Counter()
    for _ in range(8):
        context = random_context(rng, algebra, rng.randint(1, 3), rng.randint(1, 3))
        domain = rng.sample(algebra.elements, rng.randint(1, 4))
        for config in configs(rng):
            for engine in ENGINES:
                built.clear()
                report = mine(context, config, engine=engine, domain=domain, budget=BUDGET)
                verdicts[report.congener.is_congener, len(built)] += 1
                assert report == reference_mine(
                    context, config, engine=engine, domain=domain, budget=BUDGET
                )
    assert verdicts[True, 1] and verdicts[False, 0]
    assert set(verdicts) <= {(True, 0), (True, 1), (False, 0)}


@pytest.mark.parametrize("name", sorted(NON_LIAS))
def test_gated_off_on_algebras_that_fail_the_axioms(name, monkeypatch):
    enumerated = []

    def counting(context, *args, **kwargs):
        enumerated.append(context)
        return enumerate_concepts(context, *args, **kwargs)

    monkeypatch.setattr(tacit, "enumerate_concepts", counting)
    rng = random.Random(name)
    for base, ext in cases(name, NON_LIAS[name], 16):
        assert not base.algebra._is_lia
        # a lattice, so classification searches the upper set here too
        assert outcome(classify_columns, base, ext) == outcome(reference_classify_columns, base, ext)
        for domain in DOMAINS:
            for engine in ENGINES:
                enumerated.clear()
                got = outcome(is_congener, base, ext, engine=engine, domain=domain, budget=BUDGET)
                assert got == outcome(
                    reference_is_congener, base, ext, engine=engine, domain=domain, budget=BUDGET
                )
                if got[0] == "ok":
                    # the extension was enumerated: the closure rule is off
                    assert enumerated[:2] == [base, ext]
        for config in configs(rng):
            assert outcome(extend_context, base, config) == outcome(
                reference_extend_context, base, config
            )
            for domain in DOMAINS:
                assert outcome(mine, base, config, domain=domain, budget=BUDGET) == outcome(
                    reference_mine, base, config, domain=domain, budget=BUDGET
                )


def membership_column(rng: random.Random, base, kind: str):
    """A column of random values, a base extent, a base extent E shifted
    to a -> E, or the meet of two base extents; all but the first are base
    extents over a lattice implication algebra."""
    alg = base.algebra

    def values():
        return tuple(rng.choice(alg.elements) for _ in base.objects)

    def extent():
        return closure_extent(base, object_set(values())).values

    if kind == "random":
        return values()
    if kind == "extent":
        return extent()
    if kind == "shifted":
        a = rng.choice(alg.elements)
        return tuple(alg.imp(a, v) for v in extent())
    return tuple(map(alg.meet, extent(), extent()))


@pytest.mark.parametrize("name", sorted(LIAS))
def test_membership_decides_as_the_closure_rule(name, monkeypatch):
    # 100 seeded extensions per algebra, each under both named domains and
    # both engines: 2,000 cases over LIAS. The verdict, and whether the
    # extension was enumerated, follow the closure of every new column.
    enumerated = []

    def counting(context, *args, **kwargs):
        enumerated.append(context)
        return enumerate_concepts(context, *args, **kwargs)

    monkeypatch.setattr(tacit, "enumerate_concepts", counting)
    algebra = LIAS[name]()
    rng = random.Random(f"membership {name}")
    seen = Counter()
    for _ in range(100):
        base = random_context(rng, algebra, rng.randint(1, 3), rng.randint(1, 3))
        ext, closed = base, True
        for label in ("x", "y")[: rng.randint(1, 2)]:
            kind = rng.choice(("random", "extent", "shifted", "meet"))
            column = membership_column(rng, base, kind)
            ext = append_column(ext, label, column)
            closed = closed and closure_extent(base, object_set(column)).values == column
        for domain in DOMAINS:
            for engine in ENGINES:
                enumerated.clear()
                report = is_congener(base, ext, engine=engine, domain=domain, budget=BUDGET)
                assert report.is_congener == closed
                assert enumerated == ([] if closed else [base, ext])
                seen[closed] += 1
    assert sum(seen.values()) == 400 and seen[True] and seen[False], seen


def mined_configs(n_attributes: int):
    """Every extension mine builds over n attributes, n >= 2: each arity
    with the top column and the novelty filter on and off, the paper
    preset, and every pair pinned without the filter."""
    for arity in range(2, n_attributes + 1):
        for top in (False, True):
            for novelty in (False, True):
                yield ExtensionConfig(
                    max_meet_arity=arity, include_top_column=top, novelty_filter=novelty
                )
    yield ExtensionConfig(meet_subsets=((0, 1),))
    pairs = tuple((a, b) for a in range(n_attributes) for b in range(a + 1, n_attributes))
    for top in (False, True):
        yield ExtensionConfig(include_top_column=top, novelty_filter=False, meet_subsets=pairs)


@pytest.mark.parametrize("name", sorted(ALGEBRAS) + sorted(WIDE_ALGEBRAS))
def test_mine_decides_by_the_classification(name, monkeypatch):
    # a mine-built extension classifies every column and generates the
    # base's subalgebra; over an LIA and a named domain each new column is
    # closed, so mine's verdict, decided by construction with only the
    # base enumerated, is is_congener's. chain5 and an explicit domain
    # enumerate the extension too, and there is_congener enumerates as well
    enumerated = []

    def counting(context, *args, **kwargs):
        enumerated.append(context)
        return enumerate_concepts(context, *args, **kwargs)

    monkeypatch.setattr(tacit, "enumerate_concepts", counting)
    algebra = {**ALGEBRAS, **WIDE_ALGEBRAS}[name]()
    rng = random.Random(f"classified {name}")
    seen = Counter()
    for _ in range(5):
        base = random_context(rng, algebra, rng.randint(1, 3), rng.randint(2, 4))
        for config in mined_configs(len(base.attributes)):
            ext = extend_context(base, config)
            assert all(check.satisfied for check in classify_columns(base, ext))
            if algebra._is_lia:
                for column in list(zip(*ext.rows))[len(base.attributes):]:
                    assert closure_extent(base, object_set(column)).values == column
            for domain in (*DOMAINS, algebra.elements):
                named = domain in DOMAINS
                if named:
                    assert scan_domain(ext, domain) == scan_domain(base, domain)
                enumerated.clear()
                report = mine(base, config, domain=domain, budget=BUDGET)
                gated = named and algebra._is_lia
                assert enumerated == ([base] if gated else [base, ext])
                assert report.congener == is_congener(base, ext, domain=domain, budget=BUDGET)
                if gated:
                    assert report.congener.is_congener and report.fast_extension_verified
                seen[gated] += 1
    assert seen[False] and (seen[True] or name == "chain5"), seen


def test_mine_refuses_an_unclassified_column(monkeypatch, capsys):
    # no extension mine builds leaves a column unclassified, so one check
    # is marked unsatisfied here: mine does not switch to enumerating the
    # extension, the fast extension refuses the check, and the CLI exits 2
    enumerated = []

    def counting(context, *args, **kwargs):
        enumerated.append(context)
        return enumerate_concepts(context, *args, **kwargs)

    classify = tacit.classify_columns

    def one_unsatisfied(base, extended):
        first, *rest = classify(base, extended)
        return [tacit.TheoremCheck(first.attribute, None, False), *rest]

    monkeypatch.setattr(tacit, "enumerate_concepts", counting)
    monkeypatch.setattr(tacit, "classify_columns", one_unsatisfied)
    context = load_context("demo.ctx")
    for domain in DOMAINS:
        enumerated.clear()
        with pytest.raises(UnclassifiedColumnError):
            mine(context, domain=domain)
        assert enumerated == [context]
    assert main(["mine", str(DATA_DIR / "demo.ctx")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: fast extension is unsound for unclassified columns")


@pytest.mark.parametrize("name", sorted(LIAS) + sorted(set(WIDE_ALGEBRAS) - set(LIAS)))
def test_fold_counts_the_concepts_over_an_lia(name):
    # is_congener's count on a congener extension: the distinct images of
    # the base scan's fold, one per concept over a lattice implication
    # algebra, empty sides included
    algebra = {**LIAS, **WIDE_ALGEBRAS}[name]()
    rng = random.Random(f"fold count {name}")
    shapes = [(0, 2), (2, 0), (0, 0)] + [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(12)]
    for n_objects, n_attributes in shapes:
        context = random_context(rng, algebra, n_objects, n_attributes)
        for domain in DOMAINS:
            values = scan_domain(context, domain)
            for engine in ENGINES:
                lattice = enumerate_concepts(context, engine, domain=domain, budget=BUDGET)
                assert len(_images(context, engine, values, BUDGET)) == len(lattice)


def test_fold_overcounts_off_an_lia():
    # chain5 fails the axioms: images that are not fixpoints are filtered
    # out of the lattice, so the fold cannot count it, and the closure rule
    # is gated off there
    context = load_context("chain5.ctx")
    assert not context.algebra._is_lia
    values = scan_domain(context, FULL_DOMAIN)
    for engine in ENGINES:
        lattice = enumerate_concepts(context, engine, domain=FULL_DOMAIN)
        assert len(_images(context, engine, values, BUDGET)) > len(lattice) == 9

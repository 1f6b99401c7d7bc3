import itertools
import json
import random
import re

import pytest

from ltvcl import (
    BudgetError,
    Concept,
    ConceptLattice,
    DimensionError,
    FuzzyContext,
    FuzzySet,
    MembershipError,
    StructureError,
    attribute_set,
    closure_extent,
    closure_intent,
    concept_join,
    concept_meet,
    default_algebra,
    derive_extent,
    derive_intent,
    enumerate_concepts,
    export_dot,
    export_json,
    load_table_algebra,
    object_set,
    parse_context,
)
from ltvcl.galois import FULL_DOMAIN, GENERATED_DOMAIN, concept_label, scan_domain
from conftest import (
    ALGEBRAS,
    DATA_DIR,
    WIDE_ALGEBRAS,
    aset,
    concept_set,
    oset,
    random_context,
    table,
)
from golden import BASE_CONCEPTS
from oracle import (
    pointwise_leq,
    reference_concept_join,
    reference_concept_meet,
    reference_order_join,
    reference_order_meet,
)


def chain5_context():
    """A context over the chain5 table, which fails the implication axioms."""
    return parse_context(
        "algebra table chain5.lia\nattributes m1 m2 m3\ng1 O O I\ng2 a a b\n",
        base_dir=str(DATA_DIR),
    )


def middle_only(demo) -> ConceptLattice:
    """A hand-built lattice of one demo concept with neither side all-top."""
    return ConceptLattice(demo, [Concept(oset(demo, "SlT SlT"), aset(demo, "SlF SlF AbT"))])


class TestDerivations:
    def test_intent_of_all_top_extent(self, demo):
        assert derive_intent(demo, oset(demo, "AbT AbT")) == aset(demo, "AbF AbF SlT")

    def test_intent_of_all_bottom_extent(self, demo):
        assert derive_intent(demo, oset(demo, "AbF AbF")) == aset(demo, "AbT AbT AbT")

    def test_intent_of_slf_pair(self, demo):
        assert derive_intent(demo, oset(demo, "SlF SlF")) == aset(demo, "SlT SlT SlT")

    def test_extent_duals(self, demo):
        assert derive_extent(demo, aset(demo, "AbF AbF SlT")) == oset(demo, "AbT AbT")
        assert derive_extent(demo, aset(demo, "AbT AbT AbT")) == oset(demo, "AbF AbF")
        assert derive_extent(demo, aset(demo, "AbF AbF AbF")) == oset(demo, "AbT AbT")

    def test_size_mismatch(self, demo):
        with pytest.raises(DimensionError):
            derive_intent(demo, oset(demo, "AbT"))
        with pytest.raises(DimensionError):
            derive_intent(demo, aset(demo, "AbT AbT"))

    def test_empty_sides_give_top(self):
        no_objects = parse_context("algebra product 3 2\nattributes m1 m2\n")
        intent = derive_intent(no_objects, object_set(()))
        assert intent == attribute_set((no_objects.algebra.top,) * 2)
        no_attrs = parse_context("algebra product 3 2\nattributes\ng1\n")
        extent = derive_extent(no_attrs, attribute_set(()))
        assert extent == object_set((no_attrs.algebra.top,))


class TestClosure:
    def test_already_closed(self, demo):
        a = oset(demo, "AbT AbT")
        assert closure_extent(demo, a) == a

    def test_closure_of_bottom_extent(self, demo):
        assert closure_extent(demo, oset(demo, "AbF AbF")) == oset(demo, "AbF AbF")

    def test_extensive_and_idempotent_on_random_contexts(self):
        rng = random.Random(7)
        alg = default_algebra()
        for _ in range(50):
            ctx = random_context(rng, alg, 2, 3)
            a = object_set(rng.choice(alg.elements) for _ in range(2))
            closed = closure_extent(ctx, a)
            assert pointwise_leq(ctx, a, closed)
            assert closure_extent(ctx, closed) == closed


class TestEnumeration:
    def test_demo_yields_the_twelve(self, demo):
        lattice = enumerate_concepts(demo)
        assert len(lattice) == 12
        assert set(lattice.concepts) == concept_set(demo, BASE_CONCEPTS)

    def test_full_domain_is_a_superset(self, demo):
        full = enumerate_concepts(demo, domain=FULL_DOMAIN)
        assert len(full) == 27
        assert concept_set(demo, BASE_CONCEPTS) <= set(full.concepts)

    def test_dual_engines_agree_on_demo(self, demo):
        for domain in (GENERATED_DOMAIN, FULL_DOMAIN):
            by_extent = enumerate_concepts(demo, "extent", domain=domain)
            by_intent = enumerate_concepts(demo, "intent", domain=domain)
            assert by_extent.pairs() == by_intent.pairs()

    def test_dual_engines_agree_on_random_contexts(self):
        rng = random.Random(99)
        alg = default_algebra()
        for _ in range(30):
            ctx = random_context(rng, alg, rng.randint(1, 3), rng.randint(1, 3))
            a = enumerate_concepts(ctx, "extent", domain=FULL_DOMAIN)
            b = enumerate_concepts(ctx, "intent", domain=FULL_DOMAIN)
            assert a.pairs() == b.pairs()

    def test_single_cell_top_context_against_pair_scan(self):
        ctx = parse_context("algebra product 3 2\nattributes m1\ng1 AbT\n")
        alg = ctx.algebra
        # oracle: direct scan of all 6x6 (extent, intent) pairs for fixpoints
        expected = set()
        for a, b in itertools.product(alg.elements, repeat=2):
            extent, intent = object_set((a,)), attribute_set((b,))
            if derive_intent(ctx, extent) == intent and derive_extent(ctx, intent) == extent:
                expected.add(Concept(extent, intent))
        lattice = enumerate_concepts(ctx, domain=FULL_DOMAIN)
        assert set(lattice.concepts) == expected
        assert len(expected) == 1

    def test_fixpoint_integrity(self, demo):
        for domain in (GENERATED_DOMAIN, FULL_DOMAIN):
            for c in enumerate_concepts(demo, domain=domain):
                assert derive_intent(demo, c.extent) == c.intent
                assert derive_extent(demo, c.intent) == c.extent

    def test_engines_agree_even_on_an_invalid_table_algebra(self):
        # chain5 fails the implication axioms, so scan closures need not be
        # fixpoints (this matrix produces one that is not); only verified
        # fixpoints may be emitted, which keeps the engines in agreement
        ctx = chain5_context()
        alg = ctx.algebra
        raw_closures = {
            closure_extent(ctx, object_set(combo))
            for combo in itertools.product(alg.elements, repeat=2)
        }
        assert any(closure_extent(ctx, e) != e for e in raw_closures)
        a = enumerate_concepts(ctx, "extent", domain=FULL_DOMAIN)
        b = enumerate_concepts(ctx, "intent", domain=FULL_DOMAIN)
        assert a.pairs() == b.pairs()
        for c in a:
            assert derive_intent(ctx, c.extent) == c.intent
            assert derive_extent(ctx, c.intent) == c.extent

    def test_budget_error_names_the_count(self, demo):
        with pytest.raises(BudgetError, match="36"):
            enumerate_concepts(demo, domain=FULL_DOMAIN, budget=35)

    def test_budget_counts_distinct_domain_values(self):
        # a domain listing top and bottom 16 times each stands for 2^4
        # candidates over four objects, not 32^4
        algebra = default_algebra()
        context = random_context(random.Random(4), algebra, 4, 2)
        domain = [algebra.top, algebra.bottom] * 16
        lattice = enumerate_concepts(context, domain=domain, budget=16)
        assert lattice.concepts == enumerate_concepts(context, domain=domain[:2]).concepts
        with pytest.raises(BudgetError, match="extent scan needs 16 candidates"):
            enumerate_concepts(context, domain=domain, budget=15)

    def test_unknown_engine_and_domain(self, demo):
        with pytest.raises(ValueError):
            enumerate_concepts(demo, "sideways")
        with pytest.raises(ValueError):
            enumerate_concepts(demo, domain="everything")
        with pytest.raises(ValueError, match="^a scan domain needs at least one value$"):
            enumerate_concepts(demo, domain=[])

    def test_generated_domain_of_demo(self, demo):
        values = scan_domain(demo, GENERATED_DOMAIN)
        spelt = {demo.algebra.format_value(v) for v in values}
        assert spelt == {"AbT", "SlT", "SlF", "AbF"}


class TestGaloisLaws:
    def test_antitone_and_galois_identities_on_demo(self, demo):
        alg = demo.algebra
        sets = [object_set(c) for c in itertools.product(alg.elements, repeat=2)]
        for a in sets:
            assert pointwise_leq(demo, a, closure_extent(demo, a))
            assert derive_intent(demo, closure_extent(demo, a)) == derive_intent(demo, a)
        for a1, a2 in itertools.product(sets, repeat=2):
            if pointwise_leq(demo, a1, a2):
                assert pointwise_leq(demo, derive_intent(demo, a2), derive_intent(demo, a1))

    def test_intent_side_laws_on_demo(self, demo):
        alg = demo.algebra
        rng = random.Random(3)
        for _ in range(100):
            b = attribute_set(rng.choice(alg.elements) for _ in range(3))
            assert pointwise_leq(demo, b, closure_intent(demo, b))
            assert derive_extent(demo, closure_intent(demo, b)) == derive_extent(demo, b)


class TestLatticeStructure:
    def test_canonical_order_is_a_linear_extension(self, demo):
        lattice = enumerate_concepts(demo)
        assert lattice.top.extent == oset(demo, "AbT AbT")
        assert lattice.bottom.extent == oset(demo, "AbF AbF")
        for i, j in itertools.combinations(range(len(lattice)), 2):
            assert not pointwise_leq(demo, lattice[i].extent, lattice[j].extent)

    def test_top_and_bottom_of_a_top_first_table(self):
        # a valid Boolean table that declares its top first, so the display
        # order of extents is not a linear extension of the concept order
        alg = load_table_algebra("elements I O\nimp I I O\nimp O I I\nneg I O\nneg O I\n")
        I, O = alg.parse_value("I"), alg.parse_value("O")
        ctx = FuzzyContext(alg, ("g1", "g2"), ("m1", "m2"), ((I, O), (O, I)))
        lattice = enumerate_concepts(ctx, domain=FULL_DOMAIN)
        assert lattice.top.extent == object_set((I, I))
        assert lattice.bottom.intent == attribute_set((I, I))
        for c in lattice:
            assert lattice.leq(c, lattice.top)
            assert lattice.leq(lattice.bottom, c)

    @pytest.mark.parametrize("case", ["demo", "random0", "random1", "random2", "chain5"])
    def test_covers_are_the_transitive_reduction(self, demo, case):
        if case == "demo":
            lattice = enumerate_concepts(demo)
        elif case == "chain5":
            lattice = enumerate_concepts(chain5_context(), domain=FULL_DOMAIN)
        else:
            rng = random.Random(int(case.removeprefix("random")))
            context = random_context(rng, default_algebra(), 3, 3)
            lattice = enumerate_concepts(context, domain=FULL_DOMAIN)
        order = set(lattice.order_pairs)
        covers = set(lattice.covers)
        assert covers <= order
        for i, j in order:
            between = [k for k in range(len(lattice))
                       if (i, k) in order and (k, j) in order]
            assert ((i, j) in covers) == (not between)

    def test_meet_example(self, demo):
        lattice = enumerate_concepts(demo)
        def find(extent_labels):
            return lattice[lattice.index_of(next(
                c for c in lattice if c.extent == oset(demo, extent_labels)
            ))]
        c7, c9 = find("AbT AbF"), find("AbF SlF")
        bottom = find("AbF AbF")
        assert concept_meet(lattice, c7, c9) == bottom

    def test_meet_and_join_close_over_the_lattice(self, demo):
        lattice = enumerate_concepts(demo)
        members = set(lattice.concepts)
        for c1, c2 in itertools.product(lattice, repeat=2):
            assert concept_meet(lattice, c1, c2) in members
            assert concept_join(lattice, c1, c2) in members

    def test_join_idempotent(self, demo):
        lattice = enumerate_concepts(demo)
        for c in lattice:
            assert concept_join(lattice, c, c) == c
            assert concept_meet(lattice, c, c) == c

    def test_foreign_concept_rejected(self, demo):
        lattice = enumerate_concepts(demo)
        alg = demo.algebra
        foreign = Concept(
            object_set((alg.top, alg.parse_value("VeF"))),
            attribute_set((alg.top,) * 3),
        )
        with pytest.raises(MembershipError):
            concept_meet(lattice, lattice[0], foreign)
        with pytest.raises(MembershipError):
            lattice.leq(lattice[0], foreign)
        with pytest.raises(MembershipError):
            lattice.leq(foreign, lattice[0])

    @pytest.mark.parametrize("build, error, message", [
        (lambda demo: FuzzySet("rows", ()), ValueError, "side must be 'objects' or 'attributes'"),
        (lambda demo: Concept(aset(demo, "AbT AbT AbT"), oset(demo, "AbT AbT")),
         ValueError, "pairs an object-side set with an attribute-side set"),
        (lambda demo: middle_only(demo).top, StructureError, "no concept has an all-top extent"),
        (lambda demo: middle_only(demo).bottom, StructureError, "no concept has an all-top intent"),
    ], ids=["unknown-side", "swapped-sides", "no-top", "no-bottom"])
    def test_malformed_sets_and_lattices_are_refused(self, demo, build, error, message):
        with pytest.raises(error, match=message):
            build(demo)

    def test_mis_sized_concepts_are_refused(self):
        # a two-value extent on a four-object context once built the
        # cycle ((0, 1), (1, 0)) as covers
        algebra = default_algebra()
        context = random_context(random.Random(2), algebra, 4, 2)
        top, bottom = algebra.top, algebra.bottom
        for extent, intent in (
            ((top, bottom), (top, top)),
            ((top,) * 4, (top,) * 3),
            ((top,) * 5, (top, top)),
        ):
            with pytest.raises(DimensionError):
                ConceptLattice(context, [
                    Concept(object_set(extent), attribute_set(intent)),
                    Concept(object_set((bottom,) * len(extent)), attribute_set(intent)),
                ])

    @pytest.mark.parametrize("name", sorted(ALGEBRAS) + sorted(WIDE_ALGEBRAS))
    def test_meet_and_join_match_the_value_level_reference(self, name):
        # seeded random contexts of up to 4 x 4 (2 x 2 over the two-byte
        # algebras), both domains: the same concept, or the same exception
        # type and message; chain5 fails the axioms, so a computed pair can
        # miss the lattice
        algebra = {**ALGEBRAS, **WIDE_ALGEBRAS}[name]()
        largest = 2 if name in WIDE_ALGEBRAS else 4
        rng = random.Random(name)
        failures = set()

        def outcome(op, *args):
            try:
                return op(*args)
            except Exception as exc:
                failures.add(type(exc))
                return type(exc), str(exc)

        for domain in (GENERATED_DOMAIN, FULL_DOMAIN):
            for _ in range(12):
                context = random_context(
                    rng, algebra, rng.randint(1, largest), rng.randint(1, largest)
                )
                lattice = enumerate_concepts(context, domain=domain)
                pairs = list(itertools.product(lattice, repeat=2))
                for left, right in rng.sample(pairs, min(len(pairs), 60)):
                    for op, reference in (
                        (concept_meet, reference_concept_meet),
                        (concept_join, reference_concept_join),
                    ):
                        assert outcome(op, lattice, left, right) == outcome(
                            reference, lattice, left, right
                        )
        assert failures == ({StructureError} if name == "chain5" else set())

    @pytest.mark.parametrize("name", sorted(ALGEBRAS) + sorted(WIDE_ALGEBRAS) + ["meet4"])
    def test_meet_and_join_are_the_order_bounds(self, name):
        # seeded random contexts as above: wherever concept_meet returns,
        # it is the greatest common subconcept by extent order; off chain5
        # and meet4, which fail the axioms, neither operation raises and
        # the join is the least common superconcept
        algebra = {**ALGEBRAS, **WIDE_ALGEBRAS, "meet4": lambda: table("meet4.lia")}[name]()
        lawful = name not in ("chain5", "meet4")
        largest = 2 if name in WIDE_ALGEBRAS else 4
        rng = random.Random(name)
        for domain in (GENERATED_DOMAIN, FULL_DOMAIN):
            for _ in range(12):
                context = random_context(
                    rng, algebra, rng.randint(1, largest), rng.randint(1, largest)
                )
                lattice = enumerate_concepts(context, domain=domain)
                pairs = list(itertools.product(lattice, repeat=2))
                for left, right in rng.sample(pairs, min(len(pairs), 30)):
                    try:
                        meet = concept_meet(lattice, left, right)
                    except StructureError:
                        assert not lawful
                    else:
                        assert meet == reference_order_meet(lattice, left, right)
                    if lawful:
                        assert concept_join(lattice, left, right) == reference_order_join(
                            lattice, left, right
                        )

    def test_meet_is_the_meet_of_extents_off_lia_6(self):
        # meet4 breaks lia-6, so deriving the join of the two intents (b
        # and a, giving b) misses the extent a; the meet of extents does not
        context = parse_context(
            "algebra table meet4.lia\nattributes m\ng O\n", base_dir=str(DATA_DIR)
        )
        lattice = enumerate_concepts(context, domain=FULL_DOMAIN)
        assert [concept_label(lattice, i) for i in range(len(lattice))] == [
            "0# (b | b)", "1# (a | a)",
        ]
        assert lattice.leq(lattice[1], lattice[0])
        assert concept_meet(lattice, lattice[0], lattice[1]) == lattice[1]

    @pytest.mark.parametrize("case", ["demo", "chain5"])
    def test_leq_is_pointwise_extent_order(self, demo, case):
        # leq reads the stored position tuples; the oracle compares values
        context = demo if case == "demo" else chain5_context()
        lattice = enumerate_concepts(context, domain=FULL_DOMAIN)
        for lower, upper in itertools.product(lattice, repeat=2):
            assert lattice.leq(lower, upper) == pointwise_leq(context, lower.extent, upper.extent)


class TestExport:
    def test_dot_counts_and_determinism(self, demo):
        lattice = enumerate_concepts(demo)
        dot = export_dot(lattice)
        assert dot.count("[label=") == 12
        assert dot.count(" -> ") == len(lattice.covers)
        assert '0# (AbT AbT | AbF AbF SlT)' in dot
        assert export_dot(enumerate_concepts(demo)) == dot

    def test_dot_single_concept(self):
        ctx = parse_context("algebra product 3 2\nattributes m1\ng1 AbT\n")
        dot = export_dot(enumerate_concepts(ctx))
        assert dot.count("c0 [label=") == 1
        assert " -> " not in dot

    def test_json_schema_and_round_trip(self, demo):
        lattice = enumerate_concepts(demo)
        text = export_json(lattice)
        doc = json.loads(text)
        assert list(doc) == ["algebra", "objects", "attributes", "concepts", "covers"]
        assert doc["algebra"] == "product 3 2"
        assert doc["objects"] == ["g1", "g2"]
        assert len(doc["concepts"]) == 12
        assert doc["concepts"][0] == {
            "extent": ["AbT", "AbT"], "intent": ["AbF", "AbF", "SlT"],
        }
        assert all(len(pair) == 2 for pair in doc["covers"])
        assert json.dumps(doc, indent=2) + "\n" == text

    def test_dot_escapes_quotes_and_backslashes(self, tmp_path):
        # a Boolean table whose top is spelled "I\ : the DOT label escapes
        # both characters, the plain label keeps the spelling as it is
        odd = '"I\\'
        (tmp_path / "odd.lia").write_text(
            f"elements O {odd}\nimp O {odd} {odd}\nimp {odd} O {odd}\n"
            f"neg O {odd}\nneg {odd} O\n",
            encoding="utf-8",
        )
        ctx = parse_context(f"algebra table odd.lia\nattributes m1\ng1 {odd}\n",
                            base_dir=str(tmp_path))
        lattice = enumerate_concepts(ctx)
        assert concept_label(lattice, 0) == f"0# ({odd} | {odd})"
        dot = export_dot(lattice)
        assert r'c0 [label="0# (\"I\\ | \"I\\)"];' in dot
        labels = [line for line in dot.splitlines() if "[label=" in line]
        assert len(labels) == len(lattice)
        quoted = re.compile(r'  c\d+ \[label="(?:[^"\\]|\\.)*"\];')
        assert all(quoted.fullmatch(line) for line in labels)

    def test_concept_label_format(self, demo):
        lattice = enumerate_concepts(demo)
        assert concept_label(lattice, 11) == "11# (AbF AbF | AbT AbT AbT)"

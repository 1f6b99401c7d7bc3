import itertools
import random

import pytest

from ltvcl import (
    ExtensionConfig,
    FuzzyContext,
    PreconditionError,
    UnclassifiedColumnError,
    check_pointwise_condition,
    classify_columns,
    default_algebra,
    enumerate_concepts,
    extend_concepts_fast,
    extend_context,
    is_congener,
    mine,
    object_set,
    parse_context,
)
from ltvcl.galois import FULL_DOMAIN, GENERATED_DOMAIN, scan_domain
from conftest import append_column, concept_set, oset, random_context
from golden import EXTENDED_CONCEPTS

PAPER_PRESET = ExtensionConfig(meet_subsets=((0, 1),))


class TestIsCongener:
    def test_demo_extension(self, demo, demo_extended):
        report = is_congener(demo, demo_extended)
        assert report.is_congener
        assert report.base_extent_count == 12
        assert report.extended_extent_count == 12
        assert report.witnesses == ()

    def test_identity_extension(self, demo):
        report = is_congener(demo, demo)
        assert report.is_congener

    def test_unclassified_but_congener_column(self, demo):
        # (AbT, SlF) is no meet of original columns, yet leaves the extent
        # family unchanged: the sufficient conditions are not necessary
        adv = append_column(demo, "x", (demo.algebra.parse_value("AbT"),
                                        demo.algebra.parse_value("SlF")))
        checks = classify_columns(demo, adv)
        assert len(checks) == 1 and not checks[0].satisfied
        # an explicit domain may be a one-shot iterator: it is resolved once
        # and both lattices are scanned over the same values
        for domain in (GENERATED_DOMAIN, FULL_DOMAIN, iter(demo.algebra.elements)):
            assert is_congener(demo, adv, domain=domain).is_congener

    def test_non_congener_column_has_witnesses(self, demo):
        adv = append_column(demo, "x", (demo.algebra.parse_value("AbF"),
                                        demo.algebra.parse_value("AbT")))
        report = is_congener(demo, adv)
        assert not report.is_congener
        assert report.witnesses
        base = enumerate_concepts(demo).extent_set()
        ext = enumerate_concepts(
            adv, domain=scan_domain(adv, GENERATED_DOMAIN)
        ).extent_set()
        for side, extent in report.witnesses:
            if side == "base":
                assert extent in base and extent not in ext
            else:
                assert extent in ext and extent not in base

    def test_restriction_precondition(self, demo):
        alg = demo.algebra
        rows = [list(row) for row in demo.rows]
        rows[0][0] = alg.parse_value("VeT")
        tampered = FuzzyContext(alg, demo.objects, demo.attributes, tuple(tuple(r) for r in rows))
        with pytest.raises(PreconditionError):
            is_congener(demo, tampered)

    def test_counts_equal_whenever_congener(self, demo):
        rng = random.Random(11)
        alg = default_algebra()
        for _ in range(20):
            ctx = random_context(rng, alg, rng.randint(1, 3), rng.randint(1, 3))
            ext = extend_context(ctx)
            report = is_congener(ctx, ext)
            assert report.is_congener
            assert report.base_extent_count == report.extended_extent_count

    def test_congener_extension_preserves_the_cover_structure(self, demo, demo_extended):
        base = enumerate_concepts(demo)
        ext = enumerate_concepts(demo_extended)
        def covers_by_extent(lattice):
            return {
                (lattice[i].extent, lattice[j].extent) for i, j in lattice.covers
            }
        assert covers_by_extent(base) == covers_by_extent(ext)


class TestPointwiseCondition:
    def test_demo_top_extent(self, demo, demo_extended):
        assert check_pointwise_condition(demo, demo_extended, oset(demo, "AbT AbT"))

    def test_top_only_extension_always_true(self, demo):
        top_only = extend_context(
            demo, ExtensionConfig(meet_subsets=(), novelty_filter=False)
        )
        alg = demo.algebra
        for combo in itertools.product(alg.elements, repeat=2):
            assert check_pointwise_condition(demo, top_only, object_set(combo))

    @pytest.mark.parametrize("column", [("AbT", "SlF"), ("AbF", "AbT"), ("SlF", "VeT")])
    def test_quantified_scan_matches_the_verdict(self, demo, column):
        adv = append_column(
            demo, "x", tuple(demo.algebra.parse_value(t) for t in column)
        )
        for domain in (GENERATED_DOMAIN, FULL_DOMAIN):
            values = scan_domain(adv, domain)
            quantified = all(
                check_pointwise_condition(demo, adv, object_set(combo))
                for combo in itertools.product(values, repeat=len(demo.objects))
            )
            assert quantified == is_congener(demo, adv, domain=domain).is_congener


class TestClassifyColumns:
    def test_demo_extension_columns(self, demo, demo_extended):
        checks = {c.attribute: c for c in classify_columns(demo, demo_extended)}
        assert checks["m4"].rule == "pair-meet"
        assert checks["m4"].satisfied
        assert checks["m4"].sources == ("m1", "m2")
        assert checks["m5"].rule == "all-top"
        assert checks["m5"].satisfied

    def test_copy_of_a_column_needs_arity_one(self, demo):
        copy = append_column(demo, "x", demo.columns[0])
        default = classify_columns(demo, copy)
        assert not default[0].satisfied and default[0].rule is None
        relaxed = classify_columns(demo, copy, min_arity=1)
        assert relaxed[0].satisfied
        assert relaxed[0].rule == "k-meet"
        assert relaxed[0].sources == ("m1",)

    def test_unexpressible_column_certified_by_exhaustion(self, demo):
        alg = demo.algebra
        adv = append_column(demo, "x", (alg.parse_value("AbT"), alg.parse_value("SlF")))
        # exhaustive oracle: no subset of original columns meets to this column
        target = adv.columns[3]
        for arity in range(1, len(demo.attributes) + 1):
            for subset in itertools.combinations(range(len(demo.attributes)), arity):
                column = tuple(
                    alg.meet_all(row[s] for s in subset) for row in demo.rows
                )
                assert column != target
        checks = classify_columns(demo, adv, min_arity=1)
        assert not checks[0].satisfied

    def test_triple_meet_classified_as_k_meet(self, demo):
        alg = demo.algebra
        column = tuple(alg.meet_all(row) for row in demo.rows)
        adv = append_column(demo, "x", column)
        checks = classify_columns(demo, adv)
        assert checks[0].satisfied
        # the search runs arity ascending, so the pair meet that produces the
        # same column wins over the triple
        assert checks[0].rule == "pair-meet"
        assert checks[0].sources == ("m1", "m2")


class TestFastExtension:
    def test_demo_golden_intents(self, demo, demo_extended):
        base = enumerate_concepts(demo)
        fast = extend_concepts_fast(base, demo, demo_extended)
        assert set(fast.concepts) == concept_set(demo_extended, EXTENDED_CONCEPTS)

    def test_specific_intents(self, demo, demo_extended):
        base = enumerate_concepts(demo)
        fast = extend_concepts_fast(base, demo, demo_extended)
        by_extent = {c.extent: c for c in fast}
        fmt = demo.algebra.format_value
        def intent_of(extent_labels):
            c = by_extent[oset(demo, extent_labels)]
            return tuple(fmt(v) for v in c.intent.values)
        assert intent_of("AbT AbT") == ("AbF", "AbF", "SlT", "AbF", "AbT")
        assert intent_of("SlT AbF") == ("AbT", "SlF", "AbT", "SlF", "AbT")
        assert intent_of("AbF AbF") == ("AbT", "AbT", "AbT", "AbT", "AbT")

    def test_extents_unchanged(self, demo, demo_extended):
        base = enumerate_concepts(demo)
        fast = extend_concepts_fast(base, demo, demo_extended)
        assert base.extent_set() == fast.extent_set()

    def test_matches_full_enumeration(self, demo, demo_extended):
        base = enumerate_concepts(demo)
        fast = extend_concepts_fast(base, demo, demo_extended)
        full = enumerate_concepts(demo_extended)
        assert fast.pairs() == full.pairs()

    def test_refuses_unclassified_columns(self, demo):
        alg = demo.algebra
        adv = append_column(demo, "x", (alg.parse_value("AbT"), alg.parse_value("SlF")))
        base = enumerate_concepts(demo)
        with pytest.raises(UnclassifiedColumnError, match="enumerate"):
            extend_concepts_fast(base, demo, adv)

    def test_interleaved_attribute_order(self, demo):
        # fast extension must align with the extension's column order even
        # when a new column sits between original ones
        alg = demo.algebra
        meet_col = tuple(alg.meet(row[0], row[1]) for row in demo.rows)
        shuffled = FuzzyContext(
            alg, demo.objects, ("m1", "x", "m2", "m3"),
            tuple(
                (row[0], meet_col[g], row[1], row[2])
                for g, row in enumerate(demo.rows)
            ),
        )
        base = enumerate_concepts(demo)
        fast = extend_concepts_fast(base, demo, shuffled)
        full = enumerate_concepts(shuffled)
        assert fast.pairs() == full.pairs()


class TestMine:
    def test_demo_with_two_column_preset(self, demo):
        report = mine(demo, PAPER_PRESET)
        assert report.tacit_attributes == (("m4", "meet(m1,m2)"), ("m5", "top"))
        assert report.congener.is_congener
        assert report.congener.base_extent_count == 12
        assert report.congener.extended_extent_count == 12
        assert report.fast_extension_verified
        rules = {c.attribute: c.rule for c in report.theorem_checks}
        assert rules == {"m4": "pair-meet", "m5": "all-top"}

    def test_report_dict_shape(self, demo):
        doc = mine(demo, PAPER_PRESET).as_dict(demo)
        assert doc == {
            "tacit": [
                {"name": "m4", "kind": "meet", "sources": ["m1", "m2"]},
                {"name": "m5", "kind": "top", "sources": []},
            ],
            "congener": True,
            "concepts_base": 12,
            "concepts_ext": 12,
            "fast_verified": True,
            "witnesses": [],
        }

    def test_single_top_cell_context(self):
        ctx = parse_context("algebra product 3 2\nattributes m1\ng1 AbT\n")
        report = mine(ctx)
        # the only candidate column duplicates the all-top original and is
        # dropped, so the extension is the identity
        assert report.tacit_attributes == ()
        assert report.congener.is_congener
        assert report.fast_extension_verified

    def test_random_contexts_always_verify(self):
        rng = random.Random(42)
        alg = default_algebra()
        for _ in range(25):
            ctx = random_context(rng, alg, 3, 3)
            report = mine(ctx, ExtensionConfig(max_meet_arity=3))
            assert report.congener.is_congener
            assert report.fast_extension_verified

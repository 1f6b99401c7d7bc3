import functools
import itertools
import json
import random
import re

import pytest

from ltvcl import (
    ATTRIBUTES,
    BudgetError,
    Concept,
    ConceptLattice,
    CongenerReport,
    ExtensionConfig,
    FuzzyContext,
    FuzzySet,
    MiningReport,
    PreconditionError,
    TheoremCheck,
    UnclassifiedColumnError,
    classify_columns,
    closure_extent,
    default_algebra,
    enumerate_concepts,
    extend_concepts_fast,
    extend_context,
    is_congener,
    mine,
    object_set,
    parse_context,
    tacit,
)
from ltvcl.cli import main
from ltvcl.galois import FULL_DOMAIN, GENERATED_DOMAIN, scan_domain
from ltvcl.tacit import _report_json
from conftest import ALGEBRAS, DATA_DIR, append_column, concept_set, oset, random_context
from golden import EXTENDED_CONCEPTS
from oracle import check_pointwise_condition, reference_is_congener

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

    def test_an_upper_set_below_min_arity_is_not_searched(self, demo, monkeypatch):
        # m1's upper set is m1 alone: no subset of two or more originals can
        # meet to a copy of it, so the fold is read no further than the
        # empty subset
        read = []
        fold = tacit._subset_meets

        def counting(*args):
            for subset, meet in fold(*args):
                read.append(subset)
                yield subset, meet

        monkeypatch.setattr(tacit, "_subset_meets", counting)
        checks = classify_columns(demo, append_column(demo, "x", demo.columns[0]))
        assert [c.rule for c in checks] == [None]
        assert read == [()]

    def test_unexpressible_column_certified_by_exhaustion(self, demo):
        alg = demo.algebra
        adv = append_column(demo, "x", (alg.parse_value("AbT"), alg.parse_value("SlF")))
        # exhaustive oracle: no subset of original columns meets to this column
        target = adv.columns[3]
        for arity in range(1, len(demo.attributes) + 1):
            for subset in itertools.combinations(range(len(demo.attributes)), arity):
                column = tuple(
                    functools.reduce(alg.meet, (row[s] for s in subset), alg.top)
                    for row in demo.rows
                )
                assert column != target
        checks = classify_columns(demo, adv)
        assert not checks[0].satisfied

    def test_triple_meet_classified_as_k_meet(self, demo):
        alg = demo.algebra
        column = tuple(functools.reduce(alg.meet, row, alg.top) for row in demo.rows)
        adv = append_column(demo, "x", column)
        checks = classify_columns(demo, adv)
        assert checks[0].satisfied
        # the search runs arity ascending, so the pair meet that produces the
        # same column wins over the triple
        assert checks[0].rule == "pair-meet"
        assert checks[0].sources == ("m1", "m2")


    def test_a_pool_of_every_original_meets_without_recursion(self):
        # the new column lies below all 1100 originals, so its upper set
        # holds every one of them and is met as a single subset
        alg = default_algebra()
        false, true = alg.parse_value("AbF"), alg.parse_value("AbT")
        n_attrs = 1100
        rows = ((false, true) + (true,) * (n_attrs - 2), (true, false) + (true,) * (n_attrs - 2))
        base = FuzzyContext(alg, ("g1", "g2"), tuple(f"a{i}" for i in range(n_attrs)), rows)
        checks = classify_columns(base, append_column(base, "x", (false, false)))
        assert [(c.rule, c.sources) for c in checks] == [("pair-meet", ("a0", "a1"))]


class TestFastExtension:
    def test_demo_golden_intents(self, demo, demo_extended):
        base = enumerate_concepts(demo)
        fast = extend_concepts_fast(base, demo_extended)
        assert set(fast.concepts) == concept_set(demo_extended, EXTENDED_CONCEPTS)

    def test_specific_intents(self, demo, demo_extended):
        base = enumerate_concepts(demo)
        fast = extend_concepts_fast(base, demo_extended)
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
        fast = extend_concepts_fast(base, demo_extended)
        assert base.extent_set() == fast.extent_set()

    def test_matches_full_enumeration(self, demo, demo_extended):
        base = enumerate_concepts(demo)
        fast = extend_concepts_fast(base, demo_extended)
        full = enumerate_concepts(demo_extended)
        assert fast.pairs() == full.pairs()

    def test_refuses_unclassified_columns(self, demo):
        alg = demo.algebra
        adv = append_column(demo, "x", (alg.parse_value("AbT"), alg.parse_value("SlF")))
        base = enumerate_concepts(demo)
        with pytest.raises(UnclassifiedColumnError, match="enumerate"):
            extend_concepts_fast(base, adv)

    @pytest.mark.parametrize("checks, error, message", [
        # a new column with no check is unclassified
        ([], UnclassifiedColumnError, "unclassified columns ['m4', 'm5']"),
        ([TheoremCheck("m4", "pair-meet", True, ("m1", "m2"))],
         UnclassifiedColumnError, "unclassified columns ['m5']"),
        # a source outside the base is named with the check that names it
        ([TheoremCheck("m4", "pair-meet", True, ("m1", "m4")), TheoremCheck("m5", "all-top", True)],
         PreconditionError, "the check of m4 names 'm4', not a base attribute"),
        ([TheoremCheck("m4", "pair-meet", True, ("m1", "m2")),
          TheoremCheck("m5", "k-meet", True, ("m9",))],
         PreconditionError, "the check of m5 names 'm9', not a base attribute"),
    ], ids=["no-checks", "one-missing", "new-source", "unknown-source"])
    def test_malformed_checks_raise(self, demo, demo_extended, checks, error, message):
        base = enumerate_concepts(demo)
        with pytest.raises(error, match=re.escape(message)):
            extend_concepts_fast(base, demo_extended, checks=checks)

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
        fast = extend_concepts_fast(base, shuffled)
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


def dumped(report, context) -> str:
    """The ``mine --out`` text as the standard library lays it out."""
    return json.dumps(report.as_dict(context), indent=2) + "\n"


class TestReportWriter:
    """``_report_json`` writes what ``json.dumps(..., indent=2)`` writes. No
    golden has witnesses, so hand-built reports cover them."""

    CONFIGS = [
        ExtensionConfig(),
        ExtensionConfig(max_meet_arity=3, include_top_column=False),
        ExtensionConfig(max_meet_arity=4, novelty_filter=False),
        PAPER_PRESET,
    ]

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_seeded_reports(self, name):
        algebra = ALGEBRAS[name]()
        rng = random.Random(name)
        for config in self.CONFIGS:
            for n_objects, n_attrs in ((0, 2), (1, 1), (3, 3), (4, 5)):
                context = random_context(rng, algebra, n_objects, n_attrs)
                report = mine(context, config if n_attrs >= 2 else ExtensionConfig())
                assert _report_json(report, context) == dumped(report, context)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_crisp_reports(self, seed):
        context = _crisp_context(seed, 7, 10)
        report = mine(context, ExtensionConfig(max_meet_arity=4))
        assert report.tacit_attributes
        assert _report_json(report, context) == dumped(report, context)

    def test_witnesses_on_both_sides_and_every_kind_of_column(self, demo):
        alg = demo.algebra
        top, bottom = alg.top, alg.bottom
        witnesses = (
            ("base", FuzzySet("objects", (top, bottom))),
            ("base", FuzzySet("objects", ())),
            ("extended", FuzzySet("objects", (bottom, alg.parse_value("SlT")))),
        )
        checks = (
            TheoremCheck("m4", "pair-meet", True, ("m1", "m2")),
            TheoremCheck("m5", "k-meet", True, ("m1", "m2", "m3")),
            TheoremCheck("m6", "all-top", True),
            TheoremCheck("m7", None, False),
        )
        tacit_columns = (("m4", "meet(m1,m2)"), ("m5", "meet(m1,m2,m3)"), ("m6", "top"),
                         ("m7", "?"), ("m8", "no check"))
        for verified in (True, False):
            report = MiningReport(tacit_columns, checks, CongenerReport(12, 11, witnesses), verified)
            text = _report_json(report, demo)
            assert text == dumped(report, demo)
            assert '"sources": []' in text and '"extended"' in text

    def test_no_tacit_columns_and_no_witnesses(self, demo):
        report = MiningReport((), (), CongenerReport(0, 0, ()), True)
        text = _report_json(report, demo)
        assert text == dumped(report, demo)
        assert '"tacit": [],' in text and '"witnesses": []\n}\n' in text

    def test_names_are_escaped_as_json_dumps_escapes_them(self, demo):
        names = ('q"uote', "back\\slash", "caf\u00e9", "tab\t", "\u2603")
        checks = (TheoremCheck(names[0], "k-meet", True, names[1:]),)
        report = MiningReport(((names[0], "meet"),), checks, CongenerReport(1, 1, ()), True)
        assert _report_json(report, demo) == dumped(report, demo)


def _crisp_context(seed: int, n_objects: int, n_attrs: int) -> FuzzyContext:
    """A context of AbT (probability 0.7) and AbF cells, drawn from ``seed``."""
    alg = default_algebra()
    rng = random.Random(seed)
    rows = tuple(
        tuple(alg.top if rng.random() < 0.7 else alg.bottom for _ in range(n_attrs))
        for _ in range(n_objects)
    )
    return FuzzyContext(
        alg,
        tuple(f"g{i + 1}" for i in range(n_objects)),
        tuple(f"m{j + 1}" for j in range(n_attrs)),
        rows,
    )


class TestClosureTest:
    """Over a lattice implication algebra, is_congener decides the
    congener question by the closure of every new column in the base
    context, two kernel derivations per column, and mine by the
    classification of its own columns. is_congener then enumerates
    nothing, and mine only the base."""

    @pytest.fixture
    def enumerations(self, monkeypatch):
        calls = []

        def counting(context, *args, **kwargs):
            calls.append(context)
            return enumerate_concepts(context, *args, **kwargs)

        monkeypatch.setattr(tacit, "enumerate_concepts", counting)
        return calls

    def test_congener_extension_enumerates_the_base_only(self, demo, demo_extended, enumerations):
        # is_congener counts the base concepts from the fold, no lattice
        assert is_congener(demo, demo_extended).is_congener
        assert enumerations == []
        report = mine(demo, PAPER_PRESET)
        assert report.congener.is_congener and report.fast_extension_verified
        assert enumerations == [demo]

    @pytest.mark.parametrize("domain", [GENERATED_DOMAIN, FULL_DOMAIN])
    def test_congener_decision_makes_no_derivation(self, demo, demo_extended, monkeypatch, domain):
        calls = []
        derive = tacit._derive

        def counted(*args):
            calls.append(args)
            return derive(*args)

        monkeypatch.setattr(tacit, "_derive", counted)
        new_columns = len(demo_extended.attributes) - len(demo.attributes)
        report = is_congener(demo, demo_extended, domain=domain)
        assert report.is_congener
        # the closure of each new column: an intent, then its extent
        assert len(calls) == 2 * new_columns
        calls.clear()
        # mine: no closure, since its verdict is the classification's, then
        # its check of the fast extension, one intent per base concept
        mined = mine(demo, PAPER_PRESET, domain=domain)
        assert mined.fast_extension_verified
        assert len(calls) == mined.congener.base_extent_count

    def test_non_congener_extension_enumerates_both(self, demo, enumerations):
        alg = demo.algebra
        adv = append_column(demo, "x", (alg.parse_value("AbF"), alg.parse_value("AbT")))
        assert not is_congener(demo, adv).is_congener
        assert enumerations == [demo, adv]

    def test_explicit_domain_enumerates_both(self, demo, demo_extended, enumerations):
        assert is_congener(demo, demo_extended, domain=demo.algebra.elements).is_congener
        assert len(enumerations) == 2

    @pytest.mark.parametrize("explicit", [False, True])
    def test_a_wrong_fast_extension_is_caught(self, demo, enumerations, monkeypatch, explicit):
        # one flipped intent component in one concept of the fast extension
        # fails the concept-by-concept check, on the classified path and on
        # the enumeration path (an explicit domain gates the former off)
        real = tacit.extend_concepts_fast

        def flipped(base_lattice, extended, **kwargs):
            concepts = list(real(base_lattice, extended, **kwargs))
            k = len(concepts) // 2
            values = list(concepts[k].intent.values)
            values[-1] = next(v for v in extended.algebra.elements if v != values[-1])
            concepts[k] = Concept(concepts[k].extent, FuzzySet(ATTRIBUTES, tuple(values)))
            return ConceptLattice(extended, concepts)

        domain = demo.algebra.elements if explicit else GENERATED_DOMAIN
        assert mine(demo, PAPER_PRESET, domain=domain).fast_extension_verified
        enumerations.clear()
        monkeypatch.setattr(tacit, "extend_concepts_fast", flipped)
        report = mine(demo, PAPER_PRESET, domain=domain)
        assert report.congener.is_congener
        assert not report.fast_extension_verified
        assert len(enumerations) == (2 if explicit else 1)

    # a crisp 7x10 context whose --max-k 4 extension has 27 columns, so an
    # intent scan of the extension needs 2^27 candidates, over the default
    # budget
    BUDGET_SEED = 5

    def test_congener_answer_needs_no_extension_budget(self):
        # deliberate change: enumerating the extension raised BudgetError
        # ("intent scan needs 134217728 candidates"); the closure rule
        # answers from the 2^10-candidate base scan
        base = _crisp_context(self.BUDGET_SEED, 7, 10)
        ext = extend_context(base, ExtensionConfig(max_meet_arity=4))
        assert len(ext.attributes) == 27
        with pytest.raises(BudgetError, match="intent scan needs 134217728 candidates"):
            reference_is_congener(base, ext, engine="intent")
        report = is_congener(base, ext, engine="intent")
        assert report.is_congener
        assert report.base_extent_count == report.extended_extent_count == 25
        # mine builds the same extension and no longer enumerates it either
        mined = mine(base, ExtensionConfig(max_meet_arity=4), engine="intent")
        assert mined.congener == report and mined.fast_extension_verified

    def test_non_congener_copy_still_needs_the_budget(self):
        base = _crisp_context(self.BUDGET_SEED, 7, 10)
        ext = extend_context(base, ExtensionConfig(max_meet_arity=4))
        alg = base.algebra
        rows = [list(row) for row in ext.rows]
        rows[1][10] = alg.bottom if rows[1][10] == alg.top else alg.top
        flipped = FuzzyContext(alg, ext.objects, ext.attributes, tuple(map(tuple, rows)))
        column = object_set(flipped.columns[10])
        assert closure_extent(base, column) != column
        with pytest.raises(BudgetError, match="intent scan needs 134217728 candidates"):
            is_congener(base, flipped, engine="intent")


class TestNonLatticeAlgebra:
    """A context over an order that is not a lattice is refused when it is
    built (see test_context.py), so every subcommand that reads one exits 2
    before any layer runs, naming the pair with no meet."""

    MESSAGE = "no unique greatest lower bound for (c, d)"

    @pytest.mark.parametrize("command", ["concepts", "mine", "check-congener"])
    def test_cli_mine_exits_2(self, command, capsys):
        path = str(DATA_DIR / "nonlattice.ctx")
        argv = [command, path, path] if command == "check-congener" else [command, path]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert self.MESSAGE in captured.err

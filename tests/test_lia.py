import itertools
import math
import random
from collections import Counter

import pytest

from ltvcl import lia
from ltvcl import (
    EXTENT_SCAN,
    FULL_DOMAIN,
    GENERATED_DOMAIN,
    INTENT_SCAN,
    BudgetError,
    Concept,
    DimensionError,
    FuzzyContext,
    LinguisticLabel,
    LoadError,
    MembershipError,
    ProductAlgebra,
    StructureError,
    TableAlgebra,
    TruthValue,
    check_axioms,
    default_algebra,
    derive_intent,
    enumerate_concepts,
    label_from_value,
    label_to_value,
    load_table_algebra,
    object_set,
)
from conftest import (
    ALGEBRAS,
    DATA_DIR,
    NON_LATTICE,
    WIDE_ALGEBRAS,
    break_contraposition,
    corrupted_tables,
    random_context,
    shuffled_table,
    shuffled_tables,
)
from oracle import (
    reference_bound_table,
    reference_check_axioms,
    reference_cubic_violations,
    reference_generated_subalgebra,
)

L6 = default_algebra()


def v(*coords):
    return TruthValue(tuple(coords))


class TestProductOrder:
    def test_bottom_below_everything(self):
        assert L6.leq(v(1, 1), v(2, 2))
        for x in L6.elements:
            assert L6.leq(L6.bottom, x)

    def test_incomparable_pair(self):
        assert not L6.leq(v(1, 2), v(3, 1))
        assert not L6.leq(v(3, 1), v(1, 2))

    def test_componentwise_comparison(self):
        assert L6.leq(v(2, 1), v(3, 1))

    def test_order_matches_implication(self):
        # x <= y exactly when imp(x, y) is top
        for x, y in itertools.product(L6.elements, repeat=2):
            assert L6.leq(x, y) == (L6.imp(x, y) == L6.top)


class TestMeetJoin:
    def test_meet_of_incomparables_is_bottom(self):
        assert L6.meet(v(1, 2), v(3, 1)) == v(1, 1)

    def test_top_is_meet_identity(self):
        for x in L6.elements:
            assert L6.meet(x, L6.top) == x

    def test_join_of_incomparables_is_top(self):
        assert L6.join(v(1, 2), v(3, 1)) == v(3, 2)

    def test_lattice_laws_exhaustive(self):
        for x, y in itertools.product(L6.elements, repeat=2):
            assert L6.meet(x, y) == L6.meet(y, x)
            assert L6.join(x, y) == L6.join(y, x)
            assert L6.meet(x, L6.join(x, y)) == x
            assert L6.join(x, L6.meet(x, y)) == x


class TestImplication:
    def test_bottom_implies_everything(self):
        for y in L6.elements:
            assert L6.imp(L6.bottom, y) == L6.top

    def test_chain_formula_cases(self):
        assert L6.imp(v(1, 2), v(1, 1)) == v(3, 1)
        assert L6.imp(v(3, 1), v(1, 2)) == v(1, 2)

    def test_top_is_left_identity(self):
        for y in L6.elements:
            assert L6.imp(L6.top, y) == y

    def test_meet_distributivity_in_second_argument(self):
        for x, y, z in itertools.product(L6.elements, repeat=3):
            assert L6.imp(x, L6.meet(y, z)) == L6.meet(L6.imp(x, y), L6.imp(x, z))


class TestNegation:
    def test_swaps_top_and_bottom(self):
        assert L6.neg(L6.top) == L6.bottom
        assert L6.neg(L6.bottom) == L6.top

    def test_coordinatewise(self):
        assert L6.neg(v(1, 2)) == v(3, 1)

    def test_involutive_and_antitone(self):
        for x in L6.elements:
            assert L6.neg(L6.neg(x)) == x
            assert L6.neg(x) == L6.imp(x, L6.bottom)
        for x, y in itertools.product(L6.elements, repeat=2):
            if L6.leq(x, y):
                assert L6.leq(L6.neg(y), L6.neg(x))


class TestProductConstruction:
    def test_default_is_six_elements(self):
        assert len(L6.elements) == 6
        assert L6.top == v(3, 2)
        assert L6.bottom == v(1, 1)

    def test_four_element_product(self):
        alg = ProductAlgebra([2, 2])
        assert len(alg.elements) == 4
        assert check_axioms(alg).passed

    def test_eight_element_product(self):
        alg = ProductAlgebra([4, 2])
        assert len(alg.elements) == 8
        assert check_axioms(alg).passed

    def test_three_factor_product(self):
        alg = ProductAlgebra([2, 3, 2])
        assert len(alg.elements) == 12
        assert check_axioms(alg).passed

    def test_chain_size_below_two_rejected(self):
        with pytest.raises(ValueError):
            ProductAlgebra([1, 2])
        with pytest.raises(ValueError):
            ProductAlgebra([])

    def test_element_limit_fails_before_building(self):
        with pytest.raises(BudgetError, match="27000 elements, over the limit of 512"):
            ProductAlgebra([30, 30, 30])
        with pytest.raises(BudgetError, match="576 elements"):
            ProductAlgebra([8, 8, 9])

    def test_element_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(lia, "PRODUCT_ELEMENT_LIMIT", 12)
        assert len(ProductAlgebra([2, 3, 2]).elements) == 12
        with pytest.raises(BudgetError):
            ProductAlgebra([2, 3, 3])

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            L6.imp(v(1, 1, 1), L6.top)
        with pytest.raises(DimensionError):
            L6.leq(v(9, 1), L6.top)

    def test_hasse_covers_of_default(self):
        covers = L6.hasse_covers()
        assert len(covers) == 7
        # covers differ in exactly one coordinate, by one step
        for low, high in covers:
            diffs = [b - a for a, b in zip(low.coords, high.coords)]
            assert sorted(diffs) == [0, 1]


class TestLinguisticLabels:
    def test_published_anchors(self):
        assert label_to_value(LinguisticLabel("Ab", "Tr"), L6) == v(3, 2)
        assert label_to_value(LinguisticLabel("Sl", "Fa"), L6) == v(3, 1)
        assert label_to_value(LinguisticLabel("Ab", "Fa"), L6) == v(1, 1)

    def test_round_trip_all_six(self):
        for x in L6.elements:
            assert label_to_value(label_from_value(x, L6), L6) == x

    def test_spellings(self):
        assert [L6.format_value(x) for x in L6.elements] == [
            "AbT", "VeT", "SlT", "SlF", "VeF", "AbF",
        ]
        for spelling in ("AbT", "VeT", "SlT", "SlF", "VeF", "AbF"):
            assert L6.format_value(L6.parse_value(spelling)) == spelling

    def test_rejected_on_other_algebras(self):
        with pytest.raises(ValueError):
            label_to_value(LinguisticLabel("Ab", "Tr"), ProductAlgebra([2, 2]))

    def test_bad_labels(self):
        with pytest.raises(ValueError, match="unknown modifier 'Xx'"):
            LinguisticLabel("Xx", "Tr")
        with pytest.raises(ValueError, match="unknown meta truth value 'Maybe'"):
            LinguisticLabel("Ab", "Maybe")
        with pytest.raises(ValueError, match="not a canonical label: 'Abt'"):
            LinguisticLabel.from_spelling("Abt")

    @pytest.mark.parametrize("spelling", ["AbT", "VeT", "SlT", "SlF", "VeF", "AbF"])
    def test_spelling_round_trip(self, spelling):
        label = LinguisticLabel.from_spelling(spelling)
        assert label.spelling == spelling
        assert LinguisticLabel(label.modifier, label.meta) == label
        assert label_from_value(label_to_value(label, L6), L6) == label


BOOL2 = (DATA_DIR / "bool2.lia").read_text()
CHAIN5 = (DATA_DIR / "chain5.lia").read_text()
BOOL16_BAD = (DATA_DIR / "bool16_bad.lia").read_text()

# laws that hold on every Algebra, so check_axioms does not test them
LAWS_BY_CONSTRUCTION = {
    "lia-2", "lia-4", "meet-idem", "join-idem", "meet-comm", "join-comm",
    "absorb-meet-join", "absorb-join-meet",
}


# the two-element Boolean algebra, in the table format and in memory
TWO = "elements O I\nimp O I I\nimp I O I\nneg O I\nneg I O\n"


def loaded(text):
    return lambda: load_table_algebra(text)


def built(imp=(), neg=(), drop=None):
    """TableAlgebra over O and I with extra implication and negation
    entries, and without the implication entry ``drop``."""
    table = {("O", "O"): "I", ("O", "I"): "I", ("I", "O"): "O", ("I", "I"): "I", **dict(imp)}
    table.pop(drop, None)
    return lambda: TableAlgebra(["O", "I"], table, {"O": "I", "I": "O", **dict(neg)})


class TestTableAlgebra:
    def test_chain5_loads(self):
        alg = load_table_algebra(CHAIN5)
        assert alg.element_names == ("O", "a", "b", "c", "I")
        assert alg.format_value(alg.top) == "I"
        assert alg.format_value(alg.bottom) == "O"
        # derived order is the chain O < a < b < c < I
        names = list(alg.element_names)
        for i, x in enumerate(names):
            for j, y in enumerate(names):
                assert alg.leq(alg.parse_value(x), alg.parse_value(y)) == (i <= j)

    def test_chain5_fails_axioms(self):
        report = check_axioms(load_table_algebra(CHAIN5))
        assert not report.passed
        laws = {law for law, _ in report.violations}
        assert laws == {"lia-1", "lia-5"}
        assert ("lia-1", ("b", "c", "a")) in report.violations

    def test_boolean_table_passes(self):
        report = check_axioms(load_table_algebra(BOOL2))
        assert report.passed
        assert report.violations == []

    def test_unknown_spelling_rejected(self):
        with pytest.raises(ValueError, match="^unknown element 'nope'$"):
            load_table_algebra(BOOL2).parse_value("nope")

    def test_corrupted_boolean_is_caught_with_witness(self):
        corrupted = BOOL2.replace("imp O I I", "imp O I O")
        report = check_axioms(load_table_algebra(corrupted))
        assert not report.passed
        assert ("meet-defined", ("O", "I")) in report.violations

    def test_partial_table_rejected(self):
        with pytest.raises(LoadError):
            load_table_algebra("elements O I\nimp O I I\nneg O I\nneg I O\n")

    def test_unknown_entry_rejected(self):
        with pytest.raises(LoadError):
            load_table_algebra("elements O I\nimp O I X\nimp I O I\nneg O I\nneg I O\n")

    def test_non_antisymmetric_order_rejected(self):
        text = "elements x y\nimp x y y\nimp y y y\nneg x y\nneg y x\n"
        with pytest.raises(LoadError, match="antisymmetric"):
            load_table_algebra(text)

    def test_non_reflexive_diagonal_rejected(self):
        text = "elements x y\nimp x x y\nimp y y y\nneg x y\nneg y x\n"
        with pytest.raises(LoadError, match="reflexive"):
            load_table_algebra(text)

    def test_meet_error_names_the_pair(self):
        # two incomparable atoms with no bottom: meet(a, b) has no bound
        text = (
            "elements a b I\n"
            "imp a I b I\n"
            "imp b a I I\n"
            "imp I a b I\n"
            "neg a b\nneg b a\nneg I I\n"
        )
        alg = load_table_algebra(text)
        with pytest.raises(StructureError, match=r"\(a, b\)"):
            alg.meet(alg.parse_value("a"), alg.parse_value("b"))
        with pytest.raises(StructureError, match="^the derived order has no least element$"):
            alg.bottom

    def test_pair_missing_one_bound_is_skipped_for_both(self):
        # the product 2 2 with imp(e11, e12) changed from top to e11: the pair
        # loses its meet but keeps its join, and the later laws skip the pair
        # for both operations
        text = (
            "elements e11 e12 e21 e22\n"
            "imp e11 e22 e11 e22 e22\n"
            "imp e12 e21 e22 e21 e22\n"
            "imp e21 e12 e12 e22 e22\n"
            "imp e22 e11 e12 e21 e22\n"
            "neg e11 e22\nneg e12 e21\nneg e21 e12\nneg e22 e11\n"
        )
        assert check_axioms(load_table_algebra(text)).violations == [
            ("bounded-bottom", ()),
            ("meet-defined", ("e11", "e12")),
            ("meet-defined", ("e12", "e11")),
            ("meet-defined", ("e12", "e21")),
            ("meet-defined", ("e21", "e12")),
            ("neg-antitone", ("e21", "e22")),
            ("lia-3", ("e11", "e12")),
            ("lia-5", ("e11", "e12")),
            ("lia-5", ("e12", "e11")),
            ("lia-3", ("e21", "e22")),
            ("lia-1", ("e11", "e12", "e12")),
            ("lia-1", ("e11", "e21", "e11")),
            ("lia-1", ("e11", "e21", "e12")),
            ("lia-1", ("e12", "e11", "e12")),
            ("lia-1", ("e21", "e11", "e11")),
            ("lia-1", ("e21", "e11", "e12")),
        ]

    def test_neg_line_naming_undeclared_element_rejected(self):
        text = "elements O I\nimp O I I\nimp I O I\nneg O I\nneg I O\nneg Z O\n"
        with pytest.raises(LoadError, match=r"line 6: .*'Z'") as err:
            load_table_algebra(text)
        assert err.value.line == 6

    @pytest.mark.parametrize(
        "imp_extra, neg_extra, key",
        [({("Z", "O"): "I"}, {}, r"\(Z, O\)"), ({}, {"Z": "O"}, "'Z'")],
        ids=["imp", "neg"],
    )
    def test_in_memory_entry_naming_undeclared_element_rejected(self, imp_extra, neg_extra, key):
        imp = {("O", "O"): "I", ("O", "I"): "I", ("I", "O"): "O", ("I", "I"): "I", **imp_extra}
        neg = {"O": "I", "I": "O", **neg_extra}
        with pytest.raises(LoadError, match=f"entry .*{key}.* undeclared"):
            TableAlgebra(["O", "I"], imp, neg)

    def test_the_loader_builds_what_the_dicts_build(self):
        # seeded shuffled tables of products, some with a corrupted entry
        # that still loads and some with one that does not: the loader and
        # the dict constructor agree, on the algebra or on the LoadError
        rng = random.Random(37)
        seen = Counter()
        for sizes in ([3, 2], [2, 2, 2], [4, 4], [3, 3, 3], [5, 2, 2]):
            for trial in range(6):
                names, imp, neg, _ = shuffled_tables(ProductAlgebra(sizes), rng)
                if trial % 3 == 1:
                    imp = break_contraposition(names, imp, neg, rng)
                elif trial % 3 == 2:
                    bad = rng.choice(["X", rng.choice(names)])
                    if rng.random() < 0.5:
                        imp[rng.choice(names), rng.choice(names)] = bad
                    else:
                        neg[rng.choice(names)] = bad
                outcomes = []
                for build in (lambda: load_table_algebra(table_text(names, imp, neg), "t.lia"),
                              lambda: TableAlgebra(names, imp, neg, "t.lia")):
                    try:
                        alg = build()
                    except LoadError as error:
                        outcomes.append(("error", str(error), error.line))
                    else:
                        outcomes.append((alg._imp, alg._neg, alg._spellings, alg.elements,
                                         alg.source))
                assert outcomes[0] == outcomes[1], (sizes, trial)
                seen[outcomes[0][0] == "error"] += 1
        assert seen[True] and seen[False], seen

    @pytest.mark.parametrize("build, message, line", [
        # load_table_algebra
        (loaded("elements O I\nelements O I\n"), "duplicate 'elements' line", 2),
        (loaded("elements\n"), "'elements' needs at least one name", 1),
        (loaded("imp O I I\n"), "'imp' before 'elements'", 1),
        (loaded("elements O I\nimp O I\n"), "'imp' row needs a row name and 2 values", 2),
        (loaded("neg O I\n"), "'neg' before 'elements'", 1),
        (loaded("elements O I\nneg O\n"), "'neg' takes exactly a name and a value", 2),
        (loaded("elements O I\ntop I\n"), "unknown directive 'top'", 2),
        (loaded("# empty\n"), "missing 'elements' line", None),
        (loaded("elements O I\nimp O I I\nneg O I\nneg I O\n"),
         "expected 2 'imp' rows, found 1", None),
        (loaded("elements O I\nimp I O I\nimp O I I\nneg O I\nneg I O\n"),
         "'imp' rows must follow the declared order; expected 'O'", 2),
        (loaded(TWO + "neg Z O\n"), "'neg' line names undeclared element 'Z'", 6),
        (loaded(TWO + "neg O I\n"), "duplicate 'neg' line for 'O'", 6),
        # TableAlgebra, through the loader
        (loaded("elements O O\nimp O O O\nimp O O O\nneg O O\n"),
         "duplicate element name in ['O', 'O']", None),
        (loaded(TWO.replace("imp O I I", "imp O I X")),
         "implication entry (O, I) = 'X' is not an element", None),
        (loaded(TWO.replace("neg I O\n", "")), "negation table is missing entry for I", None),
        (loaded(TWO.replace("neg I O", "neg I X")),
         "negation entry I -> 'X' is not an element", None),
        # TableAlgebra, in memory
        (lambda: TableAlgebra([], {}, {}), "a table algebra needs at least one element", None),
        (built(imp={("Z", "O"): "I"}),
         "implication entry (Z, O) names an undeclared element", None),
        (built(neg={"Z": "O"}), "negation entry for 'Z' names an undeclared element", None),
        (built(drop=("O", "I")), "implication table is missing entry (O, I)", None),
        # Algebra, on the derived order
        (loaded("elements x y\nimp x x y\nimp y y y\nneg x y\nneg y x\n"),
         "derived order is not reflexive: the diagonal takes values ['x', 'y'] "
         "instead of a single top element", None),
        (loaded("elements x y\nimp x y y\nimp y y y\nneg x y\nneg y x\n"),
         "derived order is not antisymmetric: x and y lie below each other", None),
    ])
    def test_load_errors_name_their_cause(self, build, message, line):
        with pytest.raises(LoadError) as caught:
            build()
        assert str(caught.value) == (message if line is None else f"line {line}: {message}")
        assert caught.value.line == line


class TestAxiomChecker:
    @pytest.mark.parametrize("sizes", [[2, 2], [3, 2], [4, 2], [5, 2]])
    def test_products_pass(self, sizes):
        report = check_axioms(ProductAlgebra(sizes))
        assert report.passed

    def test_budget_guard(self, monkeypatch):
        # the budget bounds the law check alone: a certified algebra passes
        # at any size, and one the certificate refuses raises over it
        assert check_axioms(ProductAlgebra([5, 26])).passed
        with pytest.raises(BudgetError, match="130 elements exceed the axiom-check budget of 128"):
            check_axioms(TableAlgebra(*corrupted_tables(ProductAlgebra([5, 26]), 130)))
        assert check_axioms(ProductAlgebra([4, 4, 4])).passed
        assert check_axioms(ProductAlgebra([2] * 7)).passed
        # the budget is read at call time and is inclusive
        corrupted = TableAlgebra(*corrupted_tables(ProductAlgebra([3, 3]), 9))
        monkeypatch.setattr(lia, "DEFAULT_AXIOM_BUDGET", 9)
        assert not check_axioms(corrupted).passed
        monkeypatch.setattr(lia, "DEFAULT_AXIOM_BUDGET", 8)
        with pytest.raises(BudgetError, match="9 elements exceed the axiom-check budget of 8"):
            check_axioms(corrupted)

    def test_matches_the_reference_check(self):
        # shuffled table copies of products with a few corrupted entries:
        # the violation lists, witnesses and their order included, must be
        # those of the check that ran through the public operations
        rng = random.Random(2012)
        cases = []
        for _ in range(200):
            alg = ProductAlgebra(rng.choice([[2, 2], [3, 2], [2, 2, 2], [3, 3], [4, 2]]))
            names, imp, neg, _ = shuffled_tables(alg, rng)
            for _ in range(rng.randint(0, 6)):
                imp[rng.choice(names), rng.choice(names)] = rng.choice(names)
            if rng.random() < 0.3:
                neg[rng.choice(names)] = rng.choice(names)
            cases.append((names, imp, neg))
        # 16-27 elements, each with one contraposition-breaking entry: the
        # order is unchanged, so every bound exists and the screen runs
        for sizes in ([4, 4], [2, 2, 2, 2], [5, 5], [3, 3, 3]):
            names, imp, neg, _ = shuffled_tables(ProductAlgebra(sizes), rng)
            cases.append((names, break_contraposition(names, imp, neg, rng), neg))
        outcomes = Counter()
        for case, (names, imp, neg) in enumerate(cases):
            try:
                table = TableAlgebra(names, imp, neg)
            except LoadError:
                outcomes["load-error"] += 1
                continue
            violations = check_axioms(table).violations
            assert violations == reference_check_axioms(table).violations, case
            laws = {law for law, _ in violations}
            outcomes["fail" if violations else "pass"] += 1
            outcomes["undefined-bound"] += bool(laws & {"meet-defined", "join-defined"})
            outcomes["unbounded"] += bool(laws & {"bounded-top", "bounded-bottom"})
            # cubic violations, on tables with a missing bound too, where
            # the sentinel masks the cells that read it
            cubic = sum(len(witness) == 3 for _, witness in violations)
            outcomes["cubic"] += cubic
            if laws & {"meet-defined", "join-defined"}:
                outcomes["cubic-with-undefined-bound"] += cubic
        kinds = ("pass", "fail", "undefined-bound", "unbounded", "cubic",
                 "cubic-with-undefined-bound")
        assert all(outcomes[k] for k in kinds), outcomes


    def test_laws_left_out_hold_on_every_loadable_table(self):
        # the eight laws check_axioms does not test hold on every Algebra by
        # construction: the reference check, which tests them, never
        # reports one, here or on any table that loads
        rng = random.Random(14)
        cases = [load_table_algebra(CHAIN5), load_table_algebra(BOOL16_BAD)]
        for sizes in ([2, 2], [3, 2], [4], [2, 2, 2], [3, 3], [4, 2]):
            cases.append(ProductAlgebra(sizes))
            names, imp, neg, _ = shuffled_tables(ProductAlgebra(sizes), rng)
            cases.append(TableAlgebra(names, imp, neg))
            for _ in range(20):
                names, imp, neg, _ = shuffled_tables(ProductAlgebra(sizes), rng)
                for _ in range(rng.randint(1, 4)):
                    imp[rng.choice(names), rng.choice(names)] = rng.choice(names)
                if rng.random() < 0.3:
                    neg[rng.choice(names)] = rng.choice(names)
                cases.append((names, imp, neg))
        for _ in range(300):
            names = [f"e{i}" for i in range(rng.randint(3, 5))]
            top = rng.choice(names)
            imp = {(x, y): top if x == y else rng.choice(names) for x in names for y in names}
            cases.append((names, imp, {x: rng.choice(names) for x in names}))
        seen = Counter()
        for case in cases:
            if isinstance(case, tuple):
                try:
                    case = TableAlgebra(*case)
                except LoadError:
                    seen["load-error"] += 1
                    continue
            violations = reference_check_axioms(case).violations
            laws = {law for law, _ in violations}
            assert not laws & LAWS_BY_CONSTRUCTION, (case, laws)
            assert check_axioms(case).violations == violations
            seen["fail" if violations else "pass"] += 1
            seen["missing-bound"] += bool(laws & {"meet-defined", "join-defined"})
        assert seen["pass"] + seen["fail"] >= 250, seen
        assert seen["pass"] and seen["missing-bound"] and seen["load-error"], seen

    @pytest.mark.parametrize("sizes", [[3, 2], [2, 2, 2], [3, 3], [4, 4]])
    def test_screen_flags_exactly_the_cells_with_cubic_violations(self, sizes):
        # one entry of the implication, meet or join table of a product
        # changed at random, so that each law in turn is the only one to
        # fail on some cell: the cubic pass must name the violations the
        # exact per-cell check finds, laws, witnesses and order included,
        # and no other. Every other trial also puts None, a missing bound,
        # into a meet or join cell, which the exact check skips and the
        # pass must not report
        alg = ProductAlgebra(sizes)
        n = len(alg.elements)
        rng = random.Random(n)
        names = alg._spellings
        for trial in range(100):
            tables = [[list(row) for row in table] for table in (alg._imp, alg._meet, alg._join)]
            rng.choice(tables)[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            if trial % 2:
                rng.choice(tables[1:])[rng.randrange(n)][rng.randrange(n)] = None
            imp, meet, join = tables
            found = [
                (law, (names[x], names[y], names[z]))
                for law, x, y, z in lia._cubic_violations(imp, meet, join)
            ]
            assert found == reference_cubic_violations(imp, meet, join, names), trial

    def test_the_budget_keeps_every_position_in_a_byte(self, monkeypatch):
        # the cubic pass encodes positions and the missing-bound sentinel n
        # as single bytes, so check_axioms holds n to 255 whatever the
        # budget: raised past it, the budget still refuses 256 elements with
        # BudgetError, naming the cap, before the pass runs
        corrupted = TableAlgebra(*corrupted_tables(ProductAlgebra([2] * 8), 256))
        for budget in (256, 300):
            monkeypatch.setattr(lia, "DEFAULT_AXIOM_BUDGET", budget)
            with pytest.raises(BudgetError) as caught:
                check_axioms(corrupted)
            assert str(caught.value) == "256 elements exceed the axiom-check one-byte cap of 255"
        monkeypatch.setattr(lia, "DEFAULT_AXIOM_BUDGET", 255)
        with pytest.raises(BudgetError, match="^256 elements exceed the axiom-check budget of 255"):
            check_axioms(corrupted)


def assert_bounds_by_definition(alg):
    """``alg``'s meet and join tables are the greatest common lower and
    least common upper bounds that brute force over ``leq`` finds."""
    els = alg.elements
    for table, upper in ((alg._meet, False), (alg._join, True)):
        values = [[None if k is None else els[k] for k in row] for row in table]
        assert values == reference_bound_table(alg, upper=upper)


def random_tables(rng, count, sizes):
    """``count`` random tables, each over a number of elements drawn from
    ``sizes``, with a constant diagonal so that most of them load."""
    for _ in range(count):
        names = [f"e{i}" for i in range(rng.choice(sizes))]
        top = rng.choice(names)
        imp = {(x, y): top if x == y else rng.choice(names) for x in names for y in names}
        yield names, imp, {x: rng.choice(names) for x in names}


class TestBoundTables:
    @pytest.mark.parametrize("name", sorted(path.name for path in DATA_DIR.glob("*.lia")))
    def test_every_data_table(self, name):
        assert_bounds_by_definition(load_table_algebra((DATA_DIR / name).read_text()))

    @pytest.mark.parametrize("sizes", [[3, 2], [5], [2, 2, 2], [3, 3, 2], [4, 4]])
    def test_products_and_their_shuffled_copies(self, sizes):
        alg = ProductAlgebra(sizes)
        assert_bounds_by_definition(alg)
        assert_bounds_by_definition(shuffled_table(alg, seed=len(alg.elements))[0])

    def test_random_tables_through_the_lookup_and_the_fallback(self):
        # a cell whose common down-set is some element's down-set is a hit
        # of the lookup; any other cell is searched, and on a non-transitive
        # order that search can still find a bound
        seen = Counter()
        for names, imp, neg in random_tables(random.Random(25), 300, range(3, 7)):
            try:
                alg = TableAlgebra(names, imp, neg)
            except LoadError:
                continue
            assert_bounds_by_definition(alg)
            masks = set(alg._down)
            for i, j in itertools.product(range(len(names)), repeat=2):
                if alg._down[i] & alg._down[j] in masks:
                    seen["hit"] += 1
                else:
                    seen["no bound" if alg._meet[i][j] is None else "searched bound"] += 1
        assert seen["hit"] and seen["searched bound"] and seen["no bound"], seen


def table_text(names, imp, neg):
    """The table file of ``names`` and the dicts ``imp`` and ``neg``."""
    lines = ["elements " + " ".join(names)]
    lines += [f"imp {x} " + " ".join(imp[x, y] for y in names) for x in names]
    return "\n".join(lines + [f"neg {x} {neg[x]}" for x in names]) + "\n"


def assert_order_masks_read_the_implication(alg):
    # p <= q exactly where imp(p, q) is top, in both masks, on any table
    n = len(alg.elements)
    for p, q in itertools.product(range(n), repeat=2):
        below = alg._imp[p][q] == alg._top
        assert bool(alg._up[p] >> q & 1) == below == bool(alg._down[q] >> p & 1), (p, q)


class TestDeferredBoundTables:
    def test_the_algebra_path_and_a_full_scan_build_none(self):
        # what `ltvcl algebra --check-axioms --show-tables` runs on a product,
        # then a full-domain scan of product 3 2: neither reads meet or join
        for sizes in ([3, 2], [4, 4], [3, 3, 3], [3, 3, 3, 3, 2]):
            alg = ProductAlgebra(sizes)
            assert check_axioms(alg).passed
            assert [alg.format_value(x) for pair in alg.hasse_covers() for x in pair]
            assert not {"_meet", "_join"} & set(vars(alg)), sizes
        context = random_context(random.Random(6), ProductAlgebra([3, 2]), 3, 3)
        for engine in (EXTENT_SCAN, INTENT_SCAN):
            assert enumerate_concepts(context, engine, domain=FULL_DOMAIN)
        assert not {"_meet", "_join"} & set(vars(context.algebra))
        # the generated domain closes under meet and join, so it builds both
        enumerate_concepts(context, domain=GENERATED_DOMAIN)
        assert {"_meet", "_join"} <= set(vars(context.algebra))

    @pytest.mark.parametrize("name", [*sorted(ALGEBRAS), *sorted(WIDE_ALGEBRAS), "nojoin.lia",
                                      "nonlattice.lia", "bool16_bad.lia", "chain5.lia",
                                      "meet4.lia"])
    def test_a_first_read_builds_each_table_once(self, name):
        build = {**ALGEBRAS, **WIDE_ALGEBRAS}.get(
            name, lambda: load_table_algebra((DATA_DIR / name).read_text(encoding="utf-8")))
        alg = build()
        assert_order_masks_read_the_implication(alg)
        for attr, masks in (("_meet", alg._down), ("_join", alg._up)):
            assert attr not in vars(alg)
            table = getattr(alg, attr)
            assert table == lia._meet_table(masks)
            assert vars(alg)[attr] is table is getattr(alg, attr)


class TestLukasiewiczCertificate:
    def test_products_and_their_shuffled_copies_are_certified(self):
        rng = random.Random(128)
        listed = [[2], [7], [128], [3, 2], [2, 3], [2, 2, 2], [3, 3, 3], [4, 4, 4],
                  [2] * 7, [5, 5, 5], [8, 16], [2, 4, 2, 8]]
        for _ in range(12):
            sizes = [rng.randint(2, 6)]
            while math.prod(sizes) * 2 <= 128 and rng.random() < 0.7:
                sizes.append(rng.randint(2, 128 // math.prod(sizes)))
            listed.append(sizes)
        for sizes in listed:
            alg = ProductAlgebra(sizes)
            assert alg._is_lia, sizes
            names, imp, neg, _ = shuffled_tables(alg, rng)
            assert TableAlgebra(names, imp, neg)._is_lia, sizes

    @pytest.mark.parametrize("sizes", [[3, 2], [2, 2], [4], [2, 2, 2], [3, 3]])
    def test_no_table_with_one_changed_entry_is_certified(self, sizes):
        # every single change of one implication or one negation entry of a
        # shuffled product that still loads: none is certified, and the law
        # check behind the certificate fails each one
        names, imp, neg, _ = shuffled_tables(ProductAlgebra(sizes), random.Random(len(sizes)))
        variants = [({**imp, key: v}, neg) for key in imp for v in names if v != imp[key]]
        variants += [(imp, {**neg, x: v}) for x in names for v in names if v != neg[x]]
        seen = Counter()
        for bad_imp, bad_neg in variants:
            try:
                table = TableAlgebra(names, bad_imp, bad_neg)
            except LoadError:
                seen["load-error"] += 1
                continue
            assert not table._is_lia
            assert not check_axioms(table).passed
            seen["imp" if bad_neg is neg else "neg"] += 1
        assert seen["imp"] and seen["neg"], seen

    @pytest.mark.parametrize("name", [*sorted(ALGEBRAS), *sorted(WIDE_ALGEBRAS),
                                      *sorted(p.name for p in DATA_DIR.glob("*.lia"))])
    def test_the_gate_agrees_with_the_checker(self, name):
        build = {**ALGEBRAS, **WIDE_ALGEBRAS}.get(
            name, lambda: load_table_algebra((DATA_DIR / name).read_text(encoding="utf-8")))
        assert build()._is_lia is check_axioms(build()).passed

    @pytest.mark.parametrize("sizes", [[3, 3, 3, 3, 2], [4, 4, 4, 4]])
    def test_tables_over_the_budget_are_decided(self, sizes):
        # 162 and 256 elements: a shuffled copy is certified and passes;
        # its one-entry corruption is refused, and the law check it would
        # need is over the budget
        product = ProductAlgebra(sizes)
        n = len(product.elements)
        assert n > lia.DEFAULT_AXIOM_BUDGET
        copy = shuffled_table(product, n)[0]
        assert copy._is_lia is True
        assert check_axioms(copy).passed
        corrupted = TableAlgebra(*corrupted_tables(product, n))
        assert corrupted._is_lia is False
        with pytest.raises(BudgetError, match=f"{n} elements exceed the axiom-check budget"):
            check_axioms(corrupted)

    @pytest.mark.parametrize("sizes", [[3, 2], [2, 2], [3, 3, 2, 2, 2], [3, 3, 3, 3, 2]])
    def test_the_proof_is_the_renaming(self, sizes):
        # a shuffled copy's proof takes each element to the position in
        # ProductAlgebra(found sizes) of the product value it renames, up to
        # an order of the chains: chains of one size may change places,
        # which are the only automorphisms of a product of chains; a
        # one-entry corruption has no proof, and a product holds its own
        product = ProductAlgebra(sizes)
        n = len(product.elements)
        assert product._chains == (tuple(sizes), tuple(range(n)))
        copy, rename = shuffled_table(product, n)
        found, perm = proof = lia._lukasiewicz_factors(copy)
        assert copy._chains == proof
        target = ProductAlgebra(found).elements
        coords = [target[q].coords for q in perm]
        assert any(
            all(coords[copy._position(y)] == tuple(x.coords[i] for i in order)
                for x, y in rename.items())
            for order in itertools.permutations(range(len(sizes)))
        )
        rng = random.Random(n)
        names, imp, neg, _ = shuffled_tables(product, rng)
        broken = TableAlgebra(names, break_contraposition(names, imp, neg, rng), neg)
        assert lia._lukasiewicz_factors(broken) is None
        assert broken._chains is None and broken._is_lia is False

    def test_the_one_element_table_is_certified(self):
        one = TableAlgebra(["o"], {("o", "o"): "o"}, {"o": "o"})
        assert one._is_lia
        assert check_axioms(one).violations == reference_check_axioms(one).violations == []

    def test_small_tables_match_the_reference_check(self):
        # all 64 two-element tables, a seeded sample of three-element ones
        # and the six orders of the three-element chain: the certificate
        # holds exactly on the tables that pass, and the violations are
        # those of the exhaustive check
        two = ["a", "b"]
        cases = [
            (two, dict(zip(itertools.product(two, repeat=2), imp)), dict(zip(two, neg)))
            for imp in itertools.product(two, repeat=4) for neg in itertools.product(two, repeat=2)
        ]
        assert len(cases) == 64
        rng = random.Random(3)
        cases += random_tables(rng, 1500, [3])
        cases += [shuffled_tables(ProductAlgebra([3]), rng)[:3] for _ in range(6)]
        seen = Counter()
        for names, imp, neg in cases:
            try:
                table = TableAlgebra(names, imp, neg)
            except LoadError:
                continue
            violations = check_axioms(table).violations
            assert violations == reference_check_axioms(table).violations, (names, imp, neg)
            assert table._is_lia == (not violations), (names, imp, neg)
            seen[len(names), not violations] += 1
        assert all(seen[k] for k in ((2, True), (2, False), (3, True), (3, False))), seen


# Reference Lukasiewicz operations on coordinate tuples, written out here so
# the tables are checked against the formulas, not against themselves.
def ref_leq(x, y):
    return all(a <= b for a, b in zip(x, y))


def ref_meet(x, y):
    return tuple(min(a, b) for a, b in zip(x, y))


def ref_join(x, y):
    return tuple(max(a, b) for a, b in zip(x, y))


def ref_imp(sizes, x, y):
    return tuple(min(n - a + b, n) for a, b, n in zip(x, y, sizes))


def ref_neg(sizes, x):
    return tuple(n + 1 - a for a, n in zip(x, sizes))


OP_SIZES = [[3, 2], [2, 2], [4, 2], [2, 3, 2], [3, 3, 3]]


class TestTableBackedOps:
    @pytest.mark.parametrize("sizes", OP_SIZES)
    def test_product_ops_match_the_formulas(self, sizes):
        alg = ProductAlgebra(sizes)
        coords = list(itertools.product(*[range(1, n + 1) for n in sizes]))
        assert sorted(x.coords for x in alg.elements) == sorted(coords)
        assert alg.top.coords == tuple(sizes)
        assert alg.bottom.coords == (1,) * len(sizes)
        for x in alg.elements:
            assert alg.neg(x).coords == ref_neg(sizes, x.coords)
            for y in alg.elements:
                assert alg.leq(x, y) == ref_leq(x.coords, y.coords)
                assert alg.meet(x, y).coords == ref_meet(x.coords, y.coords)
                assert alg.join(x, y).coords == ref_join(x.coords, y.coords)
                assert alg.imp(x, y).coords == ref_imp(sizes, x.coords, y.coords)

    @pytest.mark.parametrize("sizes", [[2] * 9, [8, 8, 8], [4, 4, 4, 2]])
    def test_factor_fold_matches_the_formulas_up_to_the_limit(self, sizes):
        # the position tables themselves, on products up to 512 elements;
        # display order runs top-down, later factors first
        alg = ProductAlgebra(sizes)
        coords = [x.coords for x in alg.elements]
        assert coords == sorted(itertools.product(*[range(1, n + 1) for n in sizes]),
                                key=lambda c: c[::-1], reverse=True)
        at = {c: i for i, c in enumerate(coords)}
        assert list(alg._neg) == [at[ref_neg(sizes, x)] for x in coords]
        for x, imp, meet, join in zip(coords, alg._imp, alg._meet, alg._join):
            assert list(imp) == [at[ref_imp(sizes, x, y)] for y in coords]
            assert meet == [at[ref_meet(x, y)] for y in coords]
            assert join == [at[ref_join(x, y)] for y in coords]

    @pytest.mark.parametrize("sizes", OP_SIZES)
    def test_shuffled_table_copy_agrees_under_renaming(self, sizes):
        alg = ProductAlgebra(sizes)
        table, rename = shuffled_table(alg, seed=sum(sizes))
        assert table.top == rename[alg.top]
        assert table.bottom == rename[alg.bottom]
        for x in alg.elements:
            assert table.neg(rename[x]) == rename[alg.neg(x)]
            for y in alg.elements:
                rx, ry = rename[x], rename[y]
                assert table.leq(rx, ry) == alg.leq(x, y)
                assert table.meet(rx, ry) == rename[alg.meet(x, y)]
                assert table.join(rx, ry) == rename[alg.join(x, y)]
                assert table.imp(rx, ry) == rename[alg.imp(x, y)]
        covers = {(rename[x], rename[y]) for x, y in alg.hasse_covers()}
        assert set(table.hasse_covers()) == covers

    @pytest.mark.parametrize("build", [
        lambda: ProductAlgebra([3, 2]),
        lambda: ProductAlgebra([2, 3, 2]),
        lambda: load_table_algebra(BOOL2),
        lambda: load_table_algebra(CHAIN5),
    ], ids=["product-3-2", "product-2-3-2", "bool2", "chain5"])
    def test_hasse_covers_are_the_transitive_reduction(self, build):
        alg = build()
        els = alg.elements
        order = {(x, y) for x in els for y in els if x != y and alg.leq(x, y)}
        expected = [
            (x, y) for x in els for y in els
            if (x, y) in order and not any((x, z) in order and (z, y) in order for z in els)
        ]
        assert list(alg.hasse_covers()) == expected

    @pytest.mark.parametrize("build", [
        lambda: ProductAlgebra([3, 2]),
        lambda: load_table_algebra(BOOL2),
    ], ids=["product", "table"])
    @pytest.mark.parametrize("stranger", [v(9, 1), v(1, 1, 1), v(7), "AbT", [1, 1]],
                             ids=["range", "arity", "index", "str", "unhashable"])
    def test_non_member_raises_dimension_error(self, build, stranger):
        alg = build()
        x = alg.top
        for call in (
            lambda: alg.leq(stranger, x),
            lambda: alg.leq(x, stranger),
            lambda: alg.meet(stranger, x),
            lambda: alg.meet(x, stranger),
            lambda: alg.join(stranger, x),
            lambda: alg.join(x, stranger),
            lambda: alg.imp(stranger, x),
            lambda: alg.imp(x, stranger),
            lambda: alg.neg(stranger),
        ):
            with pytest.raises(DimensionError):
                call()


class TruthValueSubclass(TruthValue):
    pass


class CoordsOnly:
    """Not a TruthValue, but it carries the coordinates of the default top."""

    coords = (3, 2)

    def __repr__(self) -> str:
        return "CoordsOnly((3, 2))"


class TestPositionLookup:
    """Values map to positions by their coordinates; whatever is not a
    plain element raises, naming the first stranger."""

    def test_equal_values_map_to_the_canonical_positions(self):
        alg = ProductAlgebra([3, 2])
        other = ProductAlgebra([3, 2])
        assert alg._positions([TruthValue((3, 2))]) == (alg._top,)
        assert alg._positions([TruthValue(x.coords) for x in alg.elements]) == tuple(range(6))
        assert alg._positions(other.elements) == tuple(range(6))
        assert all(alg._has(x) for x in other.elements)
        assert alg._positions(()) == ()
        table = load_table_algebra(BOOL2)
        assert table._positions([TruthValue((2,)), TruthValue((1,))]) == (1, 0)

    @pytest.mark.parametrize("stranger, shown", [
        (TruthValue((9, 1)), "TruthValue((9, 1))"),
        ([3, 2], "[3, 2]"),
        (TruthValue([3, 2]), "TruthValue([3, 2])"),
        (CoordsOnly(), "CoordsOnly((3, 2))"),
        (TruthValueSubclass((3, 2)), "TruthValue((3, 2))"),
    ], ids=["non-element", "unhashable", "unhashable-coords", "coords-attribute", "subclass"])
    def test_non_elements_raise_the_same_dimension_error(self, stranger, shown):
        alg = ProductAlgebra([3, 2])
        context = FuzzyContext(alg, ("g1", "g2"), ("m1",), ((alg.top,), (alg.bottom,)))
        for call in (
            lambda: alg._positions((alg.top, stranger)),
            lambda: alg._positions((stranger, alg.top)),
            lambda: alg.check_member(stranger),
            lambda: derive_intent(context, object_set((alg.top, stranger))),
            *(lambda op=op: op(alg.top, stranger) for op in (alg.leq, alg.meet, alg.join, alg.imp)),
            *(lambda op=op: op(stranger, alg.top) for op in (alg.leq, alg.meet, alg.join, alg.imp)),
            lambda: alg.neg(stranger),
            lambda: alg.format_value(stranger),
        ):
            with pytest.raises(DimensionError) as err:
                call()
            assert str(err.value) == f"{shown} is not an element of ProductAlgebra([3, 2])"
        assert not alg._has(stranger)

        # a concept holding the stranger belongs to no lattice
        lattice = enumerate_concepts(context)
        held = Concept(object_set((alg.top, stranger)), lattice[0].intent)
        for call in (
            lambda: lattice.index_of(held),
            lambda: lattice.leq(held, lattice[0]),
            lambda: lattice.leq(lattice[0], held),
        ):
            with pytest.raises(MembershipError, match="concept does not belong to this lattice"):
                call()


# Every algebra the suite enumerates over, a shuffled two-byte table and a
# three-byte chain, with their numbers of join-irreducibles
ENCODED = {
    **ALGEBRAS,
    **WIDE_ALGEBRAS,
    "shuffled product 4 4 4": lambda: shuffled_table(ProductAlgebra([4, 4, 4]), 4)[0],
    "product 20": lambda: ProductAlgebra([20]),
}
IRREDUCIBLES = {
    "product 3 2": 3, "product 2 2": 2, "product 4": 3, "product 2 3 2": 4, "product 3 3": 4,
    "bool2": 1, "seeded-order": 3, "chain5": 4, "product 4 4 4": 9, "product 12": 11,
    "shuffled product 4 4 4": 9, "product 20": 19,
}


class TestVectorCode:
    @pytest.mark.parametrize("name", sorted(ENCODED))
    def test_code_is_an_order_embedding_that_maps_meets_to_and(self, name):
        algebra = ENCODED[name]()
        encoding, n = algebra._code, len(algebra.elements)
        code = encoding.code
        assert_order_masks_read_the_implication(algebra)
        assert len(set(code)) == n
        assert bin(code[algebra._top]).count("1") == IRREDUCIBLES[name]
        assert encoding.block == -(-IRREDUCIBLES[name] // 8)
        for p, q in itertools.product(range(n), repeat=2):
            assert bool(algebra._up[p] >> q & 1) == (code[p] & ~code[q] == 0)
            assert code[algebra._meet[p][q]] == code[p] & code[q]

    @pytest.mark.parametrize("name", sorted(ENCODED))
    def test_vectors_decode_and_meet_by_and(self, name):
        algebra = ENCODED[name]()
        encoding, n = algebra._code, len(algebra.elements)
        rng = random.Random(name)
        for length in (0, 1, 2, 7):
            assert encoding.decode(encoding.top(length), length) == (algebra._top,) * length
            for _ in range(30):
                u = tuple(rng.randrange(n) for _ in range(length))
                w = tuple(rng.randrange(n) for _ in range(length))
                assert encoding.decode(encoding.encode(u), length) == u
                meet = encoding.encode(u) & encoding.encode(w)
                assert encoding.decode(meet, length) == tuple(
                    algebra._meet[p][q] for p, q in zip(u, w)
                )


CLOSED = {**ALGEBRAS, **WIDE_ALGEBRAS}


class TestGeneratedSubalgebra:
    @pytest.mark.parametrize("name", sorted(CLOSED))
    def test_matches_the_value_closure(self, name):
        algebra = CLOSED[name]()
        rng = random.Random(name)
        els = algebra.elements
        for size in (0, 0, 1, 1, 2, 2, 3, len(els)):
            values = rng.sample(els, min(size, len(els)))
            assert algebra.generated_subalgebra(values) == reference_generated_subalgebra(
                algebra, values
            )
        foreign = TruthValue((99,) * len(algebra.top.coords))
        values = rng.sample(els, 2)
        values.insert(1, foreign)
        messages = []
        for close in (algebra.generated_subalgebra,
                      lambda vs: reference_generated_subalgebra(algebra, vs)):
            with pytest.raises(DimensionError) as err:
                close(values)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == f"{foreign!r} is not an element of {algebra!r}"

    @pytest.mark.parametrize("names, message", [
        ("c d", "no unique greatest lower bound for (c, d)"),
        ("d c", "no unique greatest lower bound for (c, d)"),
        ("a b", "no unique least upper bound for (a, b)"),
    ])
    def test_names_the_first_missing_bound_in_display_order(self, names, message):
        # the first pair of the closure reached so far with no meet, else
        # with no join, as _lattice_fault and check_axioms name them
        algebra = load_table_algebra(NON_LATTICE)
        with pytest.raises(StructureError) as err:
            algebra.generated_subalgebra([algebra.parse_value(n) for n in names.split()])
        assert str(err.value) == f"{message}: the derived order is not a lattice"

import functools
import re

import pytest

from ltvcl import (
    AttributeProvenance,
    BudgetError,
    DimensionError,
    ExtensionConfig,
    FuzzyContext,
    ParseError,
    StructureError,
    TruthValue,
    default_algebra,
    extend_context,
    load_table_algebra,
    parse_context,
    restrict_agrees,
    serialize_context,
)
from ltvcl import lia
from conftest import ALGEBRAS, DATA_DIR, NON_LATTICE


def labels(context, column_name):
    col = context.columns[context.attribute_index(column_name)]
    return tuple(context.algebra.format_value(v) for v in col)


class TestParse:
    def test_demo_file(self, demo):
        assert demo.objects == ("g1", "g2")
        assert demo.attributes == ("m1", "m2", "m3")
        assert labels(demo, "m1") == ("SlT", "SlF")
        assert labels(demo, "m2") == ("SlF", "AbF")
        assert labels(demo, "m3") == ("AbT", "SlT")
        assert all(p.kind == "original" for p in demo.provenance)

    def test_empty_object_section(self):
        ctx = parse_context("algebra product 3 2\nattributes m1 m2\n")
        assert ctx.objects == ()
        assert ctx.attributes == ("m1", "m2")

    def test_ragged_row(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_context("algebra product 3 2\nattributes m1 m2 m3\ng1 AbT AbF\n")

    def test_unknown_label(self):
        with pytest.raises(ParseError, match="nope"):
            parse_context("algebra product 3 2\nattributes m1\ng1 nope\n")

    def test_duplicate_names(self):
        with pytest.raises(ParseError, match="duplicate object"):
            parse_context("algebra product 3 2\nattributes m1\ng1 AbT\ng1 AbF\n")
        with pytest.raises(ParseError, match="duplicate attribute"):
            parse_context("algebra product 3 2\nattributes m1 m1\n")

    def test_label_algebra_mismatch(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_context("algebra product 2 2\nattributes m1\ng1 AbT\n")

    def test_product_over_element_limit(self):
        with pytest.raises(BudgetError, match="27000 elements"):
            parse_context("algebra product 30 30 30\nattributes m1\n")

    def test_coordinate_tokens(self):
        ctx = parse_context("algebra product 4 2\nattributes m1 m2\ng1 4,2 1,1\n")
        assert ctx.rows[0][0].coords == (4, 2)

    def test_alias_rules(self):
        with pytest.raises(ParseError, match="duplicate alias"):
            parse_context("algebra product 3 2\nalias a=SlT a=SlF\nattributes m1\n")
        with pytest.raises(ParseError, match="precede"):
            parse_context("algebra product 3 2\nattributes m1\nalias a=SlT\n")

    def test_algebra_line_required_first(self):
        with pytest.raises(ParseError):
            parse_context("attributes m1\n")
        with pytest.raises(ParseError, match="missing 'algebra'"):
            parse_context("# just a comment\n")

    def test_table_backed_context(self):
        ctx = parse_context(
            "algebra table chain5.lia\nattributes m1 m2\ng1 b I\n",
            base_dir=str(DATA_DIR),
        )
        assert ctx.algebra.element_names == ("O", "a", "b", "c", "I")
        assert labels(ctx, "m1") == ("b",)


class TestSerialize:
    def test_round_trip_demo(self, demo):
        text = serialize_context(demo)
        again = parse_context(text)
        assert again == demo
        assert serialize_context(again) == text

    def test_extension_carries_provenance_comments(self, demo):
        text = serialize_context(extend_context(demo))
        assert "# m4 = meet(m1,m2)" in text
        assert "# m6 = top" in text
        # comments are for readers only; reparsing yields plain data columns
        again = parse_context(text)
        assert all(p.kind == "original" for p in again.provenance)

    def test_in_memory_table_algebra_cannot_be_serialized(self):
        alg = load_table_algebra((DATA_DIR / "bool2.lia").read_text())
        ctx = FuzzyContext(alg, ("g1",), ("m1",), ((alg.top,),))
        with pytest.raises(ValueError, match="in memory"):
            serialize_context(ctx)

    @pytest.mark.parametrize("source", ["my tables/bool2.lia", "x#y.lia", "tab\tle.lia", ""])
    def test_table_paths_the_format_cannot_carry_are_refused(self, source):
        # 'my tables/bool2.lia' used to serialize to a line the parser
        # refuses, and 'x#y.lia' to one it reads back as the path 'x'
        alg = load_table_algebra((DATA_DIR / "bool2.lia").read_text(), source=source)
        ctx = FuzzyContext(alg, ("g1",), ("m1",), ((alg.top,),))
        with pytest.raises(ValueError, match=re.escape(f"table path {source!r}")):
            serialize_context(ctx)

    def test_table_path_round_trips(self):
        text = "algebra table bool2.lia\nattributes m1\ng1 I\n"
        ctx = parse_context(text, base_dir=DATA_DIR)
        assert serialize_context(ctx) == text
        assert parse_context(serialize_context(ctx), base_dir=DATA_DIR) == ctx

    @pytest.mark.parametrize(
        "objects, attributes, bad",
        [
            (("g1",), ("m#1",), "attribute name 'm#1'"),
            (("g1",), ("m 1",), "attribute name 'm 1'"),
            (("g1",), ("",), "attribute name ''"),
            (("alias",), ("m1",), "object name 'alias'"),
            (("attributes",), ("m1",), "object name 'attributes'"),
            (("algebra",), ("m1",), "object name 'algebra'"),
            (("g\t1",), ("m1",), "object name 'g\\t1'"),
            (("g#",), ("m1",), "object name 'g#'"),
        ],
    )
    def test_names_the_format_cannot_carry_are_refused(self, objects, attributes, bad):
        # each of these used to serialize, then parse back as another
        # context (m#1 as m) or not at all
        alg = default_algebra()
        ctx = FuzzyContext(alg, objects, attributes, ((alg.top,),))
        with pytest.raises(ValueError, match=re.escape(bad)):
            serialize_context(ctx)

    def test_directive_words_are_fine_as_attribute_names(self):
        alg = default_algebra()
        ctx = FuzzyContext(alg, ("g1",), ("algebra", "alias"), ((alg.top, alg.bottom),))
        assert parse_context(serialize_context(ctx)) == ctx

    def test_zero_attribute_context(self):
        ctx = parse_context("algebra product 3 2\nattributes\ng1\ng2\n")
        assert serialize_context(ctx) == "algebra product 3 2\nattributes\ng1\ng2\n"


class TestExtend:
    def test_defaults_on_demo(self, demo):
        ext = extend_context(demo)
        # pair meets in index order; meet(m2,m3) duplicates column m2 and is
        # dropped by the novelty filter; then the top column
        assert ext.attributes == ("m1", "m2", "m3", "m4", "m5", "m6")
        assert labels(ext, "m4") == ("AbF", "AbF")
        assert labels(ext, "m5") == ("SlT", "AbF")
        assert labels(ext, "m6") == ("AbT", "AbT")
        assert ext.provenance[3] == AttributeProvenance.meet_of((0, 1))
        assert ext.provenance[4] == AttributeProvenance.meet_of((0, 2))
        assert ext.provenance[5] == AttributeProvenance.constant_top()

    def test_every_meet_column_is_the_meet_of_its_sources(self, demo):
        ext = extend_context(demo, ExtensionConfig(max_meet_arity=3))
        alg = ext.algebra
        for m, prov in enumerate(ext.provenance):
            if prov.kind != "meet":
                continue
            for g in range(len(ext.objects)):
                expected = functools.reduce(
                    alg.meet, (ext.rows[g][s] for s in prov.sources), alg.top
                )
                assert ext.rows[g][m] == expected

    def test_novelty_filter_off_keeps_duplicates(self, demo):
        ext = extend_context(demo, ExtensionConfig(novelty_filter=False))
        assert len(ext.attributes) == 3 + 3 + 1
        assert labels(ext, "m6") == labels(ext, "m2")

    def test_columns_pairwise_distinct_with_filter_on(self, demo):
        ext = extend_context(demo, ExtensionConfig(max_meet_arity=3))
        columns = [ext.columns[m] for m in range(len(ext.attributes))]
        assert len(set(columns)) == len(columns)

    def test_identical_columns_collapse(self):
        alg = default_algebra()
        a = alg.parse_value("SlT")
        ctx = FuzzyContext(alg, ("g1",), ("m1", "m2"), ((a, a),))
        ext = extend_context(ctx)
        # meet(m1,m2) = m1 gets dropped; only the top column survives
        assert ext.attributes == ("m1", "m2", "m3")
        assert ext.provenance[2] == AttributeProvenance.constant_top()

    def test_single_attribute_context(self):
        alg = default_algebra()
        ctx = FuzzyContext(alg, ("g1",), ("m1",), ((alg.parse_value("SlF"),),))
        ext = extend_context(ctx)
        assert ext.attributes == ("m1", "m2")
        assert ext.provenance[1] == AttributeProvenance.constant_top()

    def test_explicit_subsets(self, demo):
        ext = extend_context(demo, ExtensionConfig(meet_subsets=((0, 1),)))
        assert ext.attributes == ("m1", "m2", "m3", "m4", "m5")
        assert labels(ext, "m4") == ("AbF", "AbF")
        assert labels(ext, "m5") == ("AbT", "AbT")

    def test_name_generation_skips_collisions(self):
        alg = default_algebra()
        a, b = alg.parse_value("SlT"), alg.parse_value("SlF")
        ctx = FuzzyContext(alg, ("g1",), ("m1", "m3"), ((a, b),))
        ext = extend_context(ctx)
        assert ext.attributes == ("m1", "m3", "m4", "m5")

    def test_an_arity_above_the_attribute_count(self, demo):
        # no subset is larger than the attribute list, so a huge bound
        # builds nothing beyond it
        for novelty in (True, False):
            every = ExtensionConfig(max_meet_arity=len(demo.attributes), novelty_filter=novelty)
            huge = ExtensionConfig(max_meet_arity=10**9, novelty_filter=novelty)
            assert extend_context(demo, huge) == extend_context(demo, every)

    def test_bad_arguments(self, demo):
        with pytest.raises(ValueError):
            extend_context(demo, ExtensionConfig(max_meet_arity=1))
        with pytest.raises(ValueError):
            extend_context(demo, ExtensionConfig(meet_subsets=((0,),)))
        with pytest.raises(ValueError):
            extend_context(demo, ExtensionConfig(meet_subsets=((0, 9),)))
        with pytest.raises(ValueError, match="already"):
            extend_context(extend_context(demo))

    def test_output_always_restricts_to_input(self, demo):
        for cfg in (
            ExtensionConfig(),
            ExtensionConfig(max_meet_arity=3),
            ExtensionConfig(novelty_filter=False),
            ExtensionConfig(include_top_column=False),
        ):
            assert restrict_agrees(demo, extend_context(demo, cfg))


class TestRestrictAgrees:
    def test_extension_file(self, demo, demo_extended):
        assert restrict_agrees(demo, demo_extended)

    def test_altered_cell_detected(self, demo, demo_extended):
        alg = demo.algebra
        rows = [list(row) for row in demo_extended.rows]
        rows[0][0] = alg.parse_value("VeF")
        altered = FuzzyContext(
            alg, demo_extended.objects, demo_extended.attributes,
            tuple(tuple(r) for r in rows),
        )
        assert not restrict_agrees(demo, altered)

    def test_missing_attribute_is_an_error(self, demo):
        smaller = FuzzyContext(
            demo.algebra, demo.objects, ("m1",),
            tuple((row[0],) for row in demo.rows),
        )
        with pytest.raises(StructureError):
            restrict_agrees(demo, smaller)

    def test_object_mismatch_is_an_error(self, demo):
        renamed = FuzzyContext(demo.algebra, ("h1", "h2"), demo.attributes, demo.rows)
        with pytest.raises(StructureError):
            restrict_agrees(demo, renamed)


# 0 lies below every element, a <= b and b <= 1, but not a <= 1: every pair
# has a meet, and the derived order is not transitive
INTRANSITIVE = """\
elements 0 a b 1
imp 0 1 1 1 1
imp a 0 1 1 0
imp b 0 0 1 1
imp 1 0 0 0 1
neg 0 1
neg a b
neg b a
neg 1 0
"""

# each table loads, and a context over it is refused with this message;
# meets are checked first, then transitivity, then joins, so each later
# message shows the earlier checks pass
REFUSED = {
    "non-lattice": (
        NON_LATTICE,
        "no unique greatest lower bound for (c, d): the derived order is not a lattice",
    ),
    "intransitive": (
        INTRANSITIVE,
        "the derived order is not transitive: a <= b and b <= 1 but not a <= 1",
    ),
    "no-join": (
        (DATA_DIR / "nojoin.lia").read_text(encoding="utf-8"),
        "no unique least upper bound for (a, b): the derived order is not a lattice",
    ),
}


class TestLatticeOrder:
    @pytest.mark.parametrize("name", sorted(REFUSED))
    def test_context_is_refused(self, name):
        # one cell: no derivation, meet or order pair would reach the fault
        text, message = REFUSED[name]
        alg = load_table_algebra(text)
        with pytest.raises(StructureError) as err:
            FuzzyContext(alg, ("g1",), ("m1",), ((alg.top,),))
        assert str(err.value) == message

    @pytest.mark.parametrize("name", sorted(REFUSED))
    def test_parsed_context_is_refused(self, name, tmp_path):
        text, message = REFUSED[name]
        (tmp_path / "t.lia").write_text(text, encoding="utf-8")
        with pytest.raises(StructureError) as err:
            parse_context("algebra table t.lia\nattributes m1\ng1 0\n", base_dir=str(tmp_path))
        assert str(err.value) == message

    def test_shape_and_membership_are_checked_first(self):
        alg = load_table_algebra(NON_LATTICE)
        with pytest.raises(ValueError) as err:
            FuzzyContext(alg, ("g1",), ("m1",), ())
        assert type(err.value) is ValueError
        with pytest.raises(DimensionError):
            FuzzyContext(alg, ("g1",), ("m1",), ((TruthValue((9,)),),))

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_every_test_lattice_passes(self, name):
        # products declare the verdict; the check must agree with it
        algebra = ALGEBRAS[name]()
        assert lia.Algebra._lattice_fault.func(algebra) is None
        assert algebra._lattice_fault is None


HEAD = "algebra product 3 2\n"


def parsed(text):
    # a relative base directory that does not exist, so the message of an
    # unreadable table file is the same on every machine
    return lambda: parse_context(text, base_dir="no/such/dir")


def context(**fields):
    L = default_algebra()
    top = L.top
    kwargs = dict(algebra=L, objects=("g1",), attributes=("m1", "m2"), rows=((top, top),))
    return lambda: FuzzyContext(**{**kwargs, **fields})


ORIG = AttributeProvenance.original()


@pytest.mark.parametrize("build, error, message, line", [
    # parse_context
    (parsed(HEAD * 2), ParseError, "duplicate 'algebra' line", 2),
    (parsed("algebra product 3 x\n"), ParseError, "product sizes must be integers", 1),
    (parsed("algebra product\n"), ParseError, "'algebra product' needs chain sizes", 1),
    (parsed("algebra product 1 2\n"), ParseError, "every chain size must be >= 2, got [1, 2]", 1),
    (parsed("algebra table t.lia\n"), ParseError,
     "cannot read table file 't.lia': [Errno 2] No such file or directory: 'no/such/dir/t.lia'", 1),
    (parsed("algebra lattice 3\n"), ParseError,
     "expected 'algebra product <sizes>' or 'algebra table <path>'", 1),
    (parsed("algebra table a b\n"), ParseError,
     "expected 'algebra product <sizes>' or 'algebra table <path>'", 1),
    (parsed(HEAD + "alias a=SlT b\n"), ParseError, "alias entries look like tok=Value, got 'b'", 2),
    (parsed(HEAD + "alias =SlT\n"), ParseError, "alias entries look like tok=Value, got '=SlT'", 2),
    (parsed(HEAD + "alias a=Nope\n"), ParseError,
     "unknown value 'Nope' for algebra 'product 3 2'", 2),
    (parsed(HEAD + "attributes m1\nattributes m2\n"), ParseError, "duplicate 'attributes' line", 3),
    (parsed(HEAD + "g1 AbT\n"), ParseError, "object rows must follow the 'attributes' line", 2),
    (parsed(HEAD), ParseError, "missing 'attributes' line", None),
    (parsed("# nothing\n"), ParseError, "missing 'algebra' line", None),
    # FuzzyContext
    (context(objects=("g1", "g1"), rows=((), ())), ValueError, "duplicate object name", None),
    (context(attributes=("m1", "m1")), ValueError, "duplicate attribute name", None),
    (context(rows=()), ValueError, "1 objects but 0 rows", None),
    (context(rows=((),)), ValueError, "row 'g1' has 0 values for 2 attributes", None),
    (context(provenance=(ORIG,)), ValueError,
     "provenance list does not match the attribute list", None),
    (context(rows=((TruthValue((9, 9)), default_algebra().top),)), DimensionError,
     "TruthValue((9, 9)) is not an element of ProductAlgebra([3, 2])", None),
    # a bad value in row 1 is named before the short row 2
    pytest.param(
        context(objects=("g1", "g2"), rows=((TruthValue((9, 9)), default_algebra().top), ())),
        DimensionError, "TruthValue((9, 9)) is not an element of ProductAlgebra([3, 2])", None,
        id="bad-value-before-short-row",
    ),
    (context(attributes=("m1", "m2", "m3"), objects=(), rows=(),
             provenance=(ORIG, ORIG, AttributeProvenance.meet_of((0, 3)))),
     ValueError, "meet source index 3 out of range", None),
    (context(attributes=("m1", "m2", "m3"), objects=(), rows=(),
             provenance=(ORIG, ORIG, AttributeProvenance.meet_of((0, 2)))),
     ValueError, "meet sources must be original attributes", None),
    # AttributeProvenance
    (lambda: AttributeProvenance("derived"), ValueError, "unknown provenance kind 'derived'", None),
    (lambda: AttributeProvenance.meet_of((0,)), ValueError,
     "a meet column needs at least two sources", None),
    (lambda: AttributeProvenance.meet_of((1, 0)), ValueError,
     "meet sources must be strictly increasing", None),
    (lambda: AttributeProvenance.meet_of((0, 0)), ValueError,
     "meet sources must be strictly increasing", None),
    (lambda: AttributeProvenance("top", (0,)), ValueError, "top provenance takes no sources", None),
    (lambda: AttributeProvenance("original", (0, 1)), ValueError,
     "original provenance takes no sources", None),
])
def test_errors_name_their_cause(build, error, message, line):
    with pytest.raises(ValueError) as caught:
        build()
    assert type(caught.value) is error
    expected = message if line is None else f"line {line}: {message}"
    assert str(caught.value) == expected
    assert getattr(caught.value, "line", None) == line

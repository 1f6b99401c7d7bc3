import pytest

from ltvcl import (
    AttributeProvenance,
    BudgetError,
    ExtensionConfig,
    FuzzyContext,
    ParseError,
    StructureError,
    default_algebra,
    extend_context,
    load_table_algebra,
    parse_context,
    restrict_agrees,
    serialize_context,
)
from conftest import DATA_DIR


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
                expected = alg.meet_all(ext.rows[g][s] for s in prov.sources)
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

"""The behaviour of the eleven value types, pinned: repr, value equality and
hashing, immutability, pickling and copying, pattern-matching order, the
defaults and conversions of the constructors, and every validation
message."""

import copy
import pickle

import pytest

from ltvcl import (
    AttributeProvenance,
    AxiomReport,
    Concept,
    CongenerReport,
    DimensionError,
    ExtensionConfig,
    FuzzyContext,
    FuzzySet,
    LinguisticLabel,
    MiningReport,
    ProductAlgebra,
    StructureError,
    TheoremCheck,
    TruthValue,
    load_table_algebra,
)
from conftest import NON_LATTICE

ALG = ProductAlgebra([3, 2])


def truth_value():
    return TruthValue((3, 2))


def linguistic_label():
    return LinguisticLabel("Ve", "Tr")


def axiom_report():
    return AxiomReport([("lia-3", ("AbT", "AbF"))])


def attribute_provenance():
    return AttributeProvenance.meet_of([0, 1])


def fuzzy_context():
    top, bottom = ALG.value(3, 2), ALG.value(1, 1)
    return FuzzyContext(ALG, ["g1"], ["m1", "m2"], [[top, bottom]])


def extension_config():
    return ExtensionConfig()


def fuzzy_set():
    return FuzzySet("objects", [ALG.value(3, 2)])


def concept():
    return Concept(fuzzy_set(), FuzzySet("attributes", (ALG.value(3, 2), ALG.value(1, 1))))


def congener_report():
    return CongenerReport(1, 2, (("base", fuzzy_set()),))


def theorem_check():
    return TheoremCheck("m3", "pair-meet", True, ("m1", "m2"))


def mining_report():
    return MiningReport((("m3", "meet(m1,m2)"),), (theorem_check(),), congener_report(), True)


FS = "FuzzySet(side='objects', values=(TruthValue((3, 2)),))"
CR = f"CongenerReport(base_extent_count=1, extended_extent_count=2, witnesses=(('base', {FS}),))"
TC = "TheoremCheck(attribute='m3', rule='pair-meet', satisfied=True, sources=('m1', 'm2'))"
ORIG = "AttributeProvenance(kind='original', sources=())"

# type -> (build an instance, its fields in order, its repr, frozen, slotted)
TYPES = {
    TruthValue: (truth_value, ("coords",), "TruthValue((3, 2))", True, True),
    LinguisticLabel: (
        linguistic_label, ("modifier", "meta"), "LinguisticLabel(modifier='Ve', meta='Tr')",
        True, True,
    ),
    AxiomReport: (
        axiom_report, ("violations",), "AxiomReport(violations=[('lia-3', ('AbT', 'AbF'))])",
        False, False,
    ),
    AttributeProvenance: (
        attribute_provenance, ("kind", "sources"),
        "AttributeProvenance(kind='meet', sources=(0, 1))", True, True,
    ),
    FuzzyContext: (
        fuzzy_context, ("algebra", "objects", "attributes", "rows", "provenance"),
        "FuzzyContext(algebra=ProductAlgebra([3, 2]), objects=('g1',), attributes=('m1', 'm2'), "
        "rows=((TruthValue((3, 2)), TruthValue((1, 1))),), "
        f"provenance=({ORIG}, {ORIG}))",
        True, False,
    ),
    ExtensionConfig: (
        extension_config, ("max_meet_arity", "include_top_column", "novelty_filter", "meet_subsets"),
        "ExtensionConfig(max_meet_arity=2, include_top_column=True, novelty_filter=True, "
        "meet_subsets=None)",
        True, False,
    ),
    FuzzySet: (fuzzy_set, ("side", "values"), FS, True, True),
    Concept: (
        concept, ("extent", "intent"),
        f"Concept(extent={FS}, intent=FuzzySet(side='attributes', "
        "values=(TruthValue((3, 2)), TruthValue((1, 1)))))",
        True, True,
    ),
    CongenerReport: (
        congener_report, ("base_extent_count", "extended_extent_count", "witnesses"), CR,
        True, False,
    ),
    TheoremCheck: (theorem_check, ("attribute", "rule", "satisfied", "sources"), TC, True, False),
    MiningReport: (
        mining_report, ("tacit_attributes", "theorem_checks", "congener", "fast_extension_verified"),
        f"MiningReport(tacit_attributes=(('m3', 'meet(m1,m2)'),), theorem_checks=({TC},), "
        f"congener={CR}, fast_extension_verified=True)",
        True, False,
    ),
}
IDS = [cls.__name__ for cls in TYPES]
parametrized = pytest.mark.parametrize("cls", TYPES, ids=IDS)


@parametrized
def test_repr(cls):
    build, _fields, text, _frozen, _slotted = TYPES[cls]
    assert repr(build()) == text


@parametrized
def test_equal_fields_give_equal_objects(cls):
    build, fields, _text, frozen, _slotted = TYPES[cls]
    one, two = build(), build()
    assert one is not two
    assert one == two and not one != two
    if frozen:
        assert hash(one) == hash(two)
        assert len({one, two}) == 1
    else:
        with pytest.raises(TypeError):
            hash(one)


@parametrized
def test_another_type_with_the_same_fields_is_unequal(cls):
    build, fields, _text, _frozen, _slotted = TYPES[cls]
    value = build()
    twin = type("Twin", (cls,), {})
    twin_value = twin(*(getattr(value, f) for f in fields))
    assert twin_value != value and value != twin_value
    assert value != tuple(getattr(value, f) for f in fields)
    assert value != None  # noqa: E711


def test_one_differing_field_is_unequal():
    assert TruthValue((3, 2)) != TruthValue((3, 1))
    assert FuzzySet("objects", ()) != FuzzySet("attributes", ())
    assert TheoremCheck("m3", None, False) != TheoremCheck("m3", None, True)
    assert hash(TruthValue((3, 2))) != hash(TruthValue((3, 1)))


@parametrized
def test_frozen_fields_refuse_assignment_and_deletion(cls):
    build, fields, _text, frozen, _slotted = TYPES[cls]
    value = build()
    for name in fields:
        before = getattr(value, name)
        if frozen:
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(value, name, before)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(value, name)
            assert getattr(value, name) is before
        else:
            setattr(value, name, [])
            assert getattr(value, name) == []


def test_axiom_report_is_mutable_with_its_own_list():
    one, two = AxiomReport(), AxiomReport()
    assert one.violations == [] and one.violations is not two.violations
    assert one.passed
    one.violations.append(("lia-3", ("a",)))
    assert not one.passed and two.passed and one != two


@parametrized
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trips(cls, protocol):
    build, fields, text, _frozen, _slotted = TYPES[cls]
    value = build()
    back = pickle.loads(pickle.dumps(value, protocol))
    assert type(back) is cls and back == value and repr(back) == text


@parametrized
def test_copies_round_trip(cls):
    build, fields, text, _frozen, _slotted = TYPES[cls]
    value = build()
    for clone in (copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is cls and clone == value and repr(clone) == text


def test_copied_contexts_keep_their_positions():
    context = fuzzy_context()
    for clone in (pickle.loads(pickle.dumps(context)), copy.deepcopy(context)):
        assert clone.row_positions == context.row_positions == ((0, 5),)
        assert clone.column_positions == ((0,), (5,))


def test_a_deep_copied_axiom_report_owns_its_list():
    report = axiom_report()
    clone = copy.deepcopy(report)
    assert clone.violations == report.violations and clone.violations is not report.violations


@parametrized
def test_match_args_follow_the_field_order(cls):
    build, fields, _text, _frozen, _slotted = TYPES[cls]
    assert cls.__match_args__ == fields


def test_positional_patterns_bind_the_fields_in_order():
    match AttributeProvenance.meet_of([0, 2]):
        case AttributeProvenance(kind, sources):
            assert (kind, sources) == ("meet", (0, 2))
    match theorem_check():
        case TheoremCheck("m3", rule, True, sources):
            assert (rule, sources) == ("pair-meet", ("m1", "m2"))
        case _:
            pytest.fail("no match")


@parametrized
def test_slotted_types_have_no_instance_dict(cls):
    build, _fields, _text, _frozen, slotted = TYPES[cls]
    assert hasattr(build(), "__dict__") is not slotted


@parametrized
def test_keyword_construction(cls):
    build, fields, _text, _frozen, _slotted = TYPES[cls]
    value = build()
    assert cls(**{f: getattr(value, f) for f in fields}) == value


def test_defaults_and_conversions():
    assert AttributeProvenance("original").sources == ()
    assert AttributeProvenance("top") == AttributeProvenance.constant_top()
    assert TheoremCheck("m3", None, False).sources == ()
    assert ExtensionConfig(meet_subsets=((0, 1),)).max_meet_arity == 2
    fset = FuzzySet("objects", [ALG.top])
    assert fset.values == (ALG.top,) and len(fset) == 1
    context = FuzzyContext(ALG, ["g1"], ["m1"], [[ALG.top]])
    assert context.objects == ("g1",) and context.attributes == ("m1",)
    assert context.rows == ((ALG.top,),)
    assert context.provenance == (AttributeProvenance.original(),)
    given = FuzzyContext(ALG, ("g1",), ("m1",), ((ALG.top,),), [AttributeProvenance("top")])
    assert given.provenance == (AttributeProvenance("top"),)
    assert FuzzyContext(ALG, (), (), ()).provenance == ()


TOP, BOTTOM = ALG.top, ALG.bottom
ORIGINAL = AttributeProvenance.original()

# a constructor call -> the exception it raises and its whole message
INVALID = {
    "modifier": (lambda: LinguisticLabel("Xx", "Tr"), ValueError, "unknown modifier 'Xx'"),
    "meta": (lambda: LinguisticLabel("Ve", "Maybe"), ValueError,
             "unknown meta truth value 'Maybe'"),
    "kind": (lambda: AttributeProvenance("other"), ValueError, "unknown provenance kind 'other'"),
    "one source": (lambda: AttributeProvenance("meet", (0,)), ValueError,
                   "a meet column needs at least two sources"),
    "unsorted sources": (lambda: AttributeProvenance("meet", (1, 0)), ValueError,
                         "meet sources must be strictly increasing"),
    "repeated source": (lambda: AttributeProvenance("meet", (0, 0)), ValueError,
                        "meet sources must be strictly increasing"),
    "top sources": (lambda: AttributeProvenance("top", (0,)), ValueError,
                    "top provenance takes no sources"),
    "original sources": (lambda: AttributeProvenance("original", (0, 1)), ValueError,
                         "original provenance takes no sources"),
    "side": (lambda: FuzzySet("both", ()), ValueError,
             "side must be 'objects' or 'attributes', got 'both'"),
    "concept sides": (
        lambda: Concept(FuzzySet("attributes", ()), FuzzySet("objects", ())), ValueError,
        "a concept pairs an object-side set with an attribute-side set",
    ),
    "object name": (lambda: FuzzyContext(ALG, ("g", "g"), ("m",), ((TOP,), (TOP,))), ValueError,
                    "duplicate object name"),
    "attribute name": (lambda: FuzzyContext(ALG, ("g",), ("m", "m"), ((TOP, TOP),)), ValueError,
                       "duplicate attribute name"),
    "row count": (lambda: FuzzyContext(ALG, ("g",), ("m",), ()), ValueError,
                  "1 objects but 0 rows"),
    "row width": (lambda: FuzzyContext(ALG, ("g",), ("m",), ((TOP, TOP),)), ValueError,
                  "row 'g' has 2 values for 1 attributes"),
    "member": (lambda: FuzzyContext(ALG, ("g",), ("m",), ((TruthValue((9, 9)),),)),
               DimensionError, "TruthValue((9, 9)) is not an element of ProductAlgebra([3, 2])"),
    "provenance count": (
        lambda: FuzzyContext(ALG, ("g",), ("m",), ((TOP,),), (ORIGINAL, ORIGINAL)), ValueError,
        "provenance list does not match the attribute list",
    ),
    "source range": (
        lambda: FuzzyContext(ALG, ("g",), ("a", "b", "c"), ((TOP, TOP, TOP),),
                             (ORIGINAL, ORIGINAL, AttributeProvenance("meet", (0, 5)))),
        ValueError, "meet source index 5 out of range",
    ),
    "source kind": (
        lambda: FuzzyContext(ALG, ("g",), ("a", "b", "c"), ((TOP, TOP, TOP),),
                             (ORIGINAL, AttributeProvenance("top"),
                              AttributeProvenance("meet", (0, 1)))),
        ValueError, "meet sources must be original attributes",
    ),
    "lattice": (
        lambda: FuzzyContext(load_table_algebra(NON_LATTICE), ("g",), ("m",),
                             ((load_table_algebra(NON_LATTICE).top,),)),
        StructureError,
        "no unique greatest lower bound for (c, d): the derived order is not a lattice",
    ),
}


@pytest.mark.parametrize("name", INVALID)
def test_validation_errors_keep_their_messages(name):
    build, error, message = INVALID[name]
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


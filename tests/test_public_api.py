"""The public contract: every name ``ltvcl`` exports, and the parameter
names of each one ``inspect.signature`` reads.

A change to ``ltvcl/__init__.py`` or to an exported signature has to edit
``CONTRACT`` too, so that it is made on purpose. Names whose signature
cannot be read (constants, and exceptions that keep ``Exception``'s) map to
None. The table reads the same on Python 3.10 to 3.13.
"""

import inspect
import types

import ltvcl

CONTRACT = {
    "ATTRIBUTES": None,
    "AttributeProvenance": ("kind", "sources"),
    "AxiomReport": ("violations",),
    "BudgetError": None,
    "Concept": ("extent", "intent"),
    "ConceptLattice": ("context", "concepts"),
    "CongenerReport": ("base_extent_count", "extended_extent_count", "witnesses"),
    "DimensionError": None,
    "EXTENT_SCAN": None,
    "ExtensionConfig": ("max_meet_arity", "include_top_column", "novelty_filter", "meet_subsets"),
    "FULL_DOMAIN": None,
    "FuzzyContext": ("algebra", "objects", "attributes", "rows", "provenance"),
    "FuzzySet": ("side", "values"),
    "GENERATED_DOMAIN": None,
    "INTENT_SCAN": None,
    "LinguisticLabel": ("modifier", "meta"),
    "LoadError": ("message", "line"),
    "MembershipError": None,
    "MiningReport": ("tacit_attributes", "theorem_checks", "congener", "fast_extension_verified"),
    "OBJECTS": None,
    "ParseError": ("message", "line"),
    "PreconditionError": None,
    "ProductAlgebra": ("chain_sizes",),
    "StructureError": None,
    "TableAlgebra": ("element_names", "imp_table", "neg_table", "source"),
    "TheoremCheck": ("attribute", "rule", "satisfied", "sources"),
    "TruthValue": ("coords",),
    "UnclassifiedColumnError": None,
    "attribute_set": ("values",),
    "check_axioms": ("algebra",),
    "classify_columns": ("base", "extended"),
    "closure_extent": ("context", "extent"),
    "closure_intent": ("context", "intent"),
    "concept_join": ("lattice", "left", "right"),
    "concept_meet": ("lattice", "left", "right"),
    "default_algebra": (),
    "derive_extent": ("context", "intent"),
    "derive_intent": ("context", "extent"),
    "enumerate_concepts": ("context", "engine", "domain", "budget"),
    "export_dot": ("lattice",),
    "export_json": ("lattice",),
    "extend_concepts_fast": ("base_lattice", "extended", "checks"),
    "extend_context": ("context", "config"),
    "is_congener": ("base", "extended", "engine", "domain", "budget"),
    "label_from_value": ("value", "algebra"),
    "label_to_value": ("label", "algebra"),
    "load_table_algebra": ("text", "source"),
    "mine": ("context", "config", "engine", "domain", "budget"),
    "object_set": ("values",),
    "parse_context": ("text", "base_dir"),
    "restrict_agrees": ("base", "extended"),
    "serialize_context": ("context",),
}


def parameters(obj):
    try:
        return tuple(inspect.signature(obj).parameters)
    except (TypeError, ValueError):
        return None


def test_exported_names_and_signatures_are_the_contract():
    exported = {
        name: parameters(obj)
        for name, obj in vars(ltvcl).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert exported == CONTRACT

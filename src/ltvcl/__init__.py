"""Linguistic truth-valued concept lattices over finite lattice implication
algebras, and tacit-attribute mining through congener context extension."""

from .context import (
    AttributeProvenance,
    ExtensionConfig,
    FuzzyContext,
    extend_context,
    parse_context,
    restrict_agrees,
    serialize_context,
)
from .errors import (
    BudgetError,
    DimensionError,
    LoadError,
    MembershipError,
    ParseError,
    PreconditionError,
    StructureError,
    UnclassifiedColumnError,
)
from .galois import (
    ATTRIBUTES,
    EXTENT_SCAN,
    FULL_DOMAIN,
    GENERATED_DOMAIN,
    INTENT_SCAN,
    OBJECTS,
    Concept,
    ConceptLattice,
    FuzzySet,
    attribute_set,
    closure_extent,
    closure_intent,
    concept_join,
    concept_meet,
    derive_extent,
    derive_intent,
    enumerate_concepts,
    export_dot,
    export_json,
    object_set,
)
from .lia import (
    AxiomReport,
    LinguisticLabel,
    ProductAlgebra,
    TableAlgebra,
    TruthValue,
    check_axioms,
    default_algebra,
    label_from_value,
    label_to_value,
    load_table_algebra,
)
from .tacit import (
    CongenerReport,
    MiningReport,
    TheoremCheck,
    classify_columns,
    extend_concepts_fast,
    is_congener,
    mine,
)

__version__ = "0.1.0"

"""The public derivations against the value-level oracle.

``galois`` folds derivations on element positions; ``tests/oracle.py``
keeps the fold it ran on truth values through the public algebra
operations. Both must give the same values and name the same non-element
in a DimensionError.
"""

import random

import pytest

from ltvcl import (
    DimensionError,
    FuzzyContext,
    StructureError,
    TruthValue,
    attribute_set,
    closure_extent,
    closure_intent,
    derive_extent,
    derive_intent,
    load_table_algebra,
    object_set,
)
from conftest import ALGEBRAS, NON_LATTICE, WIDE_ALGEBRAS, random_context
from oracle import reference_derive_extent, reference_derive_intent

# Values that belong to none of the algebras above; the list is unhashable.
STRANGERS = [TruthValue((99,)), TruthValue((9, 9)), "AbT", [1]]


def reference_closure_extent(context, values):
    return reference_derive_extent(context, reference_derive_intent(context, values))


def reference_closure_intent(context, values):
    return reference_derive_intent(context, reference_derive_extent(context, values))


# (library function, reference, set builder, side length of the argument)
DERIVATIONS = [
    (derive_intent, reference_derive_intent, object_set, lambda c: len(c.objects)),
    (derive_extent, reference_derive_extent, attribute_set, lambda c: len(c.attributes)),
    (closure_extent, reference_closure_extent, object_set, lambda c: len(c.objects)),
    (closure_intent, reference_closure_intent, attribute_set, lambda c: len(c.attributes)),
]


def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "value", call()
    except DimensionError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(ALGEBRAS) + sorted(WIDE_ALGEBRAS))
def test_derivations_match_the_value_level_oracle(name):
    algebra = {**ALGEBRAS, **WIDE_ALGEBRAS}[name]()
    rng = random.Random(f"derivations/{name}")
    shapes = [(0, 2), (2, 0), (0, 0)] + [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(40)]
    seen = set()
    for n_objects, n_attributes in shapes:
        context = random_context(rng, algebra, n_objects, n_attributes)
        for derive, reference, build, size in DERIVATIONS:
            for _ in range(3):
                values = tuple(rng.choice(algebra.elements) for _ in range(size(context)))
                expected = outcome(lambda: reference(context, values))
                assert outcome(lambda: derive(context, build(values)).values) == expected
                seen.add(expected[0])
    assert seen == {"value"}


@pytest.mark.parametrize("name", sorted(ALGEBRAS) + sorted(WIDE_ALGEBRAS))
def test_masks_encode_the_implication_columns(name):
    # one-byte codes build each mask by one bytes.translate; the wide
    # algebras' two-byte codes take encode, the reference here
    algebra = {**ALGEBRAS, **WIDE_ALGEBRAS}[name]()
    assert (algebra._imp_codes is None) == (name in WIDE_ALGEBRAS)
    encode, imp = algebra._code.encode, algebra._imp
    rng = random.Random(f"masks/{name}")
    shapes = [(0, 2), (2, 0), (0, 0)] + [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(20)]
    for n_objects, n_attributes in shapes:
        context = random_context(rng, algebra, n_objects, n_attributes)
        for masks, lines in ((context.row_masks, context.row_positions),
                             (context.column_masks, context.column_positions)):
            assert masks == tuple(
                tuple(encode([imp_b[v] for v in line]) for imp_b in imp) for line in lines
            )
            for line, line_masks in zip(lines, masks):
                if not line:
                    assert line_masks == (0,) * len(imp)


def test_first_missing_meet_is_named():
    # c and d have no meet. Folding these rows would miss it as (d, c)
    # first; the context is refused before any derivation runs, naming the
    # first pair of the algebra without one, in display order.
    algebra = load_table_algebra(NON_LATTICE)
    c, d = algebra.parse_value("c"), algebra.parse_value("d")
    with pytest.raises(StructureError) as err:
        FuzzyContext(algebra, ("g1", "g2"), ("m1", "m2"), ((d, c), (c, d)))
    assert str(err.value) == (
        "no unique greatest lower bound for (c, d): the derived order is not a lattice"
    )


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_non_element_names_the_same_value(name):
    # A context's order is a lattice, so no meet fails and the oracle
    # reaches the non-element and names it; the library checks the whole
    # argument before folding.
    algebra = ALGEBRAS[name]()
    rng = random.Random(f"strangers/{name}")
    for _ in range(30):
        context = random_context(rng, algebra, rng.randint(1, 4), rng.randint(1, 4))
        for derive, reference, build, size in DERIVATIONS:
            values = [rng.choice(algebra.elements) for _ in range(size(context))]
            for k in rng.sample(range(len(values)), min(2, len(values))):
                values[k] = rng.choice(STRANGERS)
            expected = outcome(lambda: reference(context, tuple(values)))
            assert expected[0] is DimensionError
            assert outcome(lambda: derive(context, build(values)).values) == expected

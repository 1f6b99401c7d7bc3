import random
from pathlib import Path

import pytest

from ltvcl import (
    Concept,
    FuzzyContext,
    ProductAlgebra,
    TableAlgebra,
    attribute_set,
    load_table_algebra,
    object_set,
    parse_context,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def load_context(name: str) -> FuzzyContext:
    path = DATA_DIR / name
    return parse_context(path.read_text(encoding="utf-8"), base_dir=str(DATA_DIR))


def table(name: str) -> TableAlgebra:
    """The table algebra of ``data/<name>``, with that name as its source."""
    return load_table_algebra((DATA_DIR / name).read_text(encoding="utf-8"), source=name)


@pytest.fixture(scope="session")
def demo():
    return load_context("demo.ctx")


@pytest.fixture(scope="session")
def demo_extended():
    return load_context("demo_extended.ctx")


def oset(context, labels: str):
    """Object-side fuzzy set from space-separated canonical labels."""
    return object_set(context.algebra.parse_value(t) for t in labels.split())


def aset(context, labels: str):
    """Attribute-side fuzzy set from space-separated canonical labels."""
    return attribute_set(context.algebra.parse_value(t) for t in labels.split())


def concept_of(context, extent_labels: str, intent_labels: str) -> Concept:
    return Concept(oset(context, extent_labels), aset(context, intent_labels))


def concept_set(context, table):
    """Turn golden (extent, intent) label rows into a set of concepts."""
    return {concept_of(context, e, i) for e, i in table}


def random_context(rng: random.Random, algebra, n_objects: int, n_attrs: int) -> FuzzyContext:
    rows = tuple(
        tuple(rng.choice(algebra.elements) for _ in range(n_attrs))
        for _ in range(n_objects)
    )
    objects = tuple(f"g{i + 1}" for i in range(n_objects))
    attributes = tuple(f"m{j + 1}" for j in range(n_attrs))
    return FuzzyContext(algebra, objects, attributes, rows)


def append_column(context: FuzzyContext, name: str, values) -> FuzzyContext:
    """A copy of the context with one extra raw data column."""
    values = tuple(values)
    return FuzzyContext(
        context.algebra,
        context.objects,
        context.attributes + (name,),
        tuple(row + (v,) for row, v in zip(context.rows, values)),
    )


def shuffled_tables(alg, rng):
    """Fresh names for ``alg``'s elements in a shuffled declaration order,
    its implication and negation tables under them, and the renaming."""
    els = list(alg.elements)
    rng.shuffle(els)
    name = {x: f"e{i}" for i, x in enumerate(els)}
    imp = {(name[x], name[y]): name[alg.imp(x, y)] for x in els for y in els}
    neg = {name[x]: name[alg.neg(x)] for x in els}
    return [name[x] for x in els], imp, neg, name


def shuffled_table(alg, seed):
    """A table-algebra copy of ``alg`` under shuffled names, with the
    renaming from ``alg``'s values."""
    names, imp, neg, name = shuffled_tables(alg, random.Random(seed))
    copy = TableAlgebra(names, imp, neg)
    return copy, {x: copy.parse_value(n) for x, n in name.items()}


def break_contraposition(names, imp, neg, rng):
    """A copy of ``imp`` with one entry changed so that imp(x, y) =
    imp(neg y, neg x) fails. The entry is off the diagonal, neither its
    old nor its new value is top, and y is not neg x, so the derived order,
    and with it every meet and join, stays as it was."""
    top = imp[names[0], names[0]]
    x, y = rng.choice([(x, y) for x in names for y in names
                       if x != y and y != neg[x] and imp[x, y] != top])
    bad = dict(imp)
    bad[x, y] = rng.choice([v for v in names if v not in (imp[x, y], top)])
    return bad


def corrupted_tables(alg, seed):
    """The names and tables of a shuffled copy of ``alg`` with one entry
    changed by ``break_contraposition``: its order is ``alg``'s, but it is
    not a lattice implication algebra."""
    rng = random.Random(seed)
    names, imp, neg, _ = shuffled_tables(alg, rng)
    return names, break_contraposition(names, imp, neg, rng), neg


# Every algebra but chain5 is a lattice implication algebra, on which
# enumeration closes each image of the fold once and checks no fixpoint;
# chain5 fails the axioms and keeps the check. The seeded-order table is a
# shuffled copy of a product, so its gate runs the certificate.
ALGEBRAS = {
    "product 3 2": lambda: ProductAlgebra([3, 2]),
    "product 2 2": lambda: ProductAlgebra([2, 2]),
    "product 4": lambda: ProductAlgebra([4]),
    "product 2 3 2": lambda: ProductAlgebra([2, 3, 2]),
    "product 3 3": lambda: ProductAlgebra([3, 3]),
    "bool2": lambda: table("bool2.lia"),
    "seeded-order": lambda: shuffled_table(ProductAlgebra([3, 2]), 1)[0],
    "chain5": lambda: table("chain5.lia"),
}

# data/nonlattice.lia: c and d have no greatest lower bound (and a and b
# no least upper bound), so the table loads but no context is built over
# it; data/nojoin.lia is refused too, for its one missing join
NON_LATTICE = (DATA_DIR / "nonlattice.lia").read_text(encoding="utf-8")

# Algebras with more than eight join-irreducibles (9 and 11), whose vectors
# are encoded in two-byte blocks. Their elements are many, so the tests
# that scan |domain|^|side| candidates keep their contexts small.
WIDE_ALGEBRAS = {
    "product 4 4 4": lambda: ProductAlgebra([4, 4, 4]),
    "product 12": lambda: ProductAlgebra([12]),
}

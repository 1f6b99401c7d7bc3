"""``export_json`` writes the layout of ``json.dumps(doc, indent=2)``
itself; ``tests/oracle.py`` keeps the document built and handed to
``json.dumps``. The two must agree byte for byte on every lattice."""

import json
import random

import pytest

from ltvcl import ProductAlgebra, TableAlgebra, enumerate_concepts, parse_context
from ltvcl.galois import EXTENT_SCAN, FULL_DOMAIN, GENERATED_DOMAIN, INTENT_SCAN, export_json
from conftest import random_context, shuffled_tables, table
from oracle import reference_export_json


def _seeded_order_table():
    names, imp, neg, _ = shuffled_tables(ProductAlgebra([3, 2]), random.Random(10))
    return TableAlgebra(names, imp, neg, source="seeded.lia")


ALGEBRAS = {
    "product 3 2": lambda: ProductAlgebra([3, 2]),
    "product 2 2": lambda: ProductAlgebra([2, 2]),
    "product 2 3 2": lambda: ProductAlgebra([2, 3, 2]),
    "bool2": lambda: table("bool2.lia"),
    "chain5": lambda: table("chain5.lia"),
    "seeded-order": _seeded_order_table,
}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("engine", (EXTENT_SCAN, INTENT_SCAN))
@pytest.mark.parametrize("domain", (GENERATED_DOMAIN, FULL_DOMAIN))
def test_export_json_equals_json_dumps(name, engine, domain):
    algebra = ALGEBRAS[name]()
    rng = random.Random(f"export/{name}/{engine}/{domain}")
    largest = 3 if len(algebra.elements) > 6 else 4
    for _ in range(6):
        context = random_context(rng, algebra, rng.randint(1, largest), rng.randint(1, largest))
        lattice = enumerate_concepts(context, engine, domain=domain)
        assert export_json(lattice) == reference_export_json(lattice)


def _exported(text: str, base_dir: str = "."):
    lattice = enumerate_concepts(parse_context(text, base_dir=base_dir))
    out = export_json(lattice)
    assert out == reference_export_json(lattice)
    return json.loads(out)


def test_no_attributes():
    doc = _exported("algebra product 3 2\nattributes\ng1\ng2\n")
    assert doc["attributes"] == []
    assert [c["intent"] for c in doc["concepts"]] == [[]]


def test_no_objects():
    doc = _exported("algebra product 3 2\nattributes m1 m2\n")
    assert doc["objects"] == []
    assert [c["extent"] for c in doc["concepts"]] == [[]]


def test_single_concept():
    doc = _exported("algebra product 3 2\nattributes m1\ng1 AbT\n")
    assert len(doc["concepts"]) == 1
    assert doc["covers"] == []


def test_names_and_spellings_that_need_escapes(tmp_path):
    # quotes, backslashes and a non-ASCII letter, in names and in element
    # spellings: json.dumps escapes each (ensure_ascii), so must the export
    odd = '"I\\'
    (tmp_path / "odd.lia").write_text(
        f"elements Ø {odd}\nimp Ø {odd} {odd}\nimp {odd} Ø {odd}\nneg Ø {odd}\nneg {odd} Ø\n",
        encoding="utf-8",
    )
    doc = _exported(
        'algebra table odd.lia\nattributes m"1 m\\2 mü\n'
        f'g"1 Ø {odd} Ø\ng\\2 {odd} {odd} Ø\nü3 Ø Ø {odd}\n',
        base_dir=str(tmp_path),
    )
    assert doc["objects"] == ['g"1', "g\\2", "ü3"]
    assert doc["attributes"] == ['m"1', "m\\2", "mü"]
    assert {v for c in doc["concepts"] for v in c["extent"] + c["intent"]} == {"Ø", odd}

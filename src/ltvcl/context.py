"""Truth-valued formal contexts.

A context pairs object and attribute name lists with a grid of algebra
values, plus per-attribute provenance so derived columns remember how they
were built. This module owns the textual file format and the
attribute-extension generator that manufactures candidate tacit columns
(pairwise and k-wise column meets, and the constant-top column).
"""

from __future__ import annotations

import itertools
import os
from functools import cached_property

from ._value import _setattr, _Value
from .errors import ParseError, StructureError
from .lia import Algebra, ProductAlgebra, TruthValue, load_table_algebra

ORIGINAL = "original"
MEET = "meet"
TOP = "top"


class AttributeProvenance(_Value):
    """How a column came to be: given data, a meet of columns, or all-top."""

    __slots__ = _fields = ("kind", "sources")

    def __init__(self, kind: str, sources: tuple[int, ...] = ()):
        if kind not in (ORIGINAL, MEET, TOP):
            raise ValueError(f"unknown provenance kind {kind!r}")
        if kind == MEET:
            if len(sources) < 2:
                raise ValueError("a meet column needs at least two sources")
            if list(sources) != sorted(set(sources)):
                raise ValueError("meet sources must be strictly increasing")
        elif sources:
            raise ValueError(f"{kind} provenance takes no sources")
        _setattr(self, "kind", kind)
        _setattr(self, "sources", sources)

    @classmethod
    def original(cls) -> "AttributeProvenance":
        return cls(ORIGINAL)

    @classmethod
    def meet_of(cls, sources) -> "AttributeProvenance":
        return cls(MEET, tuple(int(s) for s in sources))

    @classmethod
    def constant_top(cls) -> "AttributeProvenance":
        return cls(TOP)

    def formula(self, attribute_names) -> str:
        if self.kind == MEET:
            return "meet(" + ",".join(attribute_names[s] for s in self.sources) + ")"
        if self.kind == TOP:
            return "top"
        return "original"


class FuzzyContext(_Value):
    """Objects x attributes grid of truth values over one algebra.

    Rows follow the object order, columns the attribute order. Immutable
    after construction; derived contexts are new instances. The rows as
    element positions, ``row_positions``, are mapped once, when the context
    is built: the grid's one membership check, read by every layer.

    The algebra's derived order must be a lattice: a pair with no meet or
    no join, or an order that is not transitive, raises StructureError
    naming it (see ``Algebra._lattice_fault``), so every meet and join the
    layers above take on a context's values exists.
    """

    _fields = ("algebra", "objects", "attributes", "rows", "provenance")

    def __init__(
        self,
        algebra: Algebra,
        objects: tuple[str, ...],
        attributes: tuple[str, ...],
        rows: tuple[tuple[TruthValue, ...], ...],
        provenance: tuple[AttributeProvenance, ...] = (),
    ):
        objects, attributes = tuple(objects), tuple(attributes)
        rows = tuple(tuple(row) for row in rows)
        provenance = tuple(provenance or [AttributeProvenance.original()] * len(attributes))

        if len(set(objects)) != len(objects):
            raise ValueError("duplicate object name")
        if len(set(attributes)) != len(attributes):
            raise ValueError("duplicate attribute name")
        if len(rows) != len(objects):
            raise ValueError(f"{len(objects)} objects but {len(rows)} rows")
        positions = []
        for obj, row in zip(objects, rows):
            if len(row) != len(attributes):
                raise ValueError(
                    f"row {obj!r} has {len(row)} values for {len(attributes)} attributes"
                )
            positions.append(algebra._positions(row))
        if len(provenance) != len(attributes):
            raise ValueError("provenance list does not match the attribute list")
        for prov in provenance:
            if prov.kind == MEET:
                for s in prov.sources:
                    if not 0 <= s < len(attributes):
                        raise ValueError(f"meet source index {s} out of range")
                    if provenance[s].kind != ORIGINAL:
                        raise ValueError("meet sources must be original attributes")
        fault = algebra._lattice_fault
        if fault is not None:
            raise StructureError(fault)
        _setattr(self, "algebra", algebra)
        _setattr(self, "objects", objects)
        _setattr(self, "attributes", attributes)
        _setattr(self, "rows", rows)
        _setattr(self, "provenance", provenance)
        _setattr(self, "row_positions", tuple(positions))

    @cached_property
    def columns(self) -> tuple[tuple[TruthValue, ...], ...]:
        """The transposed grid: one tuple per attribute, in object order
        (built per attribute, so a context without objects keeps them)."""
        return tuple(tuple(row[m] for row in self.rows) for m in range(len(self.attributes)))

    @cached_property
    def column_positions(self) -> tuple[tuple[int, ...], ...]:
        """``row_positions`` transposed: one tuple per attribute."""
        return tuple(zip(*self.row_positions)) or ((),) * len(self.attributes)

    @cached_property
    def row_masks(self) -> tuple[tuple[int, ...], ...]:
        """Per object g and element position b, the implication column
        imp(b, I(g, m)) over the attributes m, encoded as one int (see
        ``Algebra._code``): an intent is the ``&`` of one mask per object.
        Built on first use, by ``VectorCode.masks``."""
        return self.algebra._code.masks(self.row_positions)

    @cached_property
    def column_masks(self) -> tuple[tuple[int, ...], ...]:
        """Per attribute m and element position b, imp(b, I(g, m)) over the
        objects g, encoded as one int: an extent is the ``&`` of one mask
        per attribute."""
        return self.algebra._code.masks(self.column_positions)

    def attribute_index(self, name: str) -> int:
        try:
            return self.attributes.index(name)
        except ValueError:
            raise StructureError(f"no attribute named {name!r}") from None


class ExtensionConfig(_Value):
    """Knobs for the candidate-column generator.

    ``max_meet_arity`` bounds the k-wise meets (pairs by default, though
    with the novelty filter ``_subset_meets`` keeps any arity output-sized);
    ``meet_subsets`` pins an explicit list of source-index tuples instead of
    enumerating, which is how the two-column preset is expressed.
    """

    _fields = ("max_meet_arity", "include_top_column", "novelty_filter", "meet_subsets")

    def __init__(
        self,
        max_meet_arity: int = 2,
        include_top_column: bool = True,
        novelty_filter: bool = True,
        meet_subsets: tuple[tuple[int, ...], ...] | None = None,
    ):
        _setattr(self, "max_meet_arity", max_meet_arity)
        _setattr(self, "include_top_column", include_top_column)
        _setattr(self, "novelty_filter", novelty_filter)
        _setattr(self, "meet_subsets", meet_subsets)


def extend_context(context: FuzzyContext, config: ExtensionConfig | None = None) -> FuzzyContext:
    """Append candidate tacit columns to an unextended context.

    Candidates are the column meets of every subset of original attributes
    with arity 2..max_meet_arity (subsets in lexicographic index order, arity
    ascending), then one all-top column. With the novelty filter on, a
    candidate equal to an existing or already-added column is dropped.
    Original columns are never touched; new columns carry meet/top
    provenance and fresh names continuing the ``m<k>`` numbering.

    Columns are compared as encoded ints (see ``Algebra._code``, which is
    injective) and decoded once each, when the rows are built. Enumerated
    candidates come from ``_subset_meets``, which, with the novelty filter
    on, skips the subsets whose meets the filter would drop.
    """
    cfg = config or ExtensionConfig()
    if cfg.max_meet_arity < 2:
        raise ValueError(f"max_meet_arity must be >= 2, got {cfg.max_meet_arity}")
    if any(p.kind != ORIGINAL for p in context.provenance):
        raise ValueError("context has derived columns already; extend the original")

    algebra, n_attrs = context.algebra, len(context.attributes)
    code, n = algebra._code, len(context.objects)
    columns = [code.encode(column) for column in context.column_positions]
    top = code.top(n)
    if cfg.meet_subsets is not None:
        candidates = []
        for subset in cfg.meet_subsets:
            idx = tuple(int(s) for s in subset)
            if len(idx) < 2 or list(idx) != sorted(set(idx)):
                raise ValueError(f"meet subset {subset!r} must be >= 2 strictly increasing indices")
            if idx[0] < 0 or idx[-1] >= n_attrs:
                raise ValueError(f"meet subset {subset!r} out of range")
            candidates.append((idx, _meet(columns, idx, top)))
    else:
        arities = range(2, cfg.max_meet_arity + 1)
        candidates = _subset_meets(columns, top, arities, cfg.novelty_filter)

    seen = set(columns)
    # (source subset, encoded column) per admitted column; () is the top one
    new_columns: list[tuple[tuple[int, ...], int]] = []
    top_column = [((), top)] if cfg.include_top_column else []
    for subset, column in itertools.chain(candidates, top_column):
        if not (cfg.novelty_filter and column in seen):
            new_columns.append((subset, column))
            seen.add(column)

    used = set(context.attributes)
    fresh = (name for i in itertools.count(n_attrs + 1) if (name := f"m{i}") not in used)
    names = context.attributes + tuple(itertools.islice(fresh, len(new_columns)))

    els = algebra.elements
    added = [code.decode(column, n) for _, column in new_columns]
    rows = tuple(row + tuple([els[col[g]] for col in added]) for g, row in enumerate(context.rows))
    meet_of, constant_top = AttributeProvenance.meet_of, AttributeProvenance.constant_top()
    provenance = context.provenance + tuple(meet_of(s) if s else constant_top for s, _ in new_columns)
    return FuzzyContext(algebra, context.objects, names, rows, provenance)


def _meet(columns, subset, top: int) -> int:
    """The pointwise meet of the encoded ``columns[s]`` for s in ``subset``
    (see ``Algebra._code``); ``top``, the all-top int, is the empty meet."""
    for s in subset:
        top &= columns[s]
    return top


def _subset_meets(columns, top: int, arities, distinct: bool):
    """Yield ``(subset, meet)`` for the index subsets of the encoded
    ``columns`` with a size in ``arities`` (ascending), in lexicographic
    order, arity ascending (the empty subset meets to ``top``). Each arity
    extends the one below by a later index, one ``&`` each.

    With ``distinct``, an arity keeps only the first subset of each meet,
    so it holds at most as many subsets as there are distinct meets, and
    each meet's first subset at each arity still comes: were it T + (j,)
    with T dropped for an earlier R of T's meet, then R with j added (or,
    if j is in R, R with an index of T that R lacks) would be an earlier
    subset of that arity with that meet. Arities above len(columns) are
    empty and not built.
    """
    level = [((), top)]
    for arity in range(min(arities[-1], len(columns)) + 1):
        if arity:
            meets, grown = set(), []
            for subset, meet in level:
                for j in range(subset[-1] + 1 if subset else 0, len(columns)):
                    column = meet & columns[j]
                    if distinct:
                        if column in meets:
                            continue
                        meets.add(column)
                    grown.append((subset + (j,), column))
            level = grown
        if arity in arities:
            yield from level


def restrict_agrees(base: FuzzyContext, extended: FuzzyContext) -> bool:
    """True iff the extended context, restricted to the base attributes,
    equals the base grid cell for cell.

    The two contexts must share the algebra and the object list, and every
    base attribute must be present in the extension; a missing name raises
    StructureError rather than returning False.
    """
    if base.algebra != extended.algebra:
        raise StructureError("contexts use different algebras")
    if base.objects != extended.objects:
        raise StructureError("contexts do not list the same objects")
    positions = [extended.attribute_index(name) for name in base.attributes]
    columns = extended.column_positions
    return all(columns[pos] == column for pos, column in zip(positions, base.column_positions))


def parse_context(text: str, base_dir: str = ".") -> FuzzyContext:
    """Parse the line-oriented context format.

    Layout (``#`` starts a comment)::

        algebra product 3 2        # or: algebra table <path>
        alias a=SlT b=SlF I=AbT O=AbF
        attributes m1 m2 m3
        g1 a b I
        g2 b O a

    The algebra line comes first, optional alias lines next, then the
    attribute list, then one row per object. Table paths resolve relative to
    ``base_dir``. All parsed attributes carry original provenance.
    """
    return _parse_context(text, base_dir, {})


def _parse_context(text: str, base_dir: str, algebras: dict) -> FuzzyContext:
    """``parse_context`` with the algebras built so far, keyed by
    ``base_dir`` and the algebra line's words: a line met before takes its
    algebra from ``algebras`` rather than building it again, so contexts
    parsed with one dict share one ``Algebra``."""
    algebra: Algebra | None = None
    aliases: dict[str, TruthValue] = {}
    attributes: list[str] | None = None
    objects: list[str] = []
    rows: list[tuple[TruthValue, ...]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]

        if head == "algebra":
            if algebra is not None:
                raise ParseError("duplicate 'algebra' line", lineno)
            key = (base_dir, tuple(parts))
            if key in algebras:
                algebra = algebras[key]
            elif len(parts) >= 2 and parts[1] == "product":
                try:
                    sizes = [int(p) for p in parts[2:]]
                except ValueError:
                    raise ParseError("product sizes must be integers", lineno) from None
                if not sizes:
                    raise ParseError("'algebra product' needs chain sizes", lineno)
                try:
                    algebra = ProductAlgebra(sizes)
                except ValueError as exc:
                    raise ParseError(str(exc), lineno) from None
            elif len(parts) == 3 and parts[1] == "table":
                path = parts[2]
                full = os.path.join(base_dir, path)
                try:
                    with open(full, encoding="utf-8") as handle:
                        algebra = load_table_algebra(handle.read(), source=path)
                except OSError as exc:
                    raise ParseError(f"cannot read table file {path!r}: {exc}", lineno) from None
            else:
                raise ParseError("expected 'algebra product <sizes>' or 'algebra table <path>'", lineno)
            algebras[key] = algebra
            continue

        if algebra is None:
            raise ParseError("the first directive must be 'algebra'", lineno)

        if head == "alias":
            if attributes is not None:
                raise ParseError("'alias' must precede 'attributes'", lineno)
            for item in parts[1:]:
                token, sep, target = item.partition("=")
                if not sep or not token or not target:
                    raise ParseError(f"alias entries look like tok=Value, got {item!r}", lineno)
                if token in aliases:
                    raise ParseError(f"duplicate alias {token!r}", lineno)
                try:
                    aliases[token] = algebra.parse_value(target)
                except ValueError as exc:
                    raise ParseError(str(exc), lineno) from None
            continue

        if head == "attributes":
            if attributes is not None:
                raise ParseError("duplicate 'attributes' line", lineno)
            attributes = parts[1:]
            if len(set(attributes)) != len(attributes):
                raise ParseError("duplicate attribute name", lineno)
            continue

        if attributes is None:
            raise ParseError("object rows must follow the 'attributes' line", lineno)
        obj = head
        if obj in objects:
            raise ParseError(f"duplicate object name {obj!r}", lineno)
        tokens = parts[1:]
        if len(tokens) != len(attributes):
            raise ParseError(
                f"row {obj!r} has {len(tokens)} values for {len(attributes)} attributes",
                lineno,
            )
        values = []
        for token in tokens:
            if token in aliases:
                values.append(aliases[token])
                continue
            try:
                values.append(algebra.parse_value(token))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
        objects.append(obj)
        rows.append(tuple(values))

    if algebra is None:
        raise ParseError("missing 'algebra' line")
    if attributes is None:
        raise ParseError("missing 'attributes' line")
    return FuzzyContext(algebra, tuple(objects), tuple(attributes), tuple(rows))


def serialize_context(context: FuzzyContext) -> str:
    """Render a context in canonical form (no aliases, single spaces).

    Parsing the result reproduces the context exactly, except that derived
    columns come back as plain data: their provenance is emitted as comments
    for the reader, not as machine state.

    The algebra line names a product's chain sizes or a table's source path,
    so a table algebra built in memory (one with no ``source``) cannot be
    serialized: this raises ValueError. So does a table path or a name the
    format cannot carry: an empty one, one with whitespace or ``#`` (which
    starts a comment), or an object named like a directive (``algebra``,
    ``alias``, ``attributes``).
    """
    def writable(token: str) -> bool:
        return token.split() == [token] and "#" not in token

    description = context.algebra.describe()
    head, _, path = description.partition(" ")
    if head == "table" and not writable(path):
        raise ValueError(f"table path {path!r} cannot be written in the context format")
    lines = [f"algebra {description}"]
    for kind, names in (("attribute", context.attributes), ("object", context.objects)):
        for name in names:
            directive = kind == "object" and name in ("algebra", "alias", "attributes")
            if not writable(name) or directive:
                raise ValueError(f"{kind} name {name!r} cannot be written in the context format")
    lines.append(("attributes " + " ".join(context.attributes)).rstrip())
    for name, prov in zip(context.attributes, context.provenance):
        if prov.kind != ORIGINAL:
            lines.append(f"# {name} = {prov.formula(context.attributes)}")
    spellings = context.algebra._spellings
    for obj, row in zip(context.objects, context.row_positions):
        lines.append((obj + " " + " ".join([spellings[p] for p in row])).rstrip())
    return "\n".join(lines) + "\n"

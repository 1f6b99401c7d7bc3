"""Tacit-attribute mining via congener contexts.

An attribute extension is congener when it leaves the family of concept
extents unchanged. Over a lattice implication algebra, scanned over the
"generated" or "full" domain, that holds exactly when every new column,
read as an object-side set, is an extent of the base context: base extents
are closed under meets and under shifts a -> A, and the extents of an
extension by a column c are the sets E meet (b -> c) for a base extent E
and a value b. A column c is an extent exactly when it is its own
closure, closure_extent(base, c) == c, and both domains are subalgebras
holding every cell, so that closed column is also an extent of the base
lattice enumerated over the domain. The rule costs two derivations per
new column, on the encoded kernel (``galois._derive``), and no lattice.
Columns that are meets of existing columns, or constant top (the meet of
no columns), are always extents; they are the tacit attributes this
module hunts for. ``extend_context`` builds them and ``classify_columns``
names their sources from one fold over attribute subsets
(``context._subset_meets``). ``is_congener`` and ``mine`` take the
congener decision by that one rule, and enumerate the extension only
where it does not settle the question: on an algebra not shown to be a
lattice implication algebra (see ``Algebra._is_lia``), over an explicit
domain, or for a non-congener extension, whose witnesses need both
lattices. Where the rule shows an extension congener, ``is_congener``
builds no lattice at all: it counts the base concepts as the distinct
images of the base scan's fold (``galois._images``), one per concept over
a lattice implication algebra. The fast extension rewrites each base
concept's intent instead of re-enumerating, and ``mine`` checks it
concept by concept against intents computed independently of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import (
    ORIGINAL,
    ExtensionConfig,
    FuzzyContext,
    _meet,
    _subset_meets,
    extend_context,
    restrict_agrees,
)
from .errors import PreconditionError, UnclassifiedColumnError
from .galois import (
    DEFAULT_CANDIDATE_BUDGET,
    EXTENT_SCAN,
    FULL_DOMAIN,
    GENERATED_DOMAIN,
    OBJECTS,
    ConceptLattice,
    FuzzySet,
    _derive,
    _images,
    enumerate_concepts,
    scan_domain,
)

RULE_PAIR_MEET = "pair-meet"
RULE_K_MEET = "k-meet"
RULE_ALL_TOP = "all-top"


@dataclass(frozen=True)
class CongenerReport:
    """Extent-family comparison between a context and its extension.

    ``witnesses`` lists the extents present on exactly one side, tagged
    "base" or "extended"; the extension is congener exactly when that list
    is empty.
    """

    base_extent_count: int
    extended_extent_count: int
    witnesses: tuple[tuple[str, FuzzySet], ...]

    @property
    def is_congener(self) -> bool:
        return not self.witnesses


@dataclass(frozen=True)
class TheoremCheck:
    """Which sufficient condition a new column satisfies, if any.

    ``rule`` is "pair-meet" for a meet of two original columns, "k-meet"
    for any other source count, "all-top" for the constant-top column (the
    meet of no columns), and None when no condition matched (the column is
    unclassified and only a full enumeration can settle the congener
    question).
    """

    attribute: str
    rule: str | None
    satisfied: bool
    sources: tuple[str, ...] = ()


@dataclass(frozen=True)
class MiningReport:
    """End-to-end mining outcome: the tacit columns and their formulas, the
    per-column checks, the congener verdict, and whether the fast extension
    agreed with the recomputed lattice concept for concept."""

    tacit_attributes: tuple[tuple[str, str], ...]
    theorem_checks: tuple[TheoremCheck, ...]
    congener: CongenerReport
    fast_extension_verified: bool

    def as_dict(self, context: FuzzyContext) -> dict:
        """The JSON-facing shape of the report."""
        fmt = context.algebra.format_value
        by_attr = {check.attribute: check for check in self.theorem_checks}
        tacit = []
        for name, _formula in self.tacit_attributes:
            check = by_attr.get(name)
            if check is not None and check.rule == RULE_ALL_TOP:
                kind = "top"
            elif check is not None and check.satisfied:
                kind = "meet"
            else:
                kind = "unclassified"
            tacit.append(
                {"name": name, "kind": kind, "sources": list(check.sources) if check else []}
            )
        return {
            "tacit": tacit,
            "congener": self.congener.is_congener,
            "concepts_base": self.congener.base_extent_count,
            "concepts_ext": self.congener.extended_extent_count,
            "fast_verified": self.fast_extension_verified,
            "witnesses": [
                {"side": side, "extent": [fmt(v) for v in extent.values]}
                for side, extent in self.congener.witnesses
            ],
        }


def _require_restriction(base: FuzzyContext, extended: FuzzyContext) -> None:
    if not restrict_agrees(base, extended):
        raise PreconditionError(
            "the extension disagrees with the base context on an original cell"
        )


def _congener_report(
    base_lattice: ConceptLattice, extended_lattice: ConceptLattice
) -> CongenerReport:
    """Compare the extent families of the two lattices, as sets of position
    tuples; only the witnesses become ``FuzzySet``s, sorted by side, then
    by their values' coordinates."""
    base_extents = set(base_lattice._extents)
    ext_extents = set(extended_lattice._extents)
    els = base_lattice.context.algebra.elements
    witnesses = [("base", e) for e in base_extents - ext_extents]
    witnesses += [("extended", e) for e in ext_extents - base_extents]
    witnesses.sort(key=lambda w: (w[0], tuple([els[p].coords for p in w[1]])))
    # equal extent families force equal order structure as well: the concept
    # order is pointwise extent comparison, so no separate check is needed
    return CongenerReport(
        base_extent_count=len(base_extents),
        extended_extent_count=len(ext_extents),
        witnesses=tuple(
            (side, FuzzySet(OBJECTS, tuple([els[p] for p in extent])))
            for side, extent in witnesses
        ),
    )


def _closed_extension(base: FuzzyContext, extended: FuzzyContext, domain) -> bool:
    """Whether the closure rule shows the extension congener: over a
    lattice implication algebra and the "generated" or "full" domain, every
    new column c, read as an object-side set of element positions, is its
    own closure in the base context, two derivations on the kernel (see the
    module docstring). False where the rule does not apply, or says no."""
    if domain not in (GENERATED_DOMAIN, FULL_DOMAIN) or not base.algebra._is_lia:
        return False
    algebra, base_names = base.algebra, set(base.attributes)
    objects, attributes = len(base.objects), len(base.attributes)
    row_masks, column_masks = base.row_masks, base.column_masks
    return all(
        _derive(algebra, column_masks, objects, _derive(algebra, row_masks, attributes, c)) == c
        for name, c in zip(extended.attributes, extended.column_positions)
        if name not in base_names
    )


def is_congener(
    base: FuzzyContext,
    extended: FuzzyContext,
    *,
    engine: str = EXTENT_SCAN,
    domain=GENERATED_DOMAIN,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> CongenerReport:
    """Compare the extent families of a context and its extension.

    The decision is the one ``mine`` takes. Over a lattice implication
    algebra and the "generated" or "full" domain, an extension whose new
    columns are all closed in the base context is congener (see the module
    docstring), and the report needs no lattice: equal counts, no
    witnesses, the count being the number of distinct images of the base
    scan's fold, one per concept there. Otherwise both lattices are
    enumerated and their extent families compared, which yields the
    witnesses. Both are scanned over one domain, resolved on the extension.
    """
    _require_restriction(base, extended)
    # "generated" resolves on the extension, a superset of the base's; the
    # contexts share one algebra, so "full" and explicit values resolve the
    # same
    values = scan_domain(extended, domain)
    if _closed_extension(base, extended, domain):
        count = len(_images(base, engine, values, budget))
        return CongenerReport(base_extent_count=count, extended_extent_count=count, witnesses=())
    base_lattice = enumerate_concepts(base, engine, domain=values, budget=budget)
    return _congener_report(
        base_lattice, enumerate_concepts(extended, engine, domain=values, budget=budget)
    )


def classify_columns(base: FuzzyContext, extended: FuzzyContext) -> list[TheoremCheck]:
    """Match every new column against the sufficient conditions.

    The original-attribute subsets are searched for an exact column match
    (the algebra is finite and discrete, so equality is exact by
    construction): the empty subset first, whose meet is the all-top
    column, then every subset of two or more originals, in lexicographic
    order, arity ascending. An empty match is all-top, two sources are
    pair-meet, any other count is k-meet. Columns matching nothing come
    back unsatisfied with rule None.

    A context's order is a lattice, so a matching subset lies inside the
    column's upper set, the originals pointwise at or above it, and then
    the whole upper set meets to the column too. So a column whose upper
    set meets to anything else, or (unless the column is top) holds fewer
    than two originals, is unclassified without a search; the rest
    take their first matches from one ``context._subset_meets`` fold.
    """
    _require_restriction(base, extended)
    code, n_orig = base.algebra._code, len(base.attributes)
    arities = (0, *range(2, n_orig + 1))
    base_names = set(base.attributes)
    originals = [code.encode(column) for column in base.column_positions]
    top = code.top(len(base.objects))

    # per new column its first matching subset, None until one is found;
    # the encoded columns still searched for, with their names
    matches: dict[str, tuple[int, ...] | None] = {}
    pending: dict[int, list[str]] = {}
    for name, column in zip(extended.attributes, extended.column_positions):
        if name in base_names:
            continue
        matches[name], column = None, code.encode(column)
        pool = [s for s in range(n_orig) if not column & ~originals[s]]
        if _meet(originals, pool, top) == column and (len(pool) >= 2 or column == top):
            pending.setdefault(column, []).append(name)
    for subset, meet in _subset_meets(originals, top, arities, True):
        for name in pending.pop(meet, ()):
            matches[name] = subset
        if not pending:
            break

    rules = {0: RULE_ALL_TOP, 2: RULE_PAIR_MEET}
    return [
        TheoremCheck(name, None, False) if match is None else TheoremCheck(
            name, rules.get(len(match), RULE_K_MEET), True, tuple(base.attributes[s] for s in match)
        )
        for name, match in matches.items()
    ]


def extend_concepts_fast(
    base_lattice: ConceptLattice,
    extended: FuzzyContext,
    *,
    checks: list[TheoremCheck] | None = None,
) -> ConceptLattice:
    """Rewrite the base concepts into the extension's lattice without
    re-enumerating. The base context is ``base_lattice.context``.

    Every concept keeps its extent; its intent gains, per new column, the
    meet of the intent components at the column's sources (the empty meet,
    top, for the constant-top column). Each is one ``&`` per source of the
    encoded columns over all concepts (see ``Algebra._code``), decoded
    once, and the intents are one transpose of the columns. Sound only when
    every new column is classified: an unsatisfied check, or a new column
    with no check, raises UnclassifiedColumnError, and the caller must fall
    back to enumerate_concepts on the extension. A satisfied check whose sources
    name anything but a base attribute raises PreconditionError.
    """
    base = base_lattice.context
    if checks is None:
        checks = classify_columns(base, extended)
    else:
        _require_restriction(base, extended)
    base_index = {name: i for i, name in enumerate(base.attributes)}
    by_attr = {c.attribute: c for c in checks}
    new_names = [name for name in extended.attributes if name not in base_index]
    unexplained = [c.attribute for c in checks if not c.satisfied]
    unexplained += [name for name in new_names if name not in by_attr]
    if unexplained:
        raise UnclassifiedColumnError(
            "fast extension is unsound for unclassified columns "
            f"{unexplained}; enumerate the extended context instead"
        )
    for name in new_names:
        for s in by_attr[name].sources:
            if s not in base_index:
                raise PreconditionError(f"the check of {name} names {s!r}, not a base attribute")
    code, n = base.algebra._code, len(base_lattice)
    sources = {name: tuple(base_index[s] for s in by_attr[name].sources) for name in new_names}
    # per base attribute, the intent components of the concepts in lattice
    # order, as a position column and encoded
    components = tuple(zip(*base_lattice._intents))
    encoded = [code.encode(column) for column in components]
    new = {name: code.decode(_meet(encoded, s, code.top(n)), n) for name, s in sources.items()}
    columns = [
        new[name] if name in new else components[base_index[name]] for name in extended.attributes
    ]
    intents = list(zip(*columns)) or [()] * n
    return ConceptLattice._from_positions(extended, zip(base_lattice._extents, intents))


def mine(
    context: FuzzyContext,
    config: ExtensionConfig | None = None,
    *,
    engine: str = EXTENT_SCAN,
    domain=GENERATED_DOMAIN,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> MiningReport:
    """Full pipeline: extend, classify, fast-extend, verify, report.

    The congener verdict is the one is_congener takes, by the same closure
    rule. The base lattice is enumerated here, since the fast extension
    rewrites its intents, and the base count is its size; the extension is
    enumerated only where the rule does not show it congener, as in
    is_congener. A congener extension's concepts are the base extents, in the
    base lattice's order (the order reads extents only), so the fast
    extension is verified concept by concept against intents computed
    independently of it, rather than trusted: each base extent's intent
    derived in the extension. Where the extension was enumerated, that is
    the intent its lattice pairs with the extent, since enumeration pairs
    every extent with its forward derivation. Both sides are compared as
    tuples of element positions. A non-congener extension builds no fast
    extension and reports it unverified.
    """
    extended = extend_context(context, config)
    checks = classify_columns(context, extended)
    values = scan_domain(extended, domain)
    base_lattice = enumerate_concepts(context, engine, domain=values, budget=budget)
    if _closed_extension(context, extended, domain):
        count = len(base_lattice)
        congener = CongenerReport(base_extent_count=count, extended_extent_count=count, witnesses=())
    else:
        extended_lattice = enumerate_concepts(extended, engine, domain=values, budget=budget)
        congener = _congener_report(base_lattice, extended_lattice)

    fast_verified = False
    if congener.is_congener and all(c.satisfied for c in checks):
        fast_lattice = extend_concepts_fast(base_lattice, extended, checks=checks)
        masks, width = extended.row_masks, len(extended.attributes)
        fast_verified = fast_lattice._intents == tuple(
            _derive(context.algebra, masks, width, extent) for extent in base_lattice._extents
        )

    tacit = tuple(
        (name, prov.formula(extended.attributes))
        for name, prov in zip(extended.attributes, extended.provenance)
        if prov.kind != ORIGINAL
    )
    return MiningReport(
        tacit_attributes=tacit,
        theorem_checks=tuple(checks),
        congener=congener,
        fast_extension_verified=fast_verified,
    )

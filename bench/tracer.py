"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the package, the public functions of
``ltvcl.cli``, ``context``, ``lia``, ``galois`` and ``tacit``, plus the
few methods that carry a layer's work (``Algebra.hasse_covers``,
``Algebra.generated_subalgebra``, ``ConceptLattice.order_pairs`` and
``ConceptLattice.covers``). Every module-level name bound to a wrapped
function is rebound, so calls across layers (``mine`` into
``enumerate_concepts``, the CLI into everything) are seen too. Nothing
under ``src/`` changes, and :meth:`Tracer.uninstall` restores every name.

Each call records a span ``[id, parent, job, name, start, end, counts]``
in memory. Functions called once per candidate or per concept are too hot
for spans and stay inside their caller's self time: ``derive_intent`` and
``derive_extent`` are counted and timed in aggregate (the closure rate),
and the per-element helpers listed in ``UNTRACED`` are left alone.
"""

from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter

COUNTED = {"galois": ("derive_intent", "derive_extent")}
UNTRACED = {
    "galois": ("concept_label", "pointwise_leq", "pointwise_meet", "pointwise_join",
               "closure_extent", "closure_intent", "object_set", "attribute_set"),
    "lia": ("label_to_value", "label_from_value", "default_algebra"),
}


# counts taken from a call's arguments and result, by span name
ANNOTATIONS = {
    "galois.enumerate_concepts": lambda args, kw, r: {"concepts": len(r)},
    "galois.ConceptLattice.covers": lambda args, kw, r: {"edges": len(r)},
    "context.extend_context": lambda args, kw, r: {
        "columns_added": len(r.attributes) - len(args[0].attributes)},
    "lia.check_axioms": lambda args, kw, r: {"triples": len(args[0].elements) ** 3},
    "tacit.classify_columns": lambda args, kw, r: {
        "unclassified": sum(1 for c in r if not c.satisfied)},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = 0
        self.derive_calls = 0
        self.derive_cells = 0
        self.derive_seconds = 0.0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- wrappers -------------------------------------------------------------

    def _span(self, name: str, func):
        annotate = ANNOTATIONS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, self.job, name,
                      perf_counter(), 0.0, None]
            spans.append(record)
            stack.append(record[0])
            try:
                result = func(*args, **kwargs)
            finally:
                record[5] = perf_counter()
                stack.pop()
            if annotate is not None:
                record[6] = annotate(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, func):
        @functools.wraps(func)
        def wrapper(context, fset):
            start = perf_counter()
            result = func(context, fset)
            self.derive_seconds += perf_counter() - start
            self.derive_calls += 1
            self.derive_cells += len(context.objects) * len(context.attributes)
            return result

        return wrapper

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        import ltvcl
        from ltvcl import cli, context, galois, lia, tacit

        modules = {"cli": cli, "context": context, "lia": lia, "galois": galois, "tacit": tacit}
        replacement = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (not inspect.isfunction(obj) or obj.__module__ != module.__name__
                        or name.startswith("_") or name in UNTRACED.get(layer, ())):
                    continue
                if name in COUNTED.get(layer, ()):
                    replacement[obj] = self._counted(obj)
                else:
                    replacement[obj] = self._span(f"{layer}.{name}", obj)
        for module in (ltvcl, *modules.values()):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    self._rebind(module, name, replacement[obj])

        for cls, name in ((lia.Algebra, "hasse_covers"), (lia.Algebra, "generated_subalgebra")):
            self._rebind(cls, name, self._span(f"lia.{cls.__name__}.{name}", vars(cls)[name]))
        for name in ("order_pairs", "covers"):
            cls = galois.ConceptLattice
            prop = functools.cached_property(self._span(f"galois.ConceptLattice.{name}", vars(cls)[name].func))
            prop.__set_name__(cls, name)
            self._rebind(cls, name, prop)

    def _rebind(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def dump(self, path) -> None:
        """Write the spans and the closure counters as one JSON document."""
        doc = {
            "fields": ["id", "parent", "job", "name", "start", "end", "counts"],
            "spans": self.spans,
            "derive": {"calls": self.derive_calls, "cells": self.derive_cells,
                       "seconds": self.derive_seconds},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


# --- per-layer metrics -------------------------------------------------------

# name -> (unit, better); the order is the order they are printed in
LAYER_METRICS = {
    "cli.self_s": ("s", "lower"),
    "context.parse_s": ("s", "lower"),
    "context.extend_s": ("s", "lower"),
    "context.columns_added": ("count", "higher"),
    "lia.check_axioms_s": ("s", "lower"),
    "lia.axiom_triples_per_s": ("1/s", "higher"),
    "lia.hasse_covers_s": ("s", "lower"),
    "lia.table_load_s": ("s", "lower"),
    "lia.subalgebra_s": ("s", "lower"),
    "galois.enumerate_s": ("s", "lower"),
    "galois.derive_calls": ("count", "lower"),
    "galois.concepts": ("count", "higher"),
    "galois.derive_calls_per_concept": ("ratio", "lower"),
    "galois.derive_cells_per_s": ("1/s", "higher"),
    "galois.covers_s": ("s", "lower"),
    "galois.cover_edges": ("count", "higher"),
    "galois.export_s": ("s", "lower"),
    "tacit.mine_self_s": ("s", "lower"),
    "tacit.classify_s": ("s", "lower"),
    "tacit.fast_extend_s": ("s", "lower"),
    "tacit.full_enumerate_s": ("s", "lower"),
    "tacit.congener_s": ("s", "lower"),
    "tacit.unclassified": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def layer_metrics(tracer: Tracer, jobs: int, overhead_ratio: float) -> dict[str, float]:
    """Per-layer numbers from the spans. ``_s`` metrics are self time (span
    time minus the time of its child spans), summed and divided by ``jobs``;
    counts are per job too; rates and ratios are taken over the whole run."""
    child_time: dict[int, float] = {}
    for sid, parent, _job, _name, start, end, _counts in tracer.spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    self_time: dict[str, float] = {}
    total_time: dict[str, float] = {}
    counts: dict[str, float] = {}
    full_enumerate = 0.0
    for sid, parent, _job, name, start, end, extra in tracer.spans:
        duration = end - start
        self_time[name] = self_time.get(name, 0.0) + duration - child_time.get(sid, 0.0)
        total_time[name] = total_time.get(name, 0.0) + duration
        for key, value in (extra or {}).items():
            counts[key] = counts.get(key, 0) + value
        if name == "galois.enumerate_concepts" and parent is not None \
                and tracer.spans[parent][3].startswith("tacit."):
            full_enumerate += duration

    def own(*names):
        return sum(self_time.get(n, 0.0) for n in names) / jobs

    def rate(numerator, seconds):
        return numerator / seconds if seconds > 0 else 0.0

    concepts = counts.get("concepts", 0)
    return {
        "cli.self_s": own(*[n for n in self_time if n.startswith("cli.")]),
        "context.parse_s": own("context.parse_context"),
        "context.extend_s": own("context.extend_context"),
        "context.columns_added": counts.get("columns_added", 0) / jobs,
        "lia.check_axioms_s": own("lia.check_axioms"),
        "lia.axiom_triples_per_s": rate(counts.get("triples", 0),
                                        total_time.get("lia.check_axioms", 0.0)),
        "lia.hasse_covers_s": own("lia.Algebra.hasse_covers"),
        "lia.table_load_s": own("lia.load_table_algebra"),
        "lia.subalgebra_s": own("lia.Algebra.generated_subalgebra"),
        "galois.enumerate_s": own("galois.enumerate_concepts"),
        "galois.derive_calls": tracer.derive_calls / jobs,
        "galois.concepts": concepts / jobs,
        "galois.derive_calls_per_concept": tracer.derive_calls / concepts if concepts else 0.0,
        "galois.derive_cells_per_s": rate(tracer.derive_cells, tracer.derive_seconds),
        "galois.covers_s": own("galois.ConceptLattice.order_pairs", "galois.ConceptLattice.covers"),
        "galois.cover_edges": counts.get("edges", 0) / jobs,
        "galois.export_s": own("galois.export_json", "galois.export_dot"),
        "tacit.mine_self_s": own("tacit.mine"),
        "tacit.classify_s": own("tacit.classify_columns"),
        "tacit.fast_extend_s": own("tacit.extend_concepts_fast"),
        "tacit.full_enumerate_s": full_enumerate / jobs,
        "tacit.congener_s": own("tacit.is_congener"),
        "tacit.unclassified": counts.get("unclassified", 0) / jobs,
        "trace.overhead_ratio": overhead_ratio,
    }

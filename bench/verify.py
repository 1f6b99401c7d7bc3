"""Output checker for benchmark jobs.

Every job is judged twice. When the seed has recorded references, the exit
code and digests of stdout and of the written JSON must equal the ones the
reference commit produced. Independently of references, the output must
pass the semantic checks below, which use their own arithmetic and never
call into ltvcl:

- ``concepts``: exit 0, stdout lists exactly the JSON's concepts, and every
  concept is a mutual fixpoint of the derivation pair (Lukasiewicz product
  3 2); covers join a strictly smaller extent to a larger one.
- ``mine``: exit 0, congener and fast extension both affirmed, no
  witnesses, and both concept counts equal the crisp oracle's extent count.
- ``congener``: the verdict, exit code and both counts match the crisp
  oracle on the base context and the rebuilt extension.
- ``algebra``: the element order, the table rows (with --show-tables) and
  the PASS/FAIL verdict match the generated algebra.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from gen import COORDS_OF, DEFAULT_SIZES, TOP, Job, product_imp


@dataclass
class Outcome:
    """What one CLI call produced. ``error`` is set when ``main`` raised."""

    code: int | None
    stdout: str
    json_text: str | None
    error: str | None = None


def digest(text: str | None) -> str | None:
    if text is None:
        return None
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def reference_entry(outcome: Outcome) -> list:
    return [outcome.code, digest(outcome.stdout), digest(outcome.json_text)]


def check(job: Job, outcome: Outcome, reference: list | None) -> str | None:
    """Return why the job failed, or None when its output is correct."""
    if outcome.error is not None:
        return f"raised {outcome.error}"
    if reference is not None and reference_entry(outcome) != list(reference):
        return f"differs from reference: got {reference_entry(outcome)}, want {reference}"
    try:
        return CHECKS[job.kind](job, outcome)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


# --- concepts ---------------------------------------------------------------

def _imp(x, y):
    return product_imp(DEFAULT_SIZES, x, y)


def _meet_all(values):
    out = DEFAULT_SIZES  # the top element
    for v in values:
        out = tuple(min(a, b) for a, b in zip(out, v))
    return out


def derive_intent(rows, extent):
    return [_meet_all(_imp(a, row[m]) for a, row in zip(extent, rows))
            for m in range(len(rows[0]))]


def derive_extent(rows, intent):
    return [_meet_all(_imp(b, v) for b, v in zip(intent, row)) for row in rows]


def _check_concepts(job: Job, outcome: Outcome) -> str | None:
    if outcome.code != 0:
        return f"exit code {outcome.code}, want 0"
    doc = json.loads(outcome.json_text)
    rows = [[COORDS_OF[v] for v in row] for row in job.spec["matrix"]]
    concepts = doc["concepts"]
    if len(doc["objects"]) != len(rows) or len(doc["attributes"]) != len(rows[0]):
        return "JSON object or attribute list does not match the context"
    lines = outcome.stdout.splitlines()
    if lines[0] != f"{len(concepts)} concepts" or len(lines) != len(concepts) + 1:
        return "stdout does not list the JSON's concepts"
    extents = []
    for i, concept in enumerate(concepts):
        extent = [COORDS_OF[v] for v in concept["extent"]]
        intent = [COORDS_OF[v] for v in concept["intent"]]
        if lines[i + 1] != f"{i}# ({' '.join(concept['extent'])} | {' '.join(concept['intent'])})":
            return f"stdout line for concept {i} differs from the JSON"
        if derive_intent(rows, extent) != intent or derive_extent(rows, intent) != extent:
            return f"concept {i} is not a mutual fixpoint"
        extents.append(extent)
    if len({tuple(e) for e in extents}) != len(extents):
        return "a concept is listed twice"
    for low, high in doc["covers"]:
        a, b = extents[low], extents[high]
        if a == b or not all(x <= y for u, v in zip(a, b) for x, y in zip(u, v)):
            return f"cover ({low}, {high}) does not go from a smaller extent to a larger one"
    return None


# --- mine and check-congener -----------------------------------------------

def crisp_extents(matrix) -> set[int]:
    """Extents of a context whose cells are all top or bottom, as object
    bitmasks: the intersections of every set of attribute columns."""
    full = (1 << len(matrix)) - 1
    extents = {full}
    for m in range(len(matrix[0])):
        column = sum(1 << g for g, row in enumerate(matrix) if row[m] == TOP)
        extents |= {e & column for e in extents}
    return extents


def _check_mine(job: Job, outcome: Outcome) -> str | None:
    if outcome.code != 0:
        return f"exit code {outcome.code}, want 0"
    doc = json.loads(outcome.json_text)
    count = len(crisp_extents(job.spec["matrix"]))
    if not (doc["congener"] and doc["fast_verified"]) or doc["witnesses"]:
        return "meet and top columns must be congener and fast-verified"
    if doc["concepts_base"] != count or doc["concepts_ext"] != count:
        return f"concept counts {doc['concepts_base']}/{doc['concepts_ext']}, oracle has {count}"
    base = {f"m{j}" for j in range(1, len(job.spec["matrix"][0]) + 1)}
    for entry in doc["tacit"]:
        if entry["name"] in base:
            return f"tacit column reuses the name {entry['name']!r}"
        sources = entry["sources"]
        if entry["kind"] == "meet":
            if not 2 <= len(sources) <= job.spec["max_k"] or not set(sources) <= base:
                return f"tacit column {entry['name']!r} has bad sources {sources}"
        elif entry["kind"] != "top" or sources:
            return f"tacit column {entry['name']!r} is {entry['kind']!r}"
    want = f"congener: yes ({count} base concepts, {count} extended)"
    if want not in outcome.stdout.splitlines() or "fast extension verified: yes" not in outcome.stdout:
        return "stdout verdict lines differ from the report"
    return None


def _check_congener(job: Job, outcome: Outcome) -> str | None:
    extended = job.spec.get("extended")
    if extended is None:
        return "no extension to compare: the mine job before it failed"
    base_extents = crisp_extents(job.spec["matrix"])
    ext_extents = crisp_extents(extended)
    same = base_extents == ext_extents
    if outcome.code != (0 if same else 1):
        return f"exit code {outcome.code}, oracle says congener={same}"
    lines = outcome.stdout.splitlines()
    want = [f"base concepts: {len(base_extents)}, extended concepts: {len(ext_extents)}",
            f"congener: {'yes' if same else 'no'}"]
    if lines[:2] != want:
        return f"stdout starts {lines[:2]}, want {want}"
    return None


# --- algebra ----------------------------------------------------------------

def _check_algebra(job: Job, outcome: Outcome) -> str | None:
    spec = job.spec
    passes = spec["passes"]
    if outcome.code != (0 if passes else 1):
        return f"exit code {outcome.code}, want {0 if passes else 1}"
    lines = outcome.stdout.splitlines()
    if lines[0] != "elements: " + " ".join(spec["elements"]):
        return "element order differs"
    n = len(spec["elements"])
    if spec["show"]:
        start = lines.index("imp table:") + 1
        for x, row, line in zip(spec["elements"], spec["rows"], lines[start:start + n]):
            if line != f"  imp {x} " + " ".join(row):
                return f"implication row of {x} differs"
    verdict = [line for line in lines if line.startswith("axioms: ")]
    want = f"axioms: PASS ({n ** 3} triples)" if passes else "axioms: FAIL ("
    if len(verdict) != 1 or not verdict[0].startswith(want):
        return f"axiom verdict {verdict}, want {want!r}"
    return None


CHECKS = {
    "concepts": _check_concepts,
    "mine": _check_mine,
    "congener": _check_congener,
    "algebra": _check_algebra,
}

"""Seeded input generator for the benchmark workloads.

Everything here is stdlib only and independent of ltvcl: the program under
test receives nothing but the context and table files written from these
plans. The same (workload, seed) pair always yields the same files and the
same job list.

A plan is a list of jobs made of whole *cycles*. One cycle holds every size
class of the workload in a fixed mix, so any number of whole cycles has the
same mix; the runner only stops at a cycle boundary.

Each workload's contexts are random, but drawn once, from a generator seed
fixed per workload: every cycle starts from the same base contexts. What
``--seed`` draws is a fresh permutation of the objects and attributes of
every context in every cycle, plus all other seeded choices (table element
orders, corrupted table entries, flipped cells). A context's cost follows
its concept structure, which a permutation keeps, so every seed and every
cycle does the same work, and the spread between runs measures the machine
and the program rather than the draw. With contexts drawn afresh per seed,
the spread of lattice throughput over five seeds was 15%, and that of the
median job time 39%, because one heavy context with 650 concepts costs
twice one with 200.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("lattice", "mine", "algebra")
DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# Canonical spelling of the default algebra (product 3 2), keyed by coordinates.
LABEL_OF = {
    (3, 2): "AbT", (2, 2): "VeT", (1, 2): "SlT",
    (3, 1): "SlF", (2, 1): "VeF", (1, 1): "AbF",
}
COORDS_OF = {label: coords for coords, label in LABEL_OF.items()}
DEFAULT_SIZES = (3, 2)
TOP, BOTTOM = "AbT", "AbF"

# Percentiles. With n jobs in a cycle, every cycle doing the same work, and
# k whole cycles run, the sorted samples come in blocks of k per job. For
# odd n the median is then a sample of the cycle's middle job for every k,
# and the 90th percentile stays on one job too; each cycle below is ordered
# in code for variety, and sized so that both land inside a group of jobs of
# one size class, away from the jump to the next class.

# (objects, attributes) per lattice job. The scan covers |D|^|G| object-side
# candidates, or |D|^|M| with --engine intent, which the 5x4 contexts (more
# objects than attributes, a fixed 3 of 11) use. Nine jobs scan 6^4
# candidates and two scan 6^5: sorted by time, job 6 of 11 (the median) is
# a 5x4 intent scan and job 10 (the 90th percentile) one of the 6^5 scans.
LATTICE_CYCLE = ((4, 4), (5, 5), (5, 4), (4, 5), (4, 4), (5, 4), (4, 6), (4, 4), (5, 6),
                 (5, 4), (4, 4))

# (objects, attributes, --max-k) per mine job; each mine job is followed by
# two check-congener jobs against its extension, as mined and with one
# derived cell flipped. Crisp cells (AbT with this probability, else AbF)
# keep the generated domain at two values while the extension grows wide.
# Job times rise with the object count (2^|G| candidates): sorted by time,
# job 8 of 15 (the median) is a 7x10 check and job 14 (the 90th
# percentile) a 7x11 check.
MINE_CYCLE = ((6, 12, 4), (7, 10, 4), (6, 11, 4), (7, 11, 3), (7, 10, 4))
MINE_TOP_SHARE = 0.7

# (source, corrupt, show tables) per algebra job. A source is a product given
# by its chain sizes, "chain5" (the repository's data/chain5.lia), or
# ("table", sizes): a table file generated from that product with a seeded
# element order. Table algebras check faster than products of the same
# size; sorted by time, the 14 jobs are 3 with 5-6 elements, 2 16-element
# tables, 3 16-element products, 2 25-27-element tables and 4 25-27-element
# products. The median lies between jobs 7 and 8, both 16-element products,
# and the 90th percentile on job 13, a 3 3 3 product.
ALGEBRA_CYCLE = (
    ((3, 2), False, True),
    (("table", (3, 2)), False, False),
    ("chain5", False, False),
    (("table", (4, 4)), False, False),
    (("table", (2, 2, 2, 2)), True, False),
    ((4, 4), False, False),
    ((2, 2, 2, 2), False, True),
    ((4, 4), False, True),
    (("table", (5, 5)), False, True),
    (("table", (3, 3, 3)), True, False),
    ((5, 5), False, False),
    ((3, 3, 3), False, False),
    ((5, 5), False, True),
    ((3, 3, 3), False, True),
)

# cycles in a plan; a run that gets through the plan starts it again
CYCLES = 3


@dataclass
class Job:
    """One CLI call. ``argv`` paths are relative to the work directory.

    ``spec`` carries what the checker needs to judge the output without a
    reference; ``json_out`` names the file the call writes, if any.
    """

    kind: str
    size: str
    argv: list[str]
    json_out: str | None = None
    spec: dict = field(default_factory=dict)


@dataclass
class Plan:
    """The job list of one run and the input files it reads."""

    cycle_len: int
    jobs: list[Job]
    files: dict[str, str]


def build_plan(workload: str, seed: int) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; use one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, str] = {}
    jobs: list[Job] = []
    make = {"lattice": _lattice_cycle, "mine": _mine_cycle, "algebra": _algebra_cycle}[workload]
    cycle_len = 0
    for cycle in range(CYCLES):
        pool = random.Random(f"{workload}:pool")
        added = make(pool, rng, cycle, files)
        cycle_len = len(added)
        jobs.extend(added)
    return Plan(cycle_len, jobs, files)


# --- contexts ---------------------------------------------------------------

def context_text(matrix: list[list[str]], attributes: list[str]) -> str:
    lines = ["algebra product 3 2", "attributes " + " ".join(attributes)]
    for g, row in enumerate(matrix, start=1):
        lines.append(f"g{g} " + " ".join(row))
    return "\n".join(lines) + "\n"


def _attribute_names(m: int) -> list[str]:
    return [f"m{j}" for j in range(1, m + 1)]


def permuted(matrix: list[list[str]], rng: random.Random) -> list[list[str]]:
    """The same context with its objects and attributes in a seeded order."""
    rows = rng.sample(range(len(matrix)), len(matrix))
    cols = rng.sample(range(len(matrix[0])), len(matrix[0]))
    return [[matrix[g][m] for m in cols] for g in rows]


def _lattice_cycle(pool: random.Random, rng: random.Random, cycle: int,
                   files: dict[str, str]) -> list[Job]:
    jobs = []
    labels = sorted(COORDS_OF)
    for slot, (g, m) in enumerate(LATTICE_CYCLE):
        name = f"lat{cycle}_{slot}"
        matrix = permuted([[pool.choice(labels) for _ in range(m)] for _ in range(g)], rng)
        files[f"{name}.ctx"] = context_text(matrix, _attribute_names(m))
        engine = "intent" if g > m else "extent"
        argv = ["concepts", f"{name}.ctx", "--domain", "full", "--engine", engine,
                "--json", f"{name}.json"]
        jobs.append(Job("concepts", f"{g}x{m}", argv, f"{name}.json", {"matrix": matrix}))
    return jobs


def _mine_cycle(pool: random.Random, rng: random.Random, cycle: int,
                files: dict[str, str]) -> list[Job]:
    jobs = []
    for slot, (g, m, k) in enumerate(MINE_CYCLE):
        name = f"mine{cycle}_{slot}"
        matrix = permuted([[TOP if pool.random() < MINE_TOP_SHARE else BOTTOM for _ in range(m)]
                           for _ in range(g)], rng)
        files[f"{name}.ctx"] = context_text(matrix, _attribute_names(m))
        size = f"{g}x{m}"
        argv = ["mine", f"{name}.ctx", "--max-k", str(k), "--out", f"{name}.json"]
        jobs.append(Job("mine", size, argv, f"{name}.json",
                        {"matrix": matrix, "max_k": k,
                         # where the flipped cell goes, as fractions of the
                         # derived columns and the objects
                         "flip": (rng.random(), rng.random())}))
        for ext in (f"{name}_ext.ctx", f"{name}_flip.ctx"):
            jobs.append(Job("congener", size, ["check-congener", f"{name}.ctx", ext],
                            spec={"matrix": matrix, "extension": ext}))
    return jobs


def extension_matrices(job: Job, report: dict) -> tuple[list[str], list[list[str]], list[list[str]]]:
    """Rebuild the mined extension from a mine report, plus a copy with one
    derived cell flipped. Raises KeyError or ValueError on a report that
    names unknown sources or kinds."""
    matrix = job.spec["matrix"]
    base = _attribute_names(len(matrix[0]))
    index = {name: j for j, name in enumerate(base)}
    names = list(base)
    columns = []
    for entry in report["tacit"]:
        if entry["kind"] == "top":
            columns.append([TOP] * len(matrix))
        elif entry["kind"] == "meet":
            sources = [index[s] for s in entry["sources"]]
            columns.append([TOP if all(row[s] == TOP for s in sources) else BOTTOM
                            for row in matrix])
        else:
            raise ValueError(f"tacit column {entry['name']!r} has kind {entry['kind']!r}")
        names.append(entry["name"])
    extended = [row + [col[g] for col in columns] for g, row in enumerate(matrix)]
    flipped = [list(row) for row in extended]
    if columns:
        u, v = job.spec["flip"]
        g = int(v * len(matrix))
        j = len(base) + int(u * len(columns))
        flipped[g][j] = BOTTOM if flipped[g][j] == TOP else TOP
    return names, extended, flipped


# --- algebras ---------------------------------------------------------------

def product_elements(sizes) -> list[tuple[int, ...]]:
    """Elements of a product of chains in the CLI's display order."""
    coords = itertools.product(*[range(1, n + 1) for n in sizes])
    return sorted(coords, key=lambda c: tuple(-x for x in reversed(c)))


def product_imp(sizes, x, y) -> tuple[int, ...]:
    return tuple(min(n - a + b, n) for a, b, n in zip(x, y, sizes))


def product_neg(sizes, x) -> tuple[int, ...]:
    return tuple(n + 1 - a for a, n in zip(x, sizes))


def format_product_value(sizes, v) -> str:
    if tuple(sizes) == DEFAULT_SIZES:
        return LABEL_OF[v]
    return ",".join(str(c) for c in v)


def table_of_product(sizes, rng: random.Random) -> tuple[list[str], dict, dict]:
    """Implication and negation tables of a product, over element names in a
    seeded order."""
    coords = list(itertools.product(*[range(1, n + 1) for n in sizes]))
    rng.shuffle(coords)
    name = {c: "e" + "".join(str(x) for x in c) for c in coords}
    names = [name[c] for c in coords]
    imp = {(name[x], name[y]): name[product_imp(sizes, x, y)] for x in coords for y in coords}
    neg = {name[x]: name[product_neg(sizes, x)] for x in coords}
    return names, imp, neg


def corrupt_table(names: list[str], imp: dict, neg: dict, rng: random.Random) -> dict:
    """Change one implication entry so the table still loads but breaks the
    contraposition law imp(x, y) = imp(neg y, neg x).

    The entry is off the diagonal (reflexivity survives), its new value is
    not top (no new order pair, so antisymmetry survives), and y != neg x,
    so its contrapositive partner is a different, untouched entry.
    """
    top = imp[(names[0], names[0])]
    pairs = [(x, y) for x in names for y in names if x != y and y != neg[x]]
    x, y = rng.choice(pairs)
    choices = [v for v in names if v not in (imp[(x, y)], top)]
    bad = dict(imp)
    bad[(x, y)] = rng.choice(choices)
    return bad


def table_text(names: list[str], imp: dict, neg: dict) -> str:
    lines = ["elements " + " ".join(names)]
    for x in names:
        lines.append(f"imp {x} " + " ".join(imp[(x, y)] for y in names))
    for x in names:
        lines.append(f"neg {x} {neg[x]}")
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> tuple[list[str], dict]:
    names: list[str] = []
    imp = {}
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if parts and parts[0] == "elements":
            names = parts[1:]
        elif parts and parts[0] == "imp":
            for y, v in zip(names, parts[2:]):
                imp[(parts[1], y)] = v
    return names, imp


def _algebra_cycle(pool: random.Random, rng: random.Random, cycle: int,
                   files: dict[str, str]) -> list[Job]:
    jobs = []
    for slot, (source, corrupt, show) in enumerate(ALGEBRA_CYCLE):
        flags = ["--check-axioms"] + (["--show-tables"] if show else [])
        if source == "chain5":
            text = (DATA_DIR / "chain5.lia").read_text(encoding="utf-8")
            files["chain5.lia"] = text
            names, imp = parse_table(text)
            rows = [[imp[(x, y)] for y in names] for x in names]
            jobs.append(Job("algebra", str(len(names)), ["algebra", "--table", "chain5.lia", *flags],
                            spec={"elements": names, "rows": rows, "passes": False, "show": show}))
            continue
        if source[0] == "table":
            sizes = source[1]
            names, imp, neg = table_of_product(sizes, rng)
            if corrupt:
                imp = corrupt_table(names, imp, neg, rng)
            path = f"alg{cycle}_{slot}.lia"
            files[path] = table_text(names, imp, neg)
            rows = [[imp[(x, y)] for y in names] for x in names]
            jobs.append(Job("algebra", str(len(names)), ["algebra", "--table", path, *flags],
                            spec={"elements": names, "rows": rows, "passes": not corrupt,
                                  "show": show}))
            continue
        sizes = source
        els = product_elements(sizes)
        names = [format_product_value(sizes, v) for v in els]
        rows = [[format_product_value(sizes, product_imp(sizes, x, y)) for y in els] for x in els]
        argv = ["algebra", "--product", *[str(n) for n in sizes], *flags]
        jobs.append(Job("algebra", str(len(els)), argv,
                        spec={"elements": names, "rows": rows, "passes": True, "show": show}))
    return jobs


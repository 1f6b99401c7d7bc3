import argparse
import functools
import json
import os
import subprocess
import sys
import types

import pytest

import ltvcl.cli
import ltvcl.context
from ltvcl import ConceptLattice, ProductAlgebra, enumerate_concepts
from ltvcl.cli import main
from ltvcl.galois import INTENT_SCAN
from conftest import DATA_DIR, corrupted_tables

REPO = DATA_DIR.parent
GOLDENS = REPO / "tests" / "goldens"

DEMO = str(DATA_DIR / "demo.ctx")
DEMO_EXT = str(DATA_DIR / "demo_extended.ctx")
CHAIN5 = str(DATA_DIR / "chain5.lia")
BOOL2 = str(DATA_DIR / "bool2.lia")

# The files a run writes, as (option, golden suffix): concepts exports the
# lattice of the first (extent) engine, mine writes its JSON report.
EXPORTS = (("--json", "json"), ("--dot", "dot"))
REPORT = (("--out", "json"),)

# Every pinned CLI run: golden name, argv relative to the repo root, exit
# code, and the files it writes. Stdout must equal goldens/<name>.out and
# each file goldens/<name>.<suffix>, byte for byte.
GOLDEN_RUNS = [
    ("demo_generated", "concepts data/demo.ctx --domain generated --engine both", 0, EXPORTS),
    ("demo_full", "concepts data/demo.ctx --domain full --engine both", 0, EXPORTS),
    # bool2 passes the axioms and is enumerated one closure per image;
    # chain5 fails them and keeps the fixpoint check, which rejects closed
    # sets of this context
    ("bool2_full", "concepts data/bool2.ctx --domain full --engine both", 0, EXPORTS),
    ("chain5_full", "concepts data/chain5.ctx --domain full --engine both", 0, EXPORTS),
    # a 12-chain has eleven join-irreducibles, so its vectors are encoded
    # in two-byte blocks
    ("chain12_full", "concepts data/chain12.ctx --domain full --engine both", 0, EXPORTS),
    ("algebra_product_3_2", "algebra --product 3 2 --show-tables --check-axioms", 0, ()),
    ("algebra_product_3_3_3", "algebra --product 3 3 3 --check-axioms --show-tables", 0, ()),
    # 72 elements, over the former axiom budget of 64
    ("algebra_product_3_3_2_2_2", "algebra --product 3 3 2 2 2 --check-axioms", 0, ()),
    # 162 elements, over the axiom budget: certified, so it passes
    ("algebra_product_3_3_3_3_2", "algebra --product 3 3 3 3 2 --check-axioms", 0, ()),
    ("algebra_chain5", "algebra --table data/chain5.lia --check-axioms", 1, ()),
    # a corrupted 16-element table: its 311 violations overflow the printed
    # ten into the "... and N more" line
    ("algebra_bool16_bad", "algebra --table data/bool16_bad.lia --check-axioms", 1, ()),
    # tables with missing bounds, whose cubic laws are screened with a
    # sentinel for each missing bound: (a, b) has no join in both, (c, d)
    # no meet in nonlattice, and nojoin has no top
    ("algebra_nonlattice", "algebra --table data/nonlattice.lia --check-axioms", 1, ()),
    ("algebra_nojoin", "algebra --table data/nojoin.lia --check-axioms", 1, ()),
    ("mine_demo_paper", "mine data/demo.ctx --preset paper", 0, REPORT),
    # a table algebra that passes the axioms
    ("mine_bool2_k3", "mine data/bool2.ctx --max-k 3", 0, REPORT),
    # a table algebra that fails the axioms, over the full domain
    ("mine_chain5_k3_full", "mine data/chain5.ctx --max-k 3 --domain full", 0, REPORT),
    # a graded 7x12 context meeting subsets of every arity: 163 distinct
    # meet columns out of 4,083 subsets
    ("mine_graded7x12_every_arity", "mine data/graded7x12.ctx --max-k 12", 0, REPORT),
    # m7 duplicates m4; stdout prints its formula meet(m1,m2,m3), while the
    # report's sources are classification's first subset, m1 and m2
    ("mine_demo_no_novelty", "mine data/demo.ctx --max-k 3 --no-novelty", 0, REPORT),
    ("check_congener_demo_extended", "check-congener data/demo.ctx data/demo_extended.ctx", 0, ()),
    # a congener extension over an LIA: the 27 base concepts are counted
    # by the intent fold, with no lattice built
    ("check_congener_demo_intent_full",
     "check-congener data/demo.ctx data/demo_extended.ctx --engine intent --domain full", 0, ()),
    # off an LIA the fold's images outnumber the 9 concepts, so the count
    # comes from the enumerated lattice
    ("check_congener_chain5_full", "check-congener data/chain5.ctx data/chain5.ctx --domain full", 0, ()),
    # g2's m4 cell changed from O to a: four extents only in the extension
    ("check_congener_demo_flipped", "check-congener data/demo.ctx data/demo_flipped.ctx", 1, ()),
    # contexts over different algebras are refused: exit 2, nothing on stdout
    ("check_congener_algebras", "check-congener data/demo.ctx data/bool2.ctx", 2, ()),
    # one attribute: nothing to mine, and the paper's preset needs two
    ("mine_single_no_top", "mine data/single.ctx --no-top", 0, ()),
    ("mine_single_paper", "mine data/single.ctx --preset paper", 2, ()),
    # a context over a table whose order has no meet for (c, d) is refused
    # when it is read: exit 2, nothing on stdout
    ("concepts_nonlattice", "concepts data/nonlattice.ctx", 2, ()),
    ("mine_nonlattice", "mine data/nonlattice.ctx", 2, ()),
    ("check_congener_nonlattice", "check-congener data/nonlattice.ctx data/nonlattice.ctx", 2, ()),
    # every meet exists but (a, b) has no join: refused on the full domain
    # too, which never reaches a join of the context's values
    ("concepts_nojoin", "concepts data/nojoin.ctx --domain full", 2, ()),
]


@pytest.mark.parametrize(
    "name, argv, code, files", GOLDEN_RUNS, ids=[run[0] for run in GOLDEN_RUNS]
)
def test_golden_run(tmp_path, name, argv, code, files):
    # run as a script, through the __main__ guard and sys.exit, on this
    # checkout's source and the default budget
    written = [(option, tmp_path / f"{name}.{suffix}") for option, suffix in files]
    env = {k: v for k, v in os.environ.items() if k != "LTVCL_BUDGET"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "ltvcl.cli", *argv.split(),
         *[arg for option, path in written for arg in (option, str(path))]],
        cwd=REPO, env=env, capture_output=True,
    )
    assert result.returncode == code, result.stderr.decode()
    assert result.stdout == (GOLDENS / f"{name}.out").read_bytes()
    for _, path in written:
        assert path.read_bytes() == (GOLDENS / path.name).read_bytes()


@pytest.mark.parametrize("argv, name", [
    (["concepts", DEMO], "enumerate_concepts"),
    (["mine", DEMO], "mine"),
    (["check-congener", DEMO, DEMO_EXT], "is_congener"),
])
def test_out_of_memory_exits_2(capsys, monkeypatch, argv, name):
    # exit 1 is a negative verdict, so running out of memory must not be
    # left to Python's uncaught-exception status
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(ltvcl.cli, name, exhausted)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")


class TestAlgebraCommand:
    def test_product_check_passes(self, capsys):
        assert main(["algebra", "--product", "3", "2", "--check-axioms"]) == 0
        out = capsys.readouterr().out
        assert "elements: AbT VeT SlT SlF VeF AbF" in out
        assert "axioms: PASS (216 triples)" in out

    def test_chain5_check_fails(self, capsys):
        assert main(["algebra", "--table", CHAIN5, "--check-axioms"]) == 1
        out = capsys.readouterr().out
        assert "axioms: FAIL" in out
        assert "lia-1 at (b, c, a)" in out

    def test_boolean_table_passes(self, capsys):
        assert main(["algebra", "--table", BOOL2, "--check-axioms"]) == 0
        assert "axioms: PASS (8 triples)" in capsys.readouterr().out

    def test_bad_product_size(self, capsys):
        assert main(["algebra", "--product", "1", "2"]) == 2
        assert "chain size" in capsys.readouterr().err

    def test_product_over_element_limit(self, capsys):
        assert main(["algebra", "--product", "30", "30", "30"]) == 2
        assert "over the limit of 512" in capsys.readouterr().err

    def test_product_over_the_axiom_budget(self, capsys, tmp_path):
        # a one-entry corruption of a shuffled 162-element product: the
        # certificate refuses it and the law check is over the budget,
        # which is found before anything is printed
        names, imp, neg = corrupted_tables(ProductAlgebra([3, 3, 3, 3, 2]), 162)
        path = tmp_path / "corrupted.lia"
        path.write_text("\n".join([
            "elements " + " ".join(names),
            *(f"imp {x} " + " ".join(imp[x, y] for y in names) for x in names),
            *(f"neg {x} {neg[x]}" for x in names),
        ]) + "\n", encoding="utf-8")
        assert main(["algebra", "--table", str(path), "--check-axioms"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "162 elements exceed the axiom-check budget of 128" in err

    def test_missing_table_file(self, capsys):
        assert main(["algebra", "--table", "no/such/file.lia"]) == 2

    def test_show_tables(self, capsys):
        assert main(["algebra", "--product", "2", "2", "--show-tables"]) == 0
        out = capsys.readouterr().out
        assert "imp table:" in out
        assert "neg table:" in out

    def test_product_and_table_conflict(self):
        with pytest.raises(SystemExit) as err:
            main(["algebra", "--product", "3", "2", "--table", CHAIN5])
        assert err.value.code == 2


class TestConceptsCommand:
    def test_both_engines_agree(self, capsys):
        assert main(["concepts", DEMO, "--engine", "both"]) == 0
        out = capsys.readouterr().out
        assert "12 concepts" in out
        assert "engines agree" in out
        assert "0# (AbT AbT | AbF AbF SlT)" in out

    def test_full_domain_listing(self, capsys):
        assert main(["concepts", DEMO, "--domain", "full", "--engine", "both"]) == 0
        assert "27 concepts" in capsys.readouterr().out

    def test_exports(self, capsys, tmp_path):
        dot = tmp_path / "lattice.dot"
        js = tmp_path / "lattice.json"
        assert main(["concepts", DEMO, "--dot", str(dot), "--json", str(js)]) == 0
        capsys.readouterr()
        assert dot.read_text().count("[label=") == 12
        doc = json.loads(js.read_text())
        assert len(doc["concepts"]) == 12

    def test_both_engines_build_no_concept(self, capsys, monkeypatch, tmp_path, demo):
        # the engines are compared, labelled and exported on position
        # tuples: no lattice computes its Concepts on this path
        built = []
        concepts = ConceptLattice.concepts.func

        def counted(lattice):
            built.append(lattice)
            return concepts(lattice)

        prop = functools.cached_property(counted)
        prop.__set_name__(ConceptLattice, "concepts")
        monkeypatch.setattr(ConceptLattice, "concepts", prop)
        argv = ["concepts", DEMO, "--domain", "full", "--engine", "both",
                "--dot", str(tmp_path / "l.dot"), "--json", str(tmp_path / "l.json")]
        assert main(argv) == 0
        assert "engines agree" in capsys.readouterr().out
        assert built == []
        # the counter does see a lattice that builds them
        lattice = enumerate_concepts(demo)
        assert lattice.top == lattice.concepts[0]
        assert built == [lattice]

    def test_an_unwritable_export_prints_nothing(self, capsys, tmp_path):
        argv = ["concepts", DEMO, "--dot", str(tmp_path / "missing" / "x.dot")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")

    def test_engines_that_disagree_exit_1_and_write_nothing(
        self, capsys, monkeypatch, tmp_path, demo_extended
    ):
        # the intent engine returns another context's lattice
        def swapped(context, engine, **kwargs):
            if engine == INTENT_SCAN:
                context = demo_extended
            return enumerate_concepts(context, engine, **kwargs)

        monkeypatch.setattr(ltvcl.cli, "enumerate_concepts", swapped)
        js = tmp_path / "lattice.json"
        assert main(["concepts", DEMO, "--engine", "both", "--json", str(js)]) == 1
        assert capsys.readouterr().out == (
            "engines disagree: extent and intent scans produced different concepts\n"
        )
        assert not js.exists()

    def test_degenerate_context(self, capsys, tmp_path):
        empty = tmp_path / "empty.ctx"
        empty.write_text("algebra product 3 2\nattributes m1 m2\n")
        assert main(["concepts", str(empty)]) == 0
        assert "1 concepts" in capsys.readouterr().out

    def test_parse_error_exit(self, capsys, tmp_path):
        bad = tmp_path / "garbage.ctx"
        bad.write_text("this is not a context\n")
        assert main(["concepts", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_budget_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("LTVCL_BUDGET", "10")
        assert main(["concepts", DEMO]) == 2
        assert "budget" in capsys.readouterr().err
        monkeypatch.setenv("LTVCL_BUDGET", "banana")
        assert main(["concepts", DEMO]) == 2
        for bad in ("0", "-5"):
            monkeypatch.setenv("LTVCL_BUDGET", bad)
            assert main(["concepts", DEMO]) == 2
            assert "LTVCL_BUDGET must be a positive integer" in capsys.readouterr().err


class TestMineCommand:
    def test_preset_paper(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        assert main(["mine", DEMO, "--preset", "paper", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "m4 = meet(m1,m2)" in out
        assert "m5 = top" in out
        assert "congener: yes (12 base concepts, 12 extended)" in out
        assert "fast extension verified: yes" in out
        doc = json.loads(out_path.read_text())
        assert doc["tacit"] == [
            {"name": "m4", "kind": "meet", "sources": ["m1", "m2"]},
            {"name": "m5", "kind": "top", "sources": []},
        ]
        assert doc["congener"] and doc["fast_verified"]
        assert doc["concepts_base"] == doc["concepts_ext"] == 12

    def test_max_k_three(self, capsys):
        assert main(["mine", DEMO, "--max-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "congener: yes" in out

    def test_preset_conflicts_rejected(self, capsys):
        assert main(["mine", DEMO, "--preset", "paper", "--max-k", "3"]) == 2
        assert "pins" in capsys.readouterr().err

    def test_garbage_input(self, capsys, tmp_path):
        bad = tmp_path / "garbage.ctx"
        bad.write_text("algebra product 3 2\nattributes m1\ng1 wat\n")
        assert main(["mine", str(bad)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_an_unwritable_report_prints_nothing(self, capsys, tmp_path):
        argv = ["mine", DEMO, "--preset", "paper", "--out", str(tmp_path / "missing" / "r.json")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")


class TestCheckCongenerCommand:
    def test_demo_pair(self, capsys):
        assert main(["check-congener", DEMO, DEMO_EXT]) == 0
        out = capsys.readouterr().out
        assert "base concepts: 12, extended concepts: 12" in out
        assert "congener: yes" in out

    def test_context_against_itself(self, capsys):
        assert main(["check-congener", DEMO, DEMO]) == 0

    def test_both_files_share_one_algebra_per_call(self, capsys, monkeypatch):
        # the two files name the same algebra line, which is built once per
        # call and never kept across calls
        built = []

        def counting(sizes):
            built.append(ProductAlgebra(sizes))
            return built[-1]

        monkeypatch.setattr(ltvcl.context, "ProductAlgebra", counting)
        assert main(["check-congener", DEMO, DEMO_EXT]) == 0
        assert len(built) == 1
        assert main(["check-congener", DEMO, DEMO_EXT]) == 0
        assert len(built) == 2

    def test_non_congener_extension(self, capsys, tmp_path):
        adv = tmp_path / "adv.ctx"
        adv.write_text(
            "algebra product 3 2\n"
            "alias a=SlT b=SlF I=AbT O=AbF\n"
            "attributes m1 m2 m3 x\n"
            "g1 a b I O\n"
            "g2 b O a I\n"
        )
        assert main(["check-congener", DEMO, str(adv)]) == 1
        out = capsys.readouterr().out
        assert "congener: no" in out
        assert "only in" in out

    def test_restriction_violation(self, capsys, tmp_path):
        tampered = tmp_path / "tampered.ctx"
        tampered.write_text(
            "algebra product 3 2\nattributes m1 m2 m3\ng1 VeT SlF AbT\ng2 SlF AbF SlT\n"
        )
        assert main(["check-congener", DEMO, str(tampered)]) == 2
        assert "disagrees" in capsys.readouterr().err


class TestOneParserPerProcess:
    # one golden run per subcommand, in process, with the files it writes
    REPEATED = ("algebra_product_3_2", "demo_generated", "mine_demo_paper",
                "check_congener_demo_extended")

    def test_repeats_are_byte_identical_on_one_parser(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(REPO)
        monkeypatch.delenv("LTVCL_BUDGET", raising=False)
        builds = []

        def counted(*args, **kwargs):
            builds.append(kwargs.get("prog"))
            return argparse.ArgumentParser(*args, **kwargs)

        # the subcommand parsers are built from the class of the root
        # parser, so only the root is counted
        monkeypatch.setattr(ltvcl.cli, "argparse", types.SimpleNamespace(
            **{**vars(argparse), "ArgumentParser": counted}))
        ltvcl.cli._parser.cache_clear()
        runs = {run[0]: run for run in GOLDEN_RUNS}

        def run_all(round_dir):
            round_dir.mkdir()
            results = []
            for name in self.REPEATED:
                _, argv, code, files = runs[name]
                written = [(option, round_dir / f"{name}.{suffix}") for option, suffix in files]
                returned = main([*argv.split(),
                                 *[arg for option, path in written for arg in (option, str(path))]])
                out, err = capsys.readouterr()
                assert returned == code, err
                assert out == (GOLDENS / f"{name}.out").read_text(encoding="utf-8")
                for _, path in written:
                    assert path.read_bytes() == (GOLDENS / path.name).read_bytes()
                results.append((returned, out, err))
            return results

        first = run_all(tmp_path / "first")
        with pytest.raises(SystemExit) as exc:
            main(["algebra"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: ltvcl algebra")
        assert run_all(tmp_path / "second") == first
        assert builds == ["ltvcl"]

    def test_dispatch_reads_the_handler_name_per_call(self, capsys, monkeypatch):
        # the bench tracer rebinds cli.cmd_* after the parser may be built
        ltvcl.cli._parser()
        calls = []

        def spy(args):
            calls.append((args.command, args.context))
            return 7

        monkeypatch.setattr(ltvcl.cli, "cmd_mine", spy)
        assert main(["mine", DEMO]) == 7
        assert calls == [("mine", DEMO)]
        assert capsys.readouterr().out == ""

    def test_help_reads_the_terminal_width_per_call(self, capsys, monkeypatch):
        widths = []
        for columns in ("200", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            widths.append(max(map(len, capsys.readouterr().out.splitlines())))
        assert widths[1] < widths[0]

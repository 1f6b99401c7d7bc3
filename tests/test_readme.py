"""The README's examples, run as documented.

The "Library quick start" block and every ``ltvcl ...`` command of the
"Command line" section run in a scratch directory holding a copy of
``data/``, and their results must be the ones the README states: the
concept count and the mining output in the quick start's comments, the
exit code of each command (1 where its comment says so, 0 otherwise), and
the ``mine --out`` document of the "JSON documents" section.
"""

import contextlib
import io
import json
import re
import shlex
import shutil

import pytest

from ltvcl.cli import main
from conftest import DATA_DIR

README = (DATA_DIR.parent / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The text of the README section headed ``title``, up to the next
    heading (a ``#`` line outside a code block)."""
    lines, fenced, inside = [], False, False
    for line in README.splitlines(keepends=True):
        if line.startswith("```"):
            fenced = not fenced
        elif line.startswith("#") and not fenced:
            inside = line.lstrip("#").strip() == title
            continue
        if inside:
            lines.append(line)
    assert lines, f"README has no section {title!r}"
    return "".join(lines)


def blocks(text: str, language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def commands() -> list[tuple[str, int]]:
    """Each documented command line, with the exit code its comment states."""
    out = []
    for block in blocks(section("Command line"), "sh"):
        for line in block.splitlines():
            if line.startswith("ltvcl "):
                command, _, comment = line.partition("#")
                code = re.search(r"exits (\d)", comment)
                out.append((command.strip(), int(code.group(1)) if code else 0))
    return out


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    shutil.copytree(DATA_DIR, tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LTVCL_BUDGET", raising=False)
    return tmp_path


def test_the_readme_documents_the_expected_commands():
    assert ("ltvcl algebra --table data/chain5.lia --check-axioms", 1) in commands()
    assert [code for _, code in commands()].count(1) == 1
    assert {command.split()[1] for command, _ in commands()} == {
        "algebra", "concepts", "mine", "check-congener"
    }


@pytest.mark.parametrize("command, code", commands(), ids=[c for c, _ in commands()])
def test_command_line_examples(workdir, capsys, command, code):
    assert main(shlex.split(command)[1:]) == code
    captured = capsys.readouterr()
    assert captured.out
    if code == 0:
        assert captured.err == ""


def test_mine_out_writes_the_documented_document(workdir, capsys):
    assert main(["mine", "data/demo.ctx", "--preset", "paper", "--out", "report.json"]) == 0
    (documented,) = blocks(section("JSON documents").split("`mine --out` writes")[1], "json")
    written = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
    assert written == json.loads(documented)


def test_library_quick_start(workdir):
    (code,) = blocks(section("Library quick start"), "python")
    out = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(out):
        exec(code, namespace)
    concepts = int(re.search(r"# (\d+) concepts", code).group(1))
    mined = re.search(r"print\(report\.tacit_attributes\)\s*# (.*)", code).group(1)
    assert (concepts, mined) == (12, "(('m4', 'meet(m1,m2)'), ('m5', 'top'))")
    assert len(namespace["lattice"]) == concepts
    lines = out.getvalue().splitlines()
    assert lines[0].startswith(f"{concepts} Concept(")
    assert lines[1:] == [mined, "True True"]

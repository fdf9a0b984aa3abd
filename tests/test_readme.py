"""The README's library quick start runs as written, the commands whose output
it shows print that output, and the tests, headings and sections it names exist."""

import ast
import contextlib
import io
import pathlib
import re
import shlex

import numpy as np
import pytest

from postselect.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def quick_start_code() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.mark.parametrize("seed,overfits", [(2, True), (0, False)])
def test_quick_start_runs(seed, overfits):
    # y_raw and X_raw are the quick start's inputs: the reference signal on
    # (1, 2, 3) with an offset; seed 2 selects {1,2,3,6}, seed 0 selects {1,2,3}
    rng = np.random.default_rng(seed)
    X_raw = rng.standard_normal((50, 10))
    y_raw = 10.0 + X_raw[:, :3] @ np.array([1.0, 2.0, 3.0]) + rng.standard_normal(50)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(quick_start_code(), {"y_raw": y_raw, "X_raw": X_raw})
    lines = out.getvalue().splitlines()
    # the theorem line only for a strict overfit, where AIC at n = 50 forces it
    assert lines[:-1] == (["True True"] if overfits else [])
    coverage, ratio = map(float, lines[-1].split())
    assert (coverage, round(ratio, 5)) == (0.861, 1.0533)


def readme_parts() -> tuple[list[str], list[list[str]]]:
    """README's headings outside code blocks, and the lines of each code block."""
    headings, blocks, block = [], [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            if block is None:
                block = []
            else:
                blocks.append(block)
                block = None
        elif block is not None:
            block.append(line)
        elif line.startswith("#"):
            headings.append(line.lstrip("#").strip())
    return headings, blocks


def test_shown_commands_print_what_readme_shows(capsys):
    # a block that starts with "$ postselect ..." shows each command's stdout below it
    shown = []
    for block in readme_parts()[1]:
        if block and block[0].startswith("$ "):
            for line in block:
                if line.startswith("$ "):
                    shown.append((shlex.split(line)[2:], []))
                else:
                    shown[-1][1].append(line)
    assert [argv[0] for argv, _ in shown] == ["theorem-check", "quantile"]
    for argv, lines in shown:
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert (out.splitlines(), err) == (lines, ""), argv


def test_cited_tests_exist():
    names = set()
    for path in (ROOT / "tests").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names.update(
            node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
        )
    cited = set(re.findall(r"\b(test_\w+)\b(?!\.py)", README.read_text(encoding="utf-8")))
    assert cited and not cited - names, sorted(cited - names)


def github_anchor(heading: str) -> str:
    return re.sub(r"[^\w\- ]", "", heading.lower()).replace(" ", "-")


def test_links_name_readme_headings():
    anchors = {github_anchor(h) for h in readme_parts()[0]}
    links = set(re.findall(r"\]\(#([^)]*)\)", README.read_text(encoding="utf-8")))
    assert links and not links - anchors, sorted(links - anchors)


def test_sections_the_package_cites_exist():
    # a comment in the package cites a README section as (README, "Heading")
    cited = set()
    for path in (ROOT / "src" / "postselect").glob("*.py"):
        cited.update(re.findall(r'README, "([^"]+)"', path.read_text(encoding="utf-8")))
    assert "Reproducibility" in cited
    assert cited <= set(readme_parts()[0]), cited

"""README.md examples, run as written: each `banachlab ...` line of the
CLI block through `cli.main`, and the Library snippet with the values
in its comments."""

import ast
import inspect
import re
import shlex
from pathlib import Path

import pytest

from banachlab.cli import LEMMAS, build_parser, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(section: str, language: str) -> str:
    """The first fenced `language` block under the `## section` heading."""
    match = re.search(rf"^## {section}\n.*?^```{language}\n(.*?)^```", README, re.M | re.S)
    assert match, f"README has no {language} block under {section!r}"
    return match.group(1)


def _cli_examples() -> list[tuple[list[str], str]]:
    """(argv, expected stdout) per command; the `# ...` lines after a
    command are its stdout, and a command with none documents no output."""
    examples = []
    for line in _block("CLI", "sh").splitlines():
        if line.startswith("banachlab "):
            examples.append((shlex.split(line)[1:], ""))
        elif line.startswith("# "):
            argv, out = examples[-1]
            examples[-1] = (argv, out + line[2:] + "\n")
    return examples


CLI_EXAMPLES = _cli_examples()


@pytest.mark.parametrize(
    "argv, expected", CLI_EXAMPLES, ids=[f"{i}-{e[0][0]}" for i, e in enumerate(CLI_EXAMPLES)]
)
def test_cli_example(argv, expected, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    if expected:
        assert out == expected
    else:
        assert out


def test_library_snippet():
    source = _block("Library", "python")
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        comment = lines[node.end_lineno - 1].partition("  # ")[2]
        if isinstance(node, ast.Expr) and comment:
            assert eval(code, namespace) == eval(comment, namespace), code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 4


def test_verify_option_table():
    """Each row of the verifier table names exactly the options its lemma
    reads, with the defaults a run without them uses."""
    rows = re.findall(r"^\| `([\w-]+)` \| (`--.*) \|$", README, re.M)
    assert [lemma for lemma, _ in rows] == list(LEMMAS)
    for lemma, cells in rows:
        documented = dict(re.findall(r'`--([\w-]+) "?([^`"]+?)"?`', cells))
        args = vars(build_parser().parse_args(["verify", lemma]))
        for name in ("command", "func", "parser", "lemma", "decimal"):
            del args[name]
        if args.get("samples", 0) is None:
            args["samples"] = inspect.signature(LEMMAS[lemma][0]).parameters["samples"].default
        assert documented == {name.replace("_", "-"): str(v) for name, v in args.items()}, lemma

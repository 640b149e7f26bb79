"""Docs stay truthful: every command, flag and env var they name must exist.

The ``docs/`` tree (and the README) is checked against the code itself —
a ``nanoxbar <subcommand>`` reference must be a real subparser (including
the nested ``nanoxbar grid <command>`` choices), every ``--flag`` that
follows such a reference on the same line must be an option of that
subparser, and every ``NANOXBAR_*`` environment variable mentioned must
be one the source tree actually reads, every backticked repo path
must exist, and every backticked ``repro.…`` dotted name must import or
resolve as an attribute.  Renaming a command, a switch, a file or a
function without updating the docs fails the build, and so does a
package under ``src/repro`` that ``docs/architecture.md`` never names.
"""

import argparse
import importlib
import pathlib
import re

import pytest

from repro.eval.cli import build_parser

REPO = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = sorted(REPO.glob("docs/*.md")) + [REPO / "README.md"]

#: ``nanoxbar <token>`` — the token must be a real subcommand.  A
#: backtick directly after ``nanoxbar`` (as in "the ``nanoxbar`` entry
#: point") ends the match before any token, so prose mentions don't trip.
_SUBCOMMAND_RE = re.compile(r"nanoxbar\s+([a-z][a-z0-9-]*)")
_GRID_SUBCOMMAND_RE = re.compile(r"nanoxbar\s+grid\s+([a-z][a-z0-9-]*)")
_ENV_RE = re.compile(r"NANOXBAR_[A-Z_]+[A-Z]")
#: ``nanoxbar grid <command>`` or ``nanoxbar <subcommand>``: the parser
#: that must accept the flags after it on the same line.
_INVOCATION_RE = re.compile(r"nanoxbar\s+(grid\s+[a-z][a-z0-9-]*|[a-z][a-z0-9-]*)")
#: A ``--flag`` token (``--format=json`` names ``--format``).
_FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
#: Fenced code blocks, dropped before the inline code spans are read.
_FENCE_RE = re.compile(r"^```.*?^```", re.S | re.M)
_CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
#: A repo path in a code span: relative, no spaces, ending in a directory
#: slash or a file extension (``src/``, ``ROADMAP.md``, ``tests/x.py``).
_REPO_PATH_RE = re.compile(
    r"\.?[\w-]+(?:[./][\w-]+)*(?:/|\.(?:py|md|json|toml|yml|txt))")
#: A dotted Python name under the package (``repro.engine.store.JsonStore``).
_PYTHON_NAME_RE = re.compile(r"(?<![\w.])repro(?:\.\w+)+")


def _subparser_choices(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


@pytest.fixture(scope="module")
def cli_choices():
    top = _subparser_choices(build_parser())
    assert top, "the CLI lost its subparsers?"
    nested = {name: set(_subparser_choices(sub))
              for name, sub in top.items()}
    return set(top), nested


@pytest.fixture(scope="module")
def cli_options():
    """Option strings per command: ``"batch"``, ``"grid run"``, ..."""
    options = {}
    for name, sub in _subparser_choices(build_parser()).items():
        options[name] = set(sub._option_string_actions)
        for nested_name, nested in _subparser_choices(sub).items():
            options[f"{name} {nested_name}"] = set(
                nested._option_string_actions)
    return options


def _read(path: pathlib.Path) -> str:
    return path.read_text(encoding="utf-8")


def test_docs_tree_exists_and_is_linked():
    assert (REPO / "docs" / "architecture.md").is_file()
    assert (REPO / "docs" / "grid.md").is_file()
    assert (REPO / "docs" / "operations.md").is_file()
    readme = _read(REPO / "README.md")
    for page in ("docs/architecture.md", "docs/grid.md",
                 "docs/operations.md"):
        assert page in readme, f"README does not link {page}"


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_docs_reference_only_real_subcommands(path, cli_choices):
    commands, nested = cli_choices
    text = _read(path)
    unknown = {token for token in _SUBCOMMAND_RE.findall(text)
               if token not in commands}
    assert not unknown, (
        f"{path.name} references nanoxbar subcommands the CLI does not "
        f"define: {sorted(unknown)} (known: {sorted(commands)})")
    grid_unknown = {token for token in _GRID_SUBCOMMAND_RE.findall(text)
                    if token not in nested.get("grid", set())}
    assert not grid_unknown, (
        f"{path.name} references 'nanoxbar grid' subcommands that do not "
        f"exist: {sorted(grid_unknown)}")


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_docs_pass_only_real_flags(path, cli_options):
    wrong = []
    for number, line in enumerate(_read(path).splitlines(), 1):
        calls = list(_INVOCATION_RE.finditer(line))
        ends = [call.start() for call in calls[1:]] + [len(line)]
        for call, end in zip(calls, ends):
            command = " ".join(call.group(1).split())
            # unknown commands fail test_docs_reference_only_real_subcommands
            known = cli_options.get(command)
            if known is None:
                continue
            wrong += [f"line {number}: nanoxbar {command} {flag}"
                      for flag in _FLAG_RE.findall(line, call.end(), end)
                      if flag not in known]
    assert not wrong, (
        f"{path.name} passes flags their subcommand does not accept: "
        f"{wrong}")


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_docs_name_only_real_repo_paths(path):
    spans = _CODE_SPAN_RE.findall(_FENCE_RE.sub("", _read(path)))
    missing = sorted({span for span in spans
                      if _REPO_PATH_RE.fullmatch(span)
                      and not (REPO / span).exists()})
    assert not missing, (
        f"{path.name} names repo paths that do not exist: {missing}")


def _resolves(name: str) -> bool:
    """Import the longest module prefix of ``name``, then walk the rest
    as attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_docs_name_only_real_python_names(path):
    spans = _CODE_SPAN_RE.findall(_FENCE_RE.sub("", _read(path)))
    names = {name for span in spans for name in _PYTHON_NAME_RE.findall(span)}
    missing = sorted(name for name in names if not _resolves(name))
    assert not missing, (
        f"{path.name} names Python objects that do not exist: {missing}")


@pytest.fixture(scope="module")
def env_vars_in_src():
    tokens: set[str] = set()
    for path in (REPO / "src").rglob("*.py"):
        tokens.update(_ENV_RE.findall(path.read_text(encoding="utf-8")))
    assert tokens, "no NANOXBAR_* switches found in src?"
    return tokens


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_docs_reference_only_real_env_vars(path, env_vars_in_src):
    unknown = set(_ENV_RE.findall(_read(path))) - env_vars_in_src
    assert not unknown, (
        f"{path.name} mentions environment variables the code never "
        f"reads: {sorted(unknown)} (known: {sorted(env_vars_in_src)})")


def test_architecture_page_names_every_package():
    text = _read(REPO / "docs" / "architecture.md")
    packages = sorted(path.parent.name for path in
                      (REPO / "src" / "repro").glob("*/__init__.py"))
    assert packages, "no packages found under src/repro?"
    missing = [name for name in packages
               if not re.search(rf"\brepro\.{name}\b", text)]
    assert not missing, (
        f"docs/architecture.md does not name packages {missing}")


def test_operations_page_covers_every_stock_watchdog_rule():
    from repro.obs.health import default_server_rules

    text = _read(REPO / "docs" / "operations.md")
    for rule in default_server_rules():
        assert rule.name in text, (
            f"docs/operations.md does not document watchdog rule "
            f"{rule.name!r}")


def test_grid_page_covers_every_family_and_config_key():
    from repro.engine.campaign import request_keys
    from repro.grid import FAMILIES, GridConfig
    from repro.grid.config import _SECTIONS

    text = _read(REPO / "docs" / "grid.md")
    for family in FAMILIES:
        assert f"`{family}`" in text, (
            f"docs/grid.md does not document family {family!r}")
    for key in sorted(_SECTIONS | request_keys(GridConfig)):
        assert f"`{key}`" in text, (
            f"docs/grid.md does not document config key {key!r}")

"""The repo's own invariant: ``nanoxbar lint src/`` stays clean.

This is the CI gate as a test — every determinism / concurrency /
layering rule over the entire source tree, with zero unsuppressed
findings, and every suppression (if any ever appear) carrying a reason.
"""

from __future__ import annotations

import ast
import os

from repro.analysis import lint_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _lint(*relative):
    return lint_paths([os.path.join(REPO_ROOT, part) for part in relative])


def test_src_tree_lints_clean():
    report = _lint("src")
    assert report.files_checked > 100
    offenders = "\n".join(f.render() for f in report.unsuppressed)
    assert report.exit_code == 0, f"unsuppressed findings:\n{offenders}"


def test_benchmarks_and_examples_lint_clean():
    report = _lint("benchmarks", "examples")
    assert report.files_checked > 0
    offenders = "\n".join(f.render() for f in report.unsuppressed)
    assert report.exit_code == 0, f"unsuppressed findings:\n{offenders}"


def test_every_suppression_carries_a_reason():
    report = _lint("src", "benchmarks", "examples")
    for finding in report.findings:
        if finding.suppressed:
            assert finding.reason, f"reasonless suppression: {finding.render()}"


def test_every_all_entry_resolves_and_star_imports():
    """A deleted definition must not leave a stale ``__all__`` entry: every
    listed name exists and ``from <module> import *`` succeeds."""
    import importlib
    import pkgutil

    import repro

    names = ["repro"] + [info.name for info in
                         pkgutil.walk_packages(repro.__path__, "repro.")]
    exported = 0
    for name in names:
        module = importlib.import_module(name)
        listed = getattr(module, "__all__", None)
        if listed is None:
            continue
        missing = [entry for entry in listed if not hasattr(module, entry)]
        assert not missing, f"{name}.__all__ lists missing names {missing}"
        exec(f"from {name} import *", {})
        exported += len(listed)
    assert len(names) > 100 and exported > 300


#: Settable values in ``src/repro`` (see the test below).  A change that
#: needs a new one raises this number in its own diff.
SETTABLE_VALUES = 276


def _defaulted_parameters(function):
    args = function.args
    positional = args.posonlyargs + args.args
    defaulted = positional[len(positional) - len(args.defaults):]
    return [arg.arg for arg in defaulted] + [
        arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None]


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        if getattr(target, "id", getattr(target, "attr", None)) \
                == "dataclass":
            return True
    return False


def _dataclass_defaults(node):
    return [item.target.id for item in node.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and item.value is not None
            and "ClassVar" not in ast.unparse(item.annotation)]


def settable_values(root):
    """Every defaulted parameter of a public top-level function or of a
    public (or ``__init__``) method of a public top-level class, and every
    defaulted field of a public dataclass, as ``module:owner:name``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for directory, _dirs, files in os.walk(root):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            module = os.path.relpath(path, root)
            for node in tree.body:
                if not isinstance(node, (*functions, ast.ClassDef)) \
                        or node.name.startswith("_"):
                    continue
                if isinstance(node, functions):
                    found += [f"{module}:{node.name}:{name}"
                              for name in _defaulted_parameters(node)]
                    continue
                if _is_dataclass(node):
                    found += [f"{module}:{node.name}:{name}"
                              for name in _dataclass_defaults(node)]
                for item in node.body:
                    if isinstance(item, functions) and (
                            not item.name.startswith("_")
                            or item.name == "__init__"):
                        found += [f"{module}:{node.name}.{item.name}:{name}"
                                  for name in _defaulted_parameters(item)]
    return found


def test_settable_values_do_not_grow():
    """Each defaulted parameter or dataclass field is a configuration the
    tests must cover; one that no caller varies belongs in a constant."""
    values = settable_values(os.path.join(REPO_ROOT, "src", "repro"))
    assert len(values) > 100  # the walk found the package
    assert len(values) <= SETTABLE_VALUES, (
        f"{len(values)} settable values, pinned at {SETTABLE_VALUES}: fold "
        f"the new one into a constant, or raise the pin with a reason")

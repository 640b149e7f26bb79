"""AST lint engine: visitor framework, rule registry, suppressions.

The engine walks each module's AST exactly once.  Rules subclass
:class:`Rule`, declare the node types they care about, and yield
:class:`Finding` objects; :func:`lint_paths` drives the walk, applies the
per-line suppression pragmas, and returns a :class:`LintReport`.

Suppression syntax (same line as the finding)::

    risky_call()  # nanoxbar: allow[NX104] -- frozen upstream, order-free

Every pragma **must** carry a reason after ``--``; a pragma without one,
with an unknown rule id, or that suppresses nothing is itself reported
under the reserved id ``NX000`` (which cannot be suppressed).
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: Reserved id for pragma hygiene findings (malformed / unknown / unused).
PRAGMA_RULE_ID = "NX000"

_PRAGMA_RE = re.compile(r"#\s*nanoxbar:\s*(?P<body>.*)$")
_ALLOW_RE = re.compile(
    r"allow\[(?P<ids>[A-Za-z0-9_,\s-]+)\]\s*(?:--\s*(?P<reason>.*\S))?\s*$")


@dataclass(frozen=True)
class Finding:
    """One lint finding (possibly suppressed by a pragma)."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    reason: str | None = None

    def as_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
            "reason": self.reason,
        }

    def render(self) -> str:
        tag = "  [suppressed: {}]".format(self.reason) if self.suppressed \
            else ""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} {self.message}{tag}")


@dataclass
class Suppression:
    """One parsed ``# nanoxbar: allow[...] -- reason`` pragma."""

    line: int
    rule_ids: tuple[str, ...]
    reason: str
    used: set = field(default_factory=set)


class ModuleContext:
    """Everything a rule may ask about the module under lint."""

    def __init__(self, path: str, source: str,
                 module: str | None = None) -> None:
        self.path = path
        self.source = source
        self.module = module if module is not None \
            else module_name_for_path(path)
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()
        #: alias -> fully qualified module (``import numpy as np``)
        self.module_aliases: dict[str, str] = {}
        #: local name -> fully qualified origin (``from x import y as z``)
        self.imported_names: dict[str, str] = {}
        #: every module this file imports, absolute-resolved
        self.imported_modules: list[tuple[str, ast.AST]] = []
        self._collect_imports()

    # -- import resolution -------------------------------------------------
    def _resolve_relative(self, level: int, name: str | None) -> str:
        """Make ``from ..x import y`` absolute using this module's name."""
        if level == 0:
            return name or ""
        base_parts = (self.module or "").split(".")
        # level=1 strips the module's own leaf, level=2 one package more...
        keep = len(base_parts) - level
        if keep < 0:
            keep = 0
        prefix = ".".join(base_parts[:keep])
        if name:
            return f"{prefix}.{name}" if prefix else name
        return prefix

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.module_aliases[local] = target
                    self.imported_modules.append((alias.name, node))
            elif isinstance(node, ast.ImportFrom):
                origin = self._resolve_relative(node.level, node.module)
                self.imported_modules.append((origin, node))
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imported_names[local] = f"{origin}.{alias.name}"

    def qualified_name(self, node: ast.AST) -> str | None:
        """Dotted name for ``Name``/``Attribute`` chains, alias-resolved.

        ``np.random.seed`` (with ``import numpy as np``) resolves to
        ``numpy.random.seed``; ``connect`` (with ``from sqlite3 import
        connect``) resolves to ``sqlite3.connect``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        parts.append(self.module_aliases.get(
            root, self.imported_names.get(root, root)))
        return ".".join(reversed(parts))


class Rule:
    """Base class: subclass, set the metadata, implement the hooks."""

    rule_id: str = ""
    category: str = ""          # "determinism" | "concurrency" | "layering"
    description: str = ""
    #: AST node types routed to :meth:`visit_node` (empty = none).
    node_types: tuple = ()
    #: module used when self-test snippets are linted (puts them in scope).
    selftest_module: str = "repro.faultlab.kernels"
    #: snippets that must each produce >= 1 finding of this rule.
    fires: tuple[str, ...] = ()
    #: snippets that must produce no finding of this rule.
    clean: tuple[str, ...] = ()

    def applies_to(self, ctx: ModuleContext) -> bool:
        """Module filter; default: lint every module."""
        return True

    def visit_node(self, node: ast.AST,
                   ctx: ModuleContext) -> Iterator[Finding]:
        """Per-node hook for the types named in :attr:`node_types`."""
        return iter(())

    def finish(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Module-level hook, called once after the walk (imports etc.)."""
        return iter(())

    def finding(self, ctx: ModuleContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(self.rule_id, ctx.path,
                       getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0), message)


#: rule_id -> rule class, in registration order.
_REGISTRY: dict[str, type] = {}


def register(cls: type) -> type:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule (registration order)."""
    _load_builtin_rules()
    return [cls() for cls in _REGISTRY.values()]


def rule_catalog() -> list[dict]:
    """Static catalog (id, category, description) for docs and --rules."""
    _load_builtin_rules()
    return [{"rule": cls.rule_id, "category": cls.category,
             "description": cls.description}
            for cls in _REGISTRY.values()]


def _load_builtin_rules() -> None:
    # Imported lazily so the registry fills exactly once, and so rule
    # modules can import this one without a cycle.
    from . import rules_concurrency  # noqa: F401
    from . import rules_determinism  # noqa: F401
    from . import rules_layering  # noqa: F401


def module_name_for_path(path: str) -> str | None:
    """``src/repro/engine/pool.py`` -> ``repro.engine.pool``; else None.

    Files outside a ``repro`` package root (benchmarks, examples, ad-hoc
    scripts) get ``None``: scope-limited rules fall back to their
    out-of-tree policy.
    """
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    if "repro" not in parts:
        return None
    idx = parts.index("repro")
    mod_parts = parts[idx:]
    if not mod_parts[-1].endswith(".py"):
        return None
    mod_parts[-1] = mod_parts[-1][:-3]
    if mod_parts[-1] == "__init__":
        mod_parts.pop()
    return ".".join(mod_parts)


def _comment_tokens(source: str) -> Iterator[tuple[int, str]]:
    """``(line, comment_text)`` for every real comment token.

    Tokenizing (rather than regexing raw lines) keeps pragma-shaped text
    inside strings and docstrings — like this module's own docs — from
    parsing as pragmas.
    """
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return  # ast.parse already reported unparseable modules


def parse_suppressions(source: str,
                       known_ids: set[str]) -> tuple[list[Suppression],
                                                     list[Finding]]:
    """Extract pragmas; malformed ones come back as NX000 findings."""
    suppressions: list[Suppression] = []
    problems: list[Finding] = []

    def problem(lineno: int, message: str) -> None:
        problems.append(Finding(PRAGMA_RULE_ID, "", lineno, 0, message))

    for lineno, text in _comment_tokens(source):
        match = _PRAGMA_RE.search(text)
        if not match:
            continue
        body = match.group("body").strip()
        allow = _ALLOW_RE.match(body)
        if not allow:
            problem(lineno, f"malformed pragma {body!r} (expected "
                            "'allow[RULE-ID] -- reason')")
            continue
        reason = allow.group("reason")
        if not reason:
            problem(lineno, "suppression is missing its '-- reason'")
            continue
        ids = tuple(part.strip() for part in
                    allow.group("ids").split(",") if part.strip())
        if PRAGMA_RULE_ID in ids:
            problem(lineno, f"{PRAGMA_RULE_ID} cannot be suppressed")
            continue
        unknown = [rid for rid in ids if rid not in known_ids]
        if unknown or not ids:
            problem(lineno, "unknown rule id(s) in suppression: "
                            f"{', '.join(unknown) or '(none given)'}")
            continue
        suppressions.append(Suppression(lineno, ids, reason))
    return suppressions, problems


def lint_source(source: str, path: str = "<snippet>",
                module: str | None = None,
                rules: Iterable[Rule] | None = None) -> list[Finding]:
    """Lint one in-memory module; the engine core behind lint_paths."""
    active = list(rules) if rules is not None else all_rules()
    known_ids = {rule.rule_id for rule in all_rules()}
    try:
        ctx = ModuleContext(path, source, module=module)
    except SyntaxError as error:
        return [Finding(PRAGMA_RULE_ID, path, error.lineno or 1, 0,
                        f"cannot parse module: {error.msg}")]
    applicable = [rule for rule in active if rule.applies_to(ctx)]
    dispatch: dict[type, list[Rule]] = {}
    for rule in applicable:
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)

    raw: list[Finding] = []
    if dispatch:
        for node in ast.walk(ctx.tree):
            for rule in dispatch.get(type(node), ()):
                raw.extend(rule.visit_node(node, ctx))
    for rule in applicable:
        raw.extend(rule.finish(ctx))

    suppressions, problems = parse_suppressions(source, known_ids)
    by_line: dict[int, list[Suppression]] = {}
    for sup in suppressions:
        by_line.setdefault(sup.line, []).append(sup)

    findings: list[Finding] = []
    for finding in raw:
        matched = None
        for sup in by_line.get(finding.line, ()):
            if finding.rule_id in sup.rule_ids:
                matched = sup
                sup.used.add(finding.rule_id)
                break
        if matched is not None:
            findings.append(Finding(finding.rule_id, path, finding.line,
                                    finding.col, finding.message,
                                    suppressed=True,
                                    reason=matched.reason))
        else:
            findings.append(Finding(finding.rule_id, path, finding.line,
                                    finding.col, finding.message))
    for sup in suppressions:
        unused = [rid for rid in sup.rule_ids if rid not in sup.used]
        if unused:
            problems.append(Finding(
                PRAGMA_RULE_ID, "", sup.line, 0,
                f"unused suppression for {', '.join(unused)} "
                "(nothing to allow on this line)"))
    for finding in problems:
        findings.append(Finding(finding.rule_id, path, finding.line,
                                finding.col, finding.message))
    findings.sort(key=lambda f: (f.line, f.col, f.rule_id))
    return findings


@dataclass
class LintReport:
    """All findings over a path sweep, plus the exit-code policy."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def unsuppressed(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def exit_code(self) -> int:
        return 1 if self.unsuppressed else 0

    def as_dict(self) -> dict:
        return {
            "version": 1,
            "files_checked": self.files_checked,
            "counts": {
                "findings": len(self.findings),
                "unsuppressed": len(self.unsuppressed),
                "suppressed": len(self.findings) - len(self.unsuppressed),
            },
            "findings": [f.as_dict() for f in self.findings],
        }


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Every ``.py`` under the given files/directories, sorted, deduped."""
    seen = []
    for path in paths:
        if os.path.isfile(path):
            if path not in seen:
                seen.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in ("__pycache__", ".git"))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    full = os.path.join(dirpath, name)
                    if full not in seen:
                        seen.append(full)
    return iter(seen)


def lint_paths(paths: Iterable[str]) -> LintReport:
    """Lint every python file under ``paths`` with every rule."""
    report = LintReport()
    rule_list = all_rules()
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        report.files_checked += 1
        # Fresh rule instances per file keep rules stateless-by-default.
        report.findings.extend(
            lint_source(source, path=path,
                        rules=[type(rule)() for rule in rule_list]))
    return report

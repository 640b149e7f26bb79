"""Boolean expression AST and parser.

The parser accepts the notation used throughout the DATE'17 paper and its
references, e.g. ``x1 x2 x3 + x4 x5 x6`` (juxtaposition/space = AND,
``+`` = OR, postfix ``'`` = NOT) as well as programming-style operators
(``&``, ``|``, ``^``, ``~``, ``!``).  Parsed expressions evaluate against
integer assignments and convert to truth tables.

Grammar (precedence low to high)::

    expr     := orexpr
    orexpr   := xorexpr ( ('|' | '+') xorexpr )*
    xorexpr  := andexpr ( '^' andexpr )*
    andexpr  := unary ( ('&' | '*')? unary )*        # adjacency is AND
    unary    := ('~' | '!') unary | primary ("'")*
    primary  := NAME | '0' | '1' | '(' expr ')'
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from .truthtable import TruthTable


class ExpressionError(ValueError):
    """Raised for syntax errors and unknown variables."""


# ----------------------------------------------------------------------
# AST nodes
# ----------------------------------------------------------------------
class Node:
    """Base class for expression nodes."""

    def evaluate(self, env: dict[str, bool]) -> bool:
        raise NotImplementedError

    def variables(self) -> set[str]:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Node):
    value: bool

    def evaluate(self, env: dict[str, bool]) -> bool:
        return self.value

    def variables(self) -> set[str]:
        return set()

    def __str__(self) -> str:
        return "1" if self.value else "0"


@dataclass(frozen=True)
class Var(Node):
    name: str

    def evaluate(self, env: dict[str, bool]) -> bool:
        try:
            return env[self.name]
        except KeyError:
            raise ExpressionError(f"unbound variable {self.name!r}") from None

    def variables(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Not(Node):
    child: Node

    def evaluate(self, env: dict[str, bool]) -> bool:
        return not self.child.evaluate(env)

    def variables(self) -> set[str]:
        return self.child.variables()

    def __str__(self) -> str:
        return f"~{self.child}" if isinstance(self.child, (Var, Const)) else f"~({self.child})"


@dataclass(frozen=True)
class NaryOp(Node):
    children: tuple[Node, ...]

    _symbol = "?"

    def variables(self) -> set[str]:
        out: set[str] = set()
        for child in self.children:
            out |= child.variables()
        return out

    def __str__(self) -> str:
        parts = []
        for child in self.children:
            text = str(child)
            if isinstance(child, NaryOp):
                text = f"({text})"
            parts.append(text)
        return f" {self._symbol} ".join(parts)


class And(NaryOp):
    _symbol = "&"

    def evaluate(self, env: dict[str, bool]) -> bool:
        return all(child.evaluate(env) for child in self.children)


class Or(NaryOp):
    _symbol = "|"

    def evaluate(self, env: dict[str, bool]) -> bool:
        return any(child.evaluate(env) for child in self.children)


class Xor(NaryOp):
    _symbol = "^"

    def evaluate(self, env: dict[str, bool]) -> bool:
        result = False
        for child in self.children:
            result ^= child.evaluate(env)
        return result


# ----------------------------------------------------------------------
# Tokeniser / parser
# ----------------------------------------------------------------------
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[()&|^+*~!'])|(?P<const>[01]))"
)


def _tokenize(text: str) -> Iterator[tuple[str, str]]:
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise ExpressionError(f"unexpected character {remainder[0]!r} at offset {pos}")
        pos = match.end()
        if match.group("name"):
            yield "name", match.group("name")
        elif match.group("const"):
            yield "const", match.group("const")
        else:
            yield "op", match.group("op")


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise ExpressionError("unexpected end of expression")
        self.pos += 1
        return token

    def expect(self, value: str) -> None:
        token = self.take()
        if token != ("op", value):
            raise ExpressionError(f"expected {value!r}, got {token[1]!r}")

    def parse(self) -> Node:
        node = self.orexpr()
        if self.peek() is not None:
            raise ExpressionError(f"trailing input near {self.peek()[1]!r}")
        return node

    def orexpr(self) -> Node:
        parts = [self.xorexpr()]
        while self.peek() in (("op", "|"), ("op", "+")):
            self.take()
            parts.append(self.xorexpr())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def xorexpr(self) -> Node:
        parts = [self.andexpr()]
        while self.peek() == ("op", "^"):
            self.take()
            parts.append(self.andexpr())
        return parts[0] if len(parts) == 1 else Xor(tuple(parts))

    def andexpr(self) -> Node:
        parts = [self.unary()]
        while True:
            token = self.peek()
            if token in (("op", "&"), ("op", "*")):
                self.take()
                parts.append(self.unary())
            elif token is not None and (token[0] in ("name", "const") or token == ("op", "(")
                                        or token[0] == "op" and token[1] in "~!"):
                # Adjacency (e.g. "x1 x2" or "x1(x2+x3)") means AND.
                parts.append(self.unary())
            else:
                break
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self) -> Node:
        token = self.peek()
        if token is not None and token[0] == "op" and token[1] in "~!":
            self.take()
            return Not(self.unary())
        node = self.primary()
        while self.peek() == ("op", "'"):
            self.take()
            node = Not(node)
        return node

    def primary(self) -> Node:
        kind, value = self.take()
        if kind == "name":
            return Var(value)
        if kind == "const":
            return Const(value == "1")
        if (kind, value) == ("op", "("):
            node = self.orexpr()
            self.expect(")")
            return node
        raise ExpressionError(f"unexpected token {value!r}")


def parse_expression(text: str) -> Node:
    """Parse a Boolean expression string into an AST."""
    if not text or not text.strip():
        raise ExpressionError("empty expression")
    return _Parser(text).parse()


# ----------------------------------------------------------------------
# Conversions
# ----------------------------------------------------------------------
def _natural_key(name: str) -> tuple:
    """Sort x2 before x10 by splitting digit runs."""
    return tuple(int(part) if part.isdigit() else part
                 for part in re.split(r"(\d+)", name))


def expression_variables(node: Node) -> list[str]:
    """Variables of an expression in natural sorted order (x1, x2, ..., x10)."""
    return sorted(node.variables(), key=_natural_key)


def expression_to_truth_table(
    node: Node, names: Sequence[str] | None = None
) -> tuple[TruthTable, list[str]]:
    """Evaluate an AST into a truth table.

    Args:
        node: parsed expression.
        names: optional explicit variable order; must include every variable
            of the expression.  Defaults to natural sorted order.

    Returns:
        ``(table, names)`` where bit ``i`` of a table index is the value of
        ``names[i]``.
    """
    if names is None:
        names = expression_variables(node)
    else:
        names = list(names)
        missing = node.variables() - set(names)
        if missing:
            raise ExpressionError(f"names missing variables: {sorted(missing)}")
    n = len(names)
    if n > 20:
        raise ExpressionError(f"expression has too many variables ({n}) for a dense table")
    values = []
    for assignment in range(1 << n):
        env = {name: bool((assignment >> i) & 1) for i, name in enumerate(names)}
        values.append(node.evaluate(env))
    return TruthTable(n, values), list(names)


"""Berkeley/espresso PLA format reader.

The benchmark tables in the lattice-synthesis literature ([2], [5], [6],
[9]) are espresso ``.pla`` files.  This module parses the common
subset of the format: ``.i``, ``.o``, ``.p``, ``.ilb``, ``.ob``, ``.type``
(``f``, ``fd``, ``fr``), cube lines and ``.e``.

Multi-output PLAs are represented as a list of single-output
(on-set, dc-set) pairs, which is what the synthesis flows consume (each
crossbar output plane is synthesised independently).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cover import Cover
from .cube import Cube
from .truthtable import TruthTable


class PlaError(ValueError):
    """Raised on malformed PLA input."""


@dataclass
class Pla:
    """A parsed PLA: input/output counts, names and raw cube rows."""

    num_inputs: int
    num_outputs: int
    input_names: list[str] = field(default_factory=list)
    output_names: list[str] = field(default_factory=list)
    #: rows of (input cube, output pattern) strings, e.g. ("1-0", "1")
    rows: list[tuple[str, str]] = field(default_factory=list)
    #: espresso .type: "f" (on-set only), "fd" (on + dc), "fr" (on + off)
    logic_type: str = "fd"

    def __post_init__(self) -> None:
        if not self.input_names:
            self.input_names = [f"x{i + 1}" for i in range(self.num_inputs)]
        if not self.output_names:
            self.output_names = [f"f{i}" for i in range(self.num_outputs)]

    # ------------------------------------------------------------------
    def output_cover(self, output: int = 0) -> tuple[Cover, Cover]:
        """Return ``(on_cover, dc_cover)`` for one output column.

        Output symbols: ``1`` adds the row's input cube to the on-set,
        ``-``/``2`` to the dc-set (type fd), ``0`` is off (type fr) or
        "not part of this output" (type f/fd), ``~`` is ignored.
        """
        if not 0 <= output < self.num_outputs:
            raise PlaError(f"output {output} out of range")
        on: list[Cube] = []
        dc: list[Cube] = []
        for in_part, out_part in self.rows:
            symbol = out_part[output]
            if symbol == "1" or symbol == "4":
                on.append(Cube.from_string(in_part))
            elif symbol in "-2" and self.logic_type in ("fd", "fdr"):
                dc.append(Cube.from_string(in_part))
        return Cover(self.num_inputs, on), Cover(self.num_inputs, dc)

    def output_tables(self, output: int = 0) -> tuple[TruthTable, TruthTable]:
        """Dense ``(on, dc)`` truth tables for one output column."""
        on, dc = self.output_cover(output)
        return on.to_truth_table(), dc.to_truth_table()


def parse_pla(text: str) -> Pla:
    """Parse PLA text into a :class:`Pla` structure."""
    num_inputs: int | None = None
    num_outputs: int | None = None
    input_names: list[str] = []
    output_names: list[str] = []
    logic_type = "fd"
    rows: list[tuple[str, str]] = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            keyword = parts[0]
            if keyword == ".i":
                num_inputs = int(parts[1])
            elif keyword == ".o":
                num_outputs = int(parts[1])
            elif keyword == ".ilb":
                input_names = parts[1:]
            elif keyword == ".ob":
                output_names = parts[1:]
            elif keyword == ".type":
                logic_type = parts[1]
            elif keyword in (".p", ".e", ".end"):
                continue
            else:
                # Unknown directives (.phase, .pair, ...) are skipped.
                continue
        else:
            parts = line.split()
            if len(parts) == 1:
                if num_inputs is None:
                    raise PlaError("cube line before .i declaration")
                in_part = parts[0][:num_inputs]
                out_part = parts[0][num_inputs:]
            else:
                in_part = parts[0]
                out_part = "".join(parts[1:])
            rows.append((in_part, out_part))
    if num_inputs is None or num_outputs is None:
        raise PlaError("PLA must declare .i and .o")
    for in_part, out_part in rows:
        if len(in_part) != num_inputs:
            raise PlaError(f"input cube {in_part!r} length != .i {num_inputs}")
        if len(out_part) != num_outputs:
            raise PlaError(f"output part {out_part!r} length != .o {num_outputs}")
    return Pla(
        num_inputs=num_inputs,
        num_outputs=num_outputs,
        input_names=input_names,
        output_names=output_names,
        rows=rows,
        logic_type=logic_type,
    )


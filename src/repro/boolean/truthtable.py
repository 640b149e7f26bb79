"""Dense truth tables backed by numpy boolean arrays.

A :class:`TruthTable` stores the value of a Boolean function for all ``2^n``
assignments; index ``m`` holds ``f(m)`` where bit ``i`` of ``m`` is the value
of variable ``x_i``.  Truth tables are the semantic ground truth of the
package: synthesis results (two-terminal arrays, lattices, decompositions)
are all validated by comparing their evaluated truth tables.

Tables are practical for ``n`` up to about 20; all functions in the DATE'17
experiments have far fewer inputs.
"""

from __future__ import annotations

import hashlib
import operator
import struct
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .cube import Cube

#: Largest variable count for which dense tables are allowed.
MAX_DENSE_VARS = 24

#: Wire-format magic/version for :meth:`TruthTable.to_bytes`.
_WIRE_MAGIC = b"TT1\x00"


def _packed(n: int, bits: int) -> bytes:
    """The low ``2^n`` bits of ``bits``, eight to a byte little-endian."""
    size = 1 << n
    low = operator.index(bits) & ((1 << size) - 1)
    return low.to_bytes((size + 7) // 8, "little")


def _wire_bytes(n: int, payload: bytes) -> bytes:
    """The :meth:`TruthTable.to_bytes` layout: header, then packed values."""
    return struct.pack("<4sB", _WIRE_MAGIC, n) + payload


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError("variable count must be non-negative")
    if n > MAX_DENSE_VARS:
        raise ValueError(
            f"dense truth tables support at most {MAX_DENSE_VARS} variables, got {n}"
        )


class TruthTable:
    """An immutable dense truth table over ``n`` variables."""

    __slots__ = ("n", "_values")

    def __init__(self, n: int,
                 values: np.ndarray | Sequence[bool] | Sequence[int]) -> None:
        _check_n(n)
        arr = np.asarray(values, dtype=bool)
        if arr.shape != (1 << n,):
            raise ValueError(
                f"expected {1 << n} entries for {n} variables, got shape {arr.shape}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_values", arr)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TruthTable is immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def constant(n: int, value: bool) -> "TruthTable":
        """The constant-0 or constant-1 function."""
        _check_n(n)
        return TruthTable(n, np.full(1 << n, bool(value)))

    @staticmethod
    def variable(n: int, var: int) -> "TruthTable":
        """The projection function ``f(x) = x_var``."""
        _check_n(n)
        if not 0 <= var < n:
            raise ValueError(f"variable {var} out of range for n={n}")
        idx = np.arange(1 << n)
        return TruthTable(n, ((idx >> var) & 1).astype(bool))

    @staticmethod
    def from_minterms(n: int, minterms: Iterable[int]) -> "TruthTable":
        """Build from an iterable of on-set minterms."""
        _check_n(n)
        arr = np.zeros(1 << n, dtype=bool)
        for m in minterms:
            if not 0 <= m < (1 << n):
                raise ValueError(f"minterm {m} out of range for n={n}")
            arr[m] = True
        return TruthTable(n, arr)

    @staticmethod
    def from_callable(n: int, fn: Callable[[int], bool]) -> "TruthTable":
        """Build by evaluating ``fn`` on every assignment (slow but general)."""
        _check_n(n)
        return TruthTable(n, np.fromiter((bool(fn(m)) for m in range(1 << n)),
                                         dtype=bool, count=1 << n))

    @staticmethod
    def from_cubes(n: int, cubes: Iterable[Cube]) -> "TruthTable":
        """OR of a set of cubes, evaluated with vectorised mask tests."""
        _check_n(n)
        idx = np.arange(1 << n)
        arr = np.zeros(1 << n, dtype=bool)
        for cube in cubes:
            if cube.n != n:
                raise ValueError("cube dimension mismatch")
            hit = np.ones(1 << n, dtype=bool)
            if cube.pos:
                hit &= (idx & cube.pos) == cube.pos
            if cube.neg:
                hit &= (idx & cube.neg) == 0
            arr |= hit
        return TruthTable(n, arr)

    @staticmethod
    def from_bits(n: int, bits: int) -> "TruthTable":
        """Build from an integer whose bit ``m`` is ``f(m)``.

        Only the low ``2^n`` bits count (a negative ``bits`` reads as its
        two's complement, as ``(bits >> m) & 1`` does).
        """
        _check_n(n)
        packed = np.frombuffer(_packed(n, bits), dtype=np.uint8)
        return TruthTable(n, np.unpackbits(packed, count=1 << n,
                                           bitorder="little").view(bool))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """Read-only numpy view of the 2^n values."""
        return self._values

    @property
    def bits(self) -> int:
        """The table packed into a Python int (bit ``m`` = ``f(m)``)."""
        packed = np.packbits(self._values, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    # ------------------------------------------------------------------
    # Compact serialization (process boundaries, content-hash caching)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Compact, deterministic wire format (packed-bit payload).

        Layout: ``b"TT1\\0"`` magic, ``<B`` variable count, then the
        ``2^n`` values packed eight to a byte little-endian (bit ``k`` of
        byte ``j`` is ``f(8j + k)``).  Equal tables always serialise to
        equal bytes, so the output is content-hashable; the engine cache
        keys NPN-canonical representatives by :meth:`content_hash`.
        """
        return _wire_bytes(self.n, np.packbits(self._values,
                                               bitorder="little").tobytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "TruthTable":
        """Inverse of :meth:`to_bytes` (validates magic, size, padding)."""
        head_size = struct.calcsize("<4sB")
        if len(data) < head_size:
            raise ValueError("truth-table payload shorter than its header")
        magic, n = struct.unpack_from("<4sB", data)
        if magic != _WIRE_MAGIC:
            raise ValueError(f"bad truth-table magic {magic!r}")
        _check_n(n)
        payload = data[head_size:]
        expected = ((1 << n) + 7) // 8
        if len(payload) != expected:
            raise ValueError(
                f"expected {expected} payload bytes for n={n}, got {len(payload)}"
            )
        packed = np.frombuffer(payload, dtype=np.uint8)
        bits = np.unpackbits(packed, bitorder="little")
        if bits[1 << n:].any():
            raise ValueError("nonzero padding bits in truth-table payload")
        return cls(n, bits[:1 << n].astype(bool))

    def content_hash(self) -> str:
        """SHA-256 hex digest of :meth:`to_bytes` (stable cache key)."""
        return hashlib.sha256(self.to_bytes()).hexdigest()

    @staticmethod
    def bits_content_hash(n: int, bits: int) -> str:
        """:meth:`content_hash` of ``from_bits(n, bits)``, hashed straight
        from the packed bits without building the dense table."""
        _check_n(n)
        return hashlib.sha256(_wire_bytes(n, _packed(n, bits))).hexdigest()

    def __call__(self, assignment: int) -> bool:
        return bool(self._values[assignment])

    def evaluate(self, assignment: int) -> bool:
        """Value of the function at one assignment."""
        return bool(self._values[assignment])

    def minterms(self) -> Iterator[int]:
        """Iterate the on-set minterms in increasing order."""
        for m in np.flatnonzero(self._values):
            yield int(m)

    def count_ones(self) -> int:
        """Size of the on-set."""
        return int(self._values.sum())

    def is_constant(self) -> bool:
        """True for the two constant functions."""
        ones = self.count_ones()
        return ones == 0 or ones == (1 << self.n)

    def is_tautology(self) -> bool:
        return bool(self._values.all())

    def is_contradiction(self) -> bool:
        return not self._values.any()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._values, other._values))

    def __hash__(self) -> int:
        return hash((self.n, self._values.tobytes()))

    def __repr__(self) -> str:
        if self.n <= 6:
            body = "".join("1" if v else "0" for v in self._values)
            return f"TruthTable(n={self.n}, {body})"
        return f"TruthTable(n={self.n}, |on|={self.count_ones()})"

    # ------------------------------------------------------------------
    # Boolean algebra
    # ------------------------------------------------------------------
    def _coerce(self, other: "TruthTable") -> None:
        if not isinstance(other, TruthTable):
            raise TypeError(f"expected TruthTable, got {type(other).__name__}")
        if other.n != self.n:
            raise ValueError("operands live in different variable spaces")

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._coerce(other)
        return TruthTable(self.n, self._values & other._values)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._coerce(other)
        return TruthTable(self.n, self._values | other._values)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._coerce(other)
        return TruthTable(self.n, self._values ^ other._values)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.n, ~self._values)

    def implies(self, other: "TruthTable") -> bool:
        """True iff the on-set of ``self`` is contained in ``other``'s."""
        self._coerce(other)
        return bool((~self._values | other._values).all())

    def difference(self, other: "TruthTable") -> "TruthTable":
        """On-set difference ``self & ~other``."""
        self._coerce(other)
        return TruthTable(self.n, self._values & ~other._values)

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def dual(self) -> "TruthTable":
        """The dual function ``f^D(x) = ~f(~x)``.

        Duality is the engine of both the FET plane sizes (Fig. 3) and the
        lattice row count (Fig. 5).
        """
        idx = np.arange(1 << self.n) ^ ((1 << self.n) - 1)
        return TruthTable(self.n, ~self._values[idx])

    def cofactor(self, var: int, value: bool) -> "TruthTable":
        """Shannon cofactor as a function of the remaining n-1 variables."""
        if not 0 <= var < self.n:
            raise ValueError(f"variable {var} out of range for n={self.n}")
        idx = np.arange(1 << (self.n - 1))
        low = idx & ((1 << var) - 1)
        high = (idx >> var) << (var + 1)
        full = high | low | ((1 << var) if value else 0)
        return TruthTable(self.n - 1, self._values[full])

    def permute(self, perm: Sequence[int]) -> "TruthTable":
        """Reorder variables: new variable ``i`` is old variable ``perm[i]``."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of range(n)")
        idx = np.arange(1 << self.n)
        old = np.zeros(1 << self.n, dtype=np.int64)
        for new_var, old_var in enumerate(perm):
            old |= ((idx >> new_var) & 1) << old_var
        return TruthTable(self.n, self._values[old])

"""NPN classification (input Negation / input Permutation / output Negation).

Two functions are NPN-equivalent when one maps to the other by permuting
inputs, complementing some inputs, and possibly complementing the output.
Array synthesis cost is invariant under input transforms (literals are
free in both polarities on a crossbar), so NPN classes are the right
granularity for expressiveness studies — e.g. "which functions fit a 2x2
lattice" (see :mod:`repro.synthesis.enumerate_lattices`) — and the right
key granularity for the :mod:`repro.engine` result cache.

The canonical representative is the table whose value array is
lexicographically minimal (entry 0 first) over all transforms — equal to
what blind enumeration of all ``n! * 2^(n+1)`` transforms finds, but
computed by a pruned packed-uint64 search (:func:`npn_canonical`):

* each candidate table is packed into a single ``uint64`` key (entry 0 as
  the most significant bit), so a whole permutation sweep is one
  vectorised gather + reduction instead of ``n!`` Python loops;
* the ``2^(n+1)`` *(output polarity, input negation)* branches are pruned
  by a sound cofactor-signature lower bound — the key's entry 0 is
  ``f(nu) ^ o`` and its entries at the power-of-two positions are exactly
  the 1-Hamming cofactor values around ``nu``, so a branch whose best
  possible key already exceeds the incumbent is skipped without touching
  any permutation.

Exact for ``n <= MAX_EXACT_NPN_VARS`` (= 6); the blind reference
implementation is kept as :func:`npn_canonical_exhaustive` for the
property suite (classic class counts: 4 for n=2, 14 for n=3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .truthtable import TruthTable

#: Largest variable count the pruned exact canonical search accepts
#: (2^n must fit one packed uint64 key).
MAX_EXACT_NPN_VARS = 6


@dataclass(frozen=True)
class NpnTransform:
    """A witness transform: ``g(x) = f(perm/neg(x)) ^ output_negate``."""

    permutation: tuple[int, ...]
    input_negation_mask: int
    output_negate: bool


def apply_transform(table: TruthTable, transform: NpnTransform) -> TruthTable:
    """Apply an NPN transform to a truth table.

    The result ``g`` satisfies ``g(x) = f(sigma(x)) ^ out`` where bit ``i``
    of ``sigma(x)`` is ``x[perm[i]] ^ neg[perm[i]]``... concretely: new
    variable ``i`` takes the role of old variable ``perm[i]``, with
    negation applied per the mask (over old variable indices).
    """
    n = table.n
    idx = np.arange(1 << n)
    old = np.zeros(1 << n, dtype=np.int64)
    for new_var, old_var in enumerate(transform.permutation):
        bit = (idx >> new_var) & 1
        if (transform.input_negation_mask >> old_var) & 1:
            bit ^= 1
        old |= bit << old_var
    values = table.values[old]
    if transform.output_negate:
        values = ~values
    return TruthTable(n, values)


def npn_canonical_exhaustive(table: TruthTable) -> tuple[TruthTable, NpnTransform]:
    """Blind-enumeration reference canonicalisation (n <= 5).

    Tries every ``n! * 2^(n+1)`` transform; kept as the bit-exact
    reference :func:`npn_canonical`'s pruned search is property-tested
    against.
    """
    n = table.n
    if n > 5:
        raise ValueError("exhaustive NPN canonicalisation supports n <= 5")
    best: TruthTable | None = None
    best_key: bytes | None = None
    best_transform: NpnTransform | None = None
    for perm in permutations(range(n)):
        for neg_mask in range(1 << n):
            for out_neg in (False, True):
                transform = NpnTransform(perm, neg_mask, out_neg)
                candidate = apply_transform(table, transform)
                key = candidate.values.tobytes()
                if best_key is None or key < best_key:
                    best, best_key, best_transform = candidate, key, transform
    assert best is not None and best_transform is not None
    return best, best_transform


@lru_cache(maxsize=8)
def _perm_tables(n: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """All permutations of ``range(n)`` plus their index-scatter table.

    ``scatter[p, m]`` is the input index reached from assignment ``m`` by
    routing new-variable bit ``i`` to old variable ``perms[p][i]`` — the
    permutation part of the transform, ready to be XORed with a negation
    mask and used as one gather into the packed table.
    """
    perms = tuple(permutations(range(n)))
    m = np.arange(1 << n, dtype=np.int64)
    scatter = np.zeros((len(perms), 1 << n), dtype=np.int64)
    for p, perm in enumerate(perms):
        for new_var, old_var in enumerate(perm):
            scatter[p] |= ((m >> new_var) & 1) << old_var
    return perms, scatter


def input_automorphisms(table: TruthTable) -> tuple[NpnTransform, ...]:
    """Aut(f): every input permutation and negation that fixes ``table``.

    The transforms ``t`` without output negation for which
    ``apply_transform(table, t) == table``, identity first.  One gather
    per permutation tests all ``2^n`` negation masks at once.  Above
    ``MAX_EXACT_NPN_VARS`` the ``n!`` sweep is not attempted and only the
    identity (the trivial subgroup) is returned.
    """
    n = table.n
    if n > MAX_EXACT_NPN_VARS:
        return (NpnTransform(tuple(range(n)), 0, False),)
    values = table.values
    perms, scatter = _perm_tables(n)
    masks = np.arange(1 << n, dtype=np.int64)[:, None]
    group = []
    for perm, row in zip(perms, scatter):
        fixed = (values[row ^ masks] == values).all(axis=1)
        group.extend(NpnTransform(perm, int(mask), False)
                     for mask in np.flatnonzero(fixed))
    return tuple(group)


def npn_canonical(table: TruthTable) -> tuple[TruthTable, NpnTransform]:
    """The lexicographically-minimal NPN representative and its witness.

    Pruned packed-uint64 branch-and-bound, exact for ``n <=
    MAX_EXACT_NPN_VARS``: for every *(output polarity o, input negation
    nu)* branch the candidate key's fixed entries — entry 0 is
    ``f(nu) ^ o`` and the power-of-two entries are a permutation of the
    1-Hamming cofactor signature ``{f(nu ^ e_v) ^ o}`` — give a sound
    optimistic bound; branches that cannot beat the incumbent are skipped,
    and surviving branches evaluate all ``n!`` permutations in one
    vectorised gather instead of a Python loop per transform.
    """
    n = table.n
    if n > MAX_EXACT_NPN_VARS:
        raise ValueError(
            f"exact NPN canonicalisation supports n <= {MAX_EXACT_NPN_VARS}")
    size = 1 << n
    values = table.values
    perms, scatter = _perm_tables(n)
    weights = (np.uint64(1) << (np.uint64(63) - np.arange(size,
                                                          dtype=np.uint64)))

    # Optimistic lower bound per branch: the candidate's entry 0 and, at
    # the power-of-two positions, the sorted 1-Hamming cofactor values
    # (sorted-ascending is the best any permutation could arrange them);
    # all other positions bounded by 0.
    single_positions = [63 - (1 << i) for i in range(n)]
    branches = []
    for out_neg in (False, True):
        for neg_mask in range(size):
            first = bool(values[neg_mask]) ^ out_neg
            singles = sorted(bool(values[neg_mask ^ (1 << v)]) ^ out_neg
                             for v in range(n))
            bound = (1 << 63) if first else 0
            for bit, position in zip(singles, single_positions):
                if bit:
                    bound |= 1 << position
            branches.append((bound, out_neg, neg_mask))
    branches.sort(key=lambda branch: branch[0])

    best_key: int | None = None
    best_transform: NpnTransform | None = None
    for bound, out_neg, neg_mask in branches:
        if best_key is not None and bound > best_key:
            break  # branches are bound-sorted: nothing later can win
        candidates = values[scatter ^ neg_mask]
        if out_neg:
            candidates = ~candidates
        keys = np.where(candidates, weights, np.uint64(0)).sum(axis=1)
        winner = int(keys.argmin())
        key = int(keys[winner])
        if best_key is None or key < best_key:
            best_key = key
            best_transform = NpnTransform(perms[winner], neg_mask, out_neg)
    assert best_transform is not None
    return apply_transform(table, best_transform), best_transform


def _walsh_hadamard(signed: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform of a ``(2^n,)`` ±1 vector.

    Coefficient ``s`` correlates the function with the parity of the
    variables in ``s`` (assignment bit ``v`` aligns with coefficient bit
    ``v``), so per-variable |spectrum| multisets are NPN invariants: a
    permutation permutes coefficients within the same bit-count shells,
    input/output negations only flip signs.
    """
    w = signed.astype(np.int64)
    h = 1
    while h < w.size:
        w = w.reshape(-1, 2, h)
        w = np.stack([w[:, 0, :] + w[:, 1, :],
                      w[:, 0, :] - w[:, 1, :]], axis=1)
        h <<= 1
    return w.reshape(-1)


def npn_semicanonical(table: TruthTable) -> tuple[TruthTable, NpnTransform]:
    """A semi-canonical NPN representative with a *real* witness transform.

    The exact search (:func:`npn_canonical`) is infeasible past
    ``MAX_EXACT_NPN_VARS``; this normalization runs in ``O(n 2^n)`` at any
    ``n`` and makes every decision from NPN-invariant statistics, so two
    class members map to the *same* representative whenever those
    invariants are tie-free (the common case for random functions):

    * output polarity: complement when it shrinks the on-set; an exact
      half/half tie normalizes *both* polarities and keeps the
      lexicographically smaller representative (still invariant);
    * per-variable input negation: order each variable's cofactor on-set
      counts ``(c0, c1)`` as ``c0 <= c1``, ties refined by the sorted
      pairwise cofactor-count profile of each side (ties after that keep
      the input polarity);
    * variable permutation: sort variables by the invariant key
      ``(c0, pairwise cofactor-count profile, sorted per-variable
      |Walsh-Hadamard| spectrum)``, ties broken by original index (the
      "semi" part — a tie may split a class, never merge two).

    Unlike a bare invariant hash, the returned :class:`NpnTransform` is a
    true witness — ``apply_transform(table, t)`` *is* the representative
    — so cached lattices can be rewritten between class members exactly
    as with the exact canonical form.  Collision-safety is the caller's
    affair: key on the representative's full packed table (e.g.
    ``content_hash``), not on lossy invariants.
    """
    n = table.n
    size = 1 << n
    values = table.values.astype(bool)
    ones = int(values.sum())
    if 2 * ones != size:
        return _semicanonical_polarity(table, values, ones > size - ones)
    # Exact half/half on-set: the polarity choice has no invariant count
    # to lean on, so normalize both and keep the smaller representative
    # (classmates enumerate the same two candidates).
    candidates = [_semicanonical_polarity(table, values, out_neg)
                  for out_neg in (False, True)]
    return min(candidates, key=lambda cand: cand[0].values.tobytes())


def _semicanonical_polarity(table: TruthTable, values: np.ndarray,
                            out_neg: bool) -> tuple[TruthTable, NpnTransform]:
    """The semi-canonical normalization with the output polarity fixed."""
    n = table.n
    size = 1 << n
    f = values ^ out_neg
    onset = int(f.sum())
    # Per-assignment variable bits of the on-set: bits[v, k] is bit v of
    # the k-th on-set minterm.  All cofactor statistics read off it.
    minterms = np.flatnonzero(f)
    bits = (minterms[None, :] >> np.arange(max(n, 1))[:, None]) & 1
    # pair[v, a, u, b] = |{x in onset : x_v = a, x_u = b}|; the sorted-
    # over-b profiles below are invariant under every other variable's
    # (undecided) negation and under variable permutation.
    pair = np.zeros((n, 2, n, 2), dtype=np.int64)
    for v in range(n):
        for a in (0, 1):
            side = bits[:, bits[v] == a] if n else bits
            for u in range(n):
                b1 = int(side[u].sum()) if side.size else 0
                pair[v, a, u, 1] = b1
                pair[v, a, u, 0] = side.shape[1] - b1

    def _side_profile(v: int, a: int) -> tuple:
        return tuple(sorted(tuple(sorted(pair[v, a, u].tolist()))
                            for u in range(n) if u != v))

    neg_mask = 0
    c0s = []
    for v in range(n):
        c1 = int(pair[v, 1, v, 1])
        c0 = onset - c1
        negate = c0 > c1 or (c0 == c1
                             and _side_profile(v, 1) < _side_profile(v, 0))
        if negate:
            neg_mask |= 1 << v
            c0 = c1
        c0s.append(c0)

    def _pair_profile(v: int) -> tuple:
        lo = (neg_mask >> v) & 1            # the normalized 0-side of v
        return tuple(sorted((tuple(sorted(pair[v, lo, u].tolist())),
                             tuple(sorted(pair[v, 1 - lo, u].tolist())))
                            for u in range(n) if u != v))

    var_bit = (np.arange(size)[None, :] >> np.arange(max(n, 1))[:, None]) & 1
    spectrum = np.abs(_walsh_hadamard(1 - 2 * f.astype(np.int64)))
    keys = [(c0s[v], _pair_profile(v),
             tuple(np.sort(spectrum[var_bit[v] == 1]).tolist()))
            for v in range(n)]
    perm = tuple(sorted(range(n), key=lambda v: keys[v]))
    transform = NpnTransform(perm, neg_mask, out_neg)
    return apply_transform(table, transform), transform

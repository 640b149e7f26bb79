"""The NPN-canonical result cache: keys, witness rewrites, row codec.

Lattice synthesis cost is invariant under input permutation and input
negation (literals are free in both polarities on a crossbar), and a
lattice for the complement is a distinct but equally cacheable object.  The
cache therefore keys results by the **NPN-canonical form** of the target
function plus a *polarity slot*:

* ``canonical_cache_key`` maps a truth table to its NPN canonical
  representative ``c`` and the witness :class:`~repro.boolean.npn.NpnTransform`
  ``t`` with ``c(x) = f(sigma_t(x)) ^ t.output_negate``;
* the stored lattice implements the *canonical-polarity* function
  ``g = c ^ t.output_negate`` — i.e. ``g(x) = f(sigma_t(x))`` — so a hit is
  rewritten back to the original ``f`` by the **input-only** literal
  substitution of :func:`transform_lattice_from_canonical` (no lattice
  complementation is ever needed);
* functions with more than :data:`MAX_NPN_VARS` variables use the
  ``O(n 2^n)`` **semi-canonical** witness of
  :func:`repro.boolean.npn.npn_semicanonical` (exact NPN canonicalisation
  is exponential in ``n``): class members still share a key whenever the
  invariant decisions are tie-free, and because the key is the content
  hash of the *full* representative table — which the row also keeps
  verbatim and the engine re-checks on every probe — a key collision
  between distinct functions can never surface a wrong hit.
  Up to n = 6 the pruned packed-uint64 search of
  :func:`repro.boolean.npn.npn_canonical` keeps exact class-level keys
  affordable.

Key texts are the :meth:`~repro.boolean.truthtable.TruthTable.content_hash`
of the keyed table (the packed-bit wire format of ``TruthTable.to_bytes``),
not ad-hoc hex packing.

The cache is not a table of its own: each slot is one row of the shared
:class:`~repro.engine.store.JsonStore`, under :func:`cache_key` (the
``npn/`` key namespace) with the :func:`result_to_json` payload, so the
NPN cache, the campaign payloads and the grid rows live in one file
behind one connection.  Every rewritten lattice is re-verified against
the requesting function by the engine, so a stale or corrupted row can
never produce a wrong answer — only a slower one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from ..boolean.cube import Literal
from ..boolean.npn import NpnTransform, npn_canonical, npn_semicanonical
from ..boolean.truthtable import TruthTable
from ..crossbar.lattice import Lattice, Site
from .jobs import StrategyOutcome

#: Largest n with exact NPN-canonical cache keys.  The pruned
#: packed-uint64 search (:func:`repro.boolean.npn.npn_canonical`) makes
#: n = 6 affordable; beyond that the semi-canonical witness keeps
#: class-level sharing alive (splitting a class on invariant ties, never
#: merging two).
MAX_NPN_VARS = 6


# ----------------------------------------------------------------------
# Canonical keys and witness transforms
# ----------------------------------------------------------------------
def canonical_cache_key(table: TruthTable) -> tuple[str, NpnTransform]:
    """The cache key text for ``table`` plus the witness transform.

    For ``n <= MAX_NPN_VARS`` the key is the content hash of the exact
    NPN canonical representative; beyond that the semi-canonical
    representative's hash keys the class — still a real witness
    transform, so hits rewrite across class members, but a tie in the
    invariant statistics may split a class across keys (never merge two
    distinct functions under one: the key hashes the full table).
    """
    return _canonical_from_bits(table.n, table.bits)


@lru_cache(maxsize=1 << 14)
def _canonical_from_bits(n: int, bits: int) -> tuple[str, NpnTransform]:
    # Canonicalisation is the warm-path bottleneck, so memoise per packed
    # table.
    table = TruthTable.from_bits(n, bits)
    if n <= MAX_NPN_VARS:
        canonical, transform = npn_canonical(table)
    else:
        canonical, transform = npn_semicanonical(table)
    return canonical.content_hash(), transform


def canonical_polarity_table(table: TruthTable,
                             transform: NpnTransform) -> TruthTable:
    """The canonical-polarity function ``g`` with ``g(x) = f(sigma(x))``.

    ``g`` equals the canonical representative when the witness has no
    output negation, and its complement otherwise; either way ``g`` is
    reachable from ``f`` by input transforms alone, which is what makes the
    stored lattice rewritable without complementation.
    """
    from ..boolean.npn import apply_transform

    canonical = apply_transform(table, transform)
    return ~canonical if transform.output_negate else canonical


def _map_sites(lattice: Lattice, mapping) -> Lattice:
    return lattice.map_sites(
        lambda r, c, site: mapping(site) if isinstance(site, Literal) else site
    )


def transform_lattice_to_canonical(lattice: Lattice,
                                   transform: NpnTransform) -> Lattice:
    """Rewrite a lattice for ``f`` into one for ``g(x) = f(sigma(x))``.

    With ``sigma(x)[perm[i]] = x[i] ^ neg[perm[i]]``, a site reading
    ``f``-input ``v`` becomes a site reading ``g``-input ``perm^-1(v)``
    with polarity flipped when ``neg[v]`` is set.
    """
    inverse = [0] * len(transform.permutation)
    for new_var, old_var in enumerate(transform.permutation):
        inverse[old_var] = new_var
    neg = transform.input_negation_mask

    def remap(site: Literal) -> Literal:
        flip = bool((neg >> site.var) & 1)
        return Literal(inverse[site.var], site.positive ^ flip)

    return _map_sites(lattice, remap)


def transform_lattice_from_canonical(lattice: Lattice,
                                     transform: NpnTransform) -> Lattice:
    """Rewrite a cached lattice for ``g`` back into one for the original ``f``.

    Inverse of :func:`transform_lattice_to_canonical`: ``f(y) =
    g(sigma^-1(y))`` and ``sigma^-1(y)[i] = y[perm[i]] ^ neg[perm[i]]``.
    """
    perm = transform.permutation
    neg = transform.input_negation_mask

    def remap(site: Literal) -> Literal:
        old_var = perm[site.var]
        flip = bool((neg >> old_var) & 1)
        return Literal(old_var, site.positive ^ flip)

    return _map_sites(lattice, remap)


# ----------------------------------------------------------------------
# Lattice serialisation (compact, human-greppable)
# ----------------------------------------------------------------------
def _site_token(site: Site) -> str:
    if site is True:
        return "1"
    if site is False:
        return "0"
    return f"{'p' if site.positive else 'n'}{site.var}"


def _site_from_token(token: str) -> Site:
    if token == "1":
        return True
    if token == "0":
        return False
    return Literal(int(token[1:]), token[0] == "p")


def lattice_to_text(lattice: Lattice) -> str:
    """Serialise as rows of space-separated site tokens."""
    return "\n".join(" ".join(_site_token(s) for s in row)
                     for row in lattice.sites)


def lattice_from_text(n: int, text: str) -> Lattice:
    return Lattice(n, [[_site_from_token(tok) for tok in line.split()]
                       for line in text.splitlines()])


# ----------------------------------------------------------------------
# Cache rows: keys and the JSON codec
# ----------------------------------------------------------------------
#: Key namespace of the NPN cache rows in the shared ``json_store`` table.
CACHE_NAMESPACE = "npn/"


@dataclass(frozen=True)
class CachedResult:
    """One persisted portfolio answer (for the canonical-polarity function).

    ``table`` carries the full canonical-polarity truth table when the
    entry was keyed semi-canonically (``n > MAX_NPN_VARS``): the row
    persists it verbatim so a probe can prove the hit is for the *same*
    function, not merely the same key.  Exact-keyed entries leave it
    ``None`` (the exact canonical form already is the function).
    """

    strategy: str
    lattice: Lattice
    outcomes: tuple[StrategyOutcome, ...]
    table: TruthTable | None = None


def cache_key(n: int, canon: str, polarity: bool, config: str) -> str:
    """The store key of one cache slot.

    ``config`` is the portfolio fingerprint, so differently configured
    runs never cross-contaminate; ``polarity`` is the witness's output
    negation (each NPN class holds up to two lattices).
    """
    return f"{CACHE_NAMESPACE}{n}/{canon}/{int(polarity)}/{config}"


def result_to_json(result: CachedResult) -> dict:
    """The JSON payload one cache row stores."""
    return {
        "strategy": result.strategy,
        "lattice": lattice_to_text(result.lattice),
        "outcomes": [
            {"strategy": o.strategy, "status": o.status, "area": o.area,
             "shape": list(o.shape), "elapsed": o.elapsed,
             "detail": o.detail}
            for o in result.outcomes
        ],
        "table": (result.table.to_bytes().hex()
                  if result.table is not None else None),
    }


def result_from_json(n: int, payload: Any) -> CachedResult | None:
    """Decode a cache row; ``None`` (a miss) if it does not parse.

    An unparseable row reads as a miss: the engine re-races and
    overwrites it (corruption costs time, never correctness).
    """
    try:
        return CachedResult(
            strategy=payload["strategy"],
            lattice=lattice_from_text(n, payload["lattice"]),
            outcomes=tuple(
                StrategyOutcome(
                    strategy=o["strategy"], status=o["status"],
                    area=o["area"], shape=tuple(o["shape"]),
                    elapsed=o["elapsed"], detail=o["detail"])
                for o in payload["outcomes"]),
            table=(TruthTable.from_bytes(bytes.fromhex(payload["table"]))
                   if payload["table"] else None),
        )
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return None

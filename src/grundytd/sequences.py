"""Certificate checkers for every witness, and nothing else.

Every sequence notion here is one cover problem over a family of masks:
entry i of a sequence picks masks[i], and the sequence is legal when each
entry covers at least one element of the universe that no earlier entry
covered (its footprints).  Open neighborhoods N(v) as the masks give total
dominating sequences, closed neighborhoods N[v] dominating sequences;
hyperedges give covering sequences, and the per-vertex incidence masks of a
hypergraph give transversal sequences.  The same masks also decide set
covers (total dominating sets, edge covers) and their minimality.  Strong
and semistrong matchings are checked on the adjacency masks directly.

These are the certificate checkers for everything the solvers and
constructions produce, so they deliberately share no code with the search
kernels or with the constructions in theorems.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantViolation, SequenceError
from .graph import Graph


def _distinct(seq, size: int, what: str) -> list[int]:
    out = list(seq)
    seen = set()
    for x in out:
        if not isinstance(x, int) or not (0 <= x < size):
            raise SequenceError(f"{what} {x!r} out of range for size {size}")
        if x in seen:
            raise SequenceError(f"{what} {x} repeats in the sequence")
        seen.add(x)
    return out


def certify(ok: bool, what: str) -> None:
    """Raise InvariantViolation unless a solver's witness passed its check."""
    if not ok:
        raise InvariantViolation(f"solver produced an invalid {what} certificate")


class LegalityReport(NamedTuple):
    """Outcome of checking one sequence.

    footprints[pos] is the mask of the universe elements that the entry at
    position pos covered first; there is one mask per legal entry, so for
    an illegal sequence they describe the longest legal prefix, and the
    first illegal entry sits at position len(footprints).
    """

    legal: bool
    footprints: tuple[int, ...]
    complete: bool


def check_cover_sequence(masks, universe: int, seq, what: str = "vertex") -> LegalityReport:
    """Legality and footprints of picking masks[i] for each entry i of seq.

    Entries must be distinct indices into masks (SequenceError otherwise);
    what names them in that error.  complete means legal and the universe
    is covered at the end.
    """
    entries = _distinct(seq, len(masks), what)
    footprints: list[int] = []
    rest = universe
    for i in entries:
        new = masks[i] & rest
        if not new:
            return LegalityReport(False, tuple(footprints), False)
        footprints.append(new)
        rest ^= new
    return LegalityReport(True, tuple(footprints), not rest)


def is_cover(masks, universe: int, chosen, what: str = "vertex") -> bool:
    """The masks picked by the distinct indices in chosen cover the universe."""
    covered = 0
    for i in _distinct(chosen, len(masks), what):
        covered |= masks[i]
    return covered & universe == universe


def is_minimal_cover(masks, universe: int, chosen) -> bool:
    """A cover from which no pick can be dropped: each covers a private element."""
    entries = _distinct(chosen, len(masks), "vertex")
    covered = twice = 0
    for i in entries:
        twice |= covered & masks[i]
        covered |= masks[i]
    if covered & universe != universe:
        return False
    private = universe & ~twice
    return all(masks[i] & private for i in entries)


def is_total_dominating_sequence(g: Graph, seq) -> bool:
    """Legal open-neighborhood sequence whose entries dominate every vertex."""
    return check_cover_sequence(g.adj, g.full_mask, seq).complete


def is_dominating_sequence(g: Graph, seq) -> bool:
    """Legal closed-neighborhood sequence dominating every vertex."""
    return check_cover_sequence(g.closed_masks(), g.full_mask, seq).complete


def is_strong_matching(g: Graph, pairs, semistrong: bool) -> bool:
    """Disjoint edges of g whose ends (semistrong: one end) have no other matched neighbor."""
    matched = 0
    for u, v in pairs:
        if not g.has_edge(u, v) or (matched >> u | matched >> v) & 1:
            return False
        matched |= (1 << u) | (1 << v)
    alone = any if semistrong else all
    return all(alone((g.adj[x] & matched).bit_count() == 1 for x in e) for e in pairs)

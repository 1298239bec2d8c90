"""Certificate checkers for every witness, plus greedy extension and pruning.

Every sequence notion here is one cover problem over a family of masks:
entry i of a sequence picks masks[i], and the sequence is legal when each
entry covers at least one element of the universe that no earlier entry
covered (its footprints).  Open neighborhoods N(v) as the masks give total
dominating sequences, closed neighborhoods N[v] dominating sequences;
hyperedges give covering sequences, and the per-vertex incidence masks of a
hypergraph give transversal sequences.  The same masks also decide set
covers (total dominating sets, edge covers) and their minimality.

These are the certificate checkers for everything the solvers and
constructions produce, so they deliberately share no code with the search
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InvariantViolation,
    ParameterError,
    PreconditionError,
    SequenceError,
)
from .graph import Graph, bits

Mode = str  # "open" | "closed"


def _masks(g: Graph, mode: Mode):
    if mode == "open":
        return g.adj
    if mode == "closed":
        return g.closed_masks()
    raise ParameterError(f"mode must be 'open' or 'closed', got {mode!r}")


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


@dataclass(frozen=True)
class LegalityReport:
    """Outcome of checking one sequence.

    footprints[pos] is the mask of the universe elements that the entry at
    position pos covered first; there is one mask per legal entry, so for
    an illegal sequence they describe the longest legal prefix.
    """

    legal: bool
    first_violation: int | None
    footprints: tuple[int, ...]
    dominated_mask: int
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
    violation: int | None = None
    for pos, i in enumerate(entries):
        new = masks[i] & rest
        if not new:
            violation = pos
            break
        footprints.append(new)
        rest ^= new
    return LegalityReport(
        legal=violation is None,
        first_violation=violation,
        footprints=tuple(footprints),
        dominated_mask=universe ^ rest,
        complete=violation is None and not rest,
    )


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


def check_legal(g: Graph, seq, mode: Mode = "open") -> LegalityReport:
    """Legality and footprints of a vertex sequence of g, open or closed."""
    return check_cover_sequence(_masks(g, mode), g.full_mask, seq)


def is_total_dominating_sequence(g: Graph, seq) -> bool:
    """Legal open-neighborhood sequence whose entries dominate every vertex."""
    return check_cover_sequence(g.adj, g.full_mask, seq).complete


def is_dominating_sequence(g: Graph, seq) -> bool:
    """Legal closed-neighborhood sequence dominating every vertex."""
    return check_cover_sequence(g.closed_masks(), g.full_mask, seq).complete


@dataclass(frozen=True)
class GreedyResult:
    sequence: tuple[int, ...]
    complete: bool


def greedy_extend(g: Graph, prefix, restrict_to=None, target=None) -> GreedyResult:
    """Greedily extend a legal open-neighborhood prefix until done or stuck.

    Each appended vertex must be adjacent to an already dominated vertex
    (so an empty prefix cannot grow) and footprint at least one new target
    vertex; among those candidates the one footprinting the fewest new
    target vertices wins, ties to the lowest id.  restrict_to limits which
    vertices may be appended; target limits which vertices must end up
    dominated (all by default).  Returns the full sequence and whether the
    target is completely dominated; an exhausted candidate pool short of
    completion reports complete=False rather than raising.
    """
    report = check_cover_sequence(g.adj, g.full_mask, prefix)
    if not report.legal:
        raise PreconditionError(
            "prefix is not a legal open-neighborhood sequence "
            f"(violation at position {report.first_violation})"
        )

    def vertex_set_mask(vs, what: str) -> int:
        mask = 0
        for v in vs:
            if not (0 <= v < g.n):
                raise ParameterError(f"{what} vertex {v} out of range")
            mask |= 1 << v
        return mask

    target_mask = g.full_mask if target is None else vertex_set_mask(target, "target")
    pool_mask = g.full_mask if restrict_to is None else vertex_set_mask(
        restrict_to, "restrict_to"
    )

    seq = list(prefix)
    used = 0
    for v in seq:
        used |= 1 << v
    dominated = report.dominated_mask

    while target_mask & ~dominated:
        best_v = -1
        best_score = 0
        for v in bits(pool_mask & ~used):
            new_targets = g.adj[v] & ~dominated & target_mask
            if not new_targets or not (g.adj[v] & dominated):
                continue
            score = new_targets.bit_count()
            if best_v < 0 or score < best_score:
                best_v = v
                best_score = score
        if best_v < 0:
            return GreedyResult(tuple(seq), False)
        seq.append(best_v)
        used |= 1 << best_v
        dominated |= g.adj[best_v]
    return GreedyResult(tuple(seq), True)


def prune_to_closed(g: Graph, seq) -> list[int]:
    """Turn a total dominating sequence into a legal closed-neighborhood one.

    Drops every entry whose footprints all lie among the earlier entries
    themselves; what remains is legal with closed neighborhoods.  At most
    half of the entries can be dropped, since an entry removed this way
    needs a distinct earlier entry as a footprint.  The result generally
    needs further extension to dominate everything.
    """
    report = check_legal(g, seq, "open")
    if not report.complete:
        raise PreconditionError("input must be a total dominating sequence")
    entries = list(seq)
    kept: list[int] = []
    earlier = 0
    for v, new in zip(entries, report.footprints):
        if new & ~earlier:
            kept.append(v)
        earlier |= 1 << v
    if len(kept) * 2 < len(entries):
        raise InvariantViolation(
            "pruning removed more than half the entries, which is impossible"
        )
    verify = check_legal(g, kept, "closed")
    if not verify.legal:
        raise InvariantViolation("pruned sequence is not closed-legal")
    return kept

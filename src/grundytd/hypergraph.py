"""Hypergraph covering and transversal sequences, plus graph reductions.

A hypergraph here is a ground set 0..n-1 with a tuple of hyperedges stored
as bitmasks.  Hyperedges must be nonempty and jointly cover the ground set;
duplicate hyperedges are allowed (neighborhood hypergraphs of graphs need
them) and can be listed via duplicate_edge_groups().

Two sequence notions mirror each other:

  covering sequence    hyperedges picked so each covers a new ground vertex
  transversal sequence ground vertices picked so each hits an edge no
                       earlier pick hit, all edges hit at the end

Their maximum lengths coincide; the reversal constructions below turn a
witness of one kind into a witness of the other of the same length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import engine
from .errors import InvariantViolation, ParameterError, PreconditionError, SequenceError
from .graph import Graph, bits


@dataclass(frozen=True)
class Hypergraph:
    n_vertices: int
    edges: tuple[int, ...]
    edge_tags: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ParameterError("ground set must be nonempty")
        if not self.edges:
            raise ParameterError("hypergraph needs at least one hyperedge")
        full = (1 << self.n_vertices) - 1
        covered = 0
        for i, mask in enumerate(self.edges):
            if mask == 0:
                raise ParameterError(f"hyperedge {i} is empty")
            if mask & ~full:
                raise ParameterError(f"hyperedge {i} mentions vertices >= n")
            covered |= mask
        if covered != full:
            missing = [x for x in range(self.n_vertices) if not (covered >> x) & 1]
            raise ParameterError(f"isolated ground vertices: {missing}")
        if self.edge_tags is not None and len(self.edge_tags) != len(self.edges):
            raise ParameterError("edge_tags length differs from edge count")

    @classmethod
    def from_edge_lists(cls, n_vertices: int, edge_lists, edge_tags=None) -> "Hypergraph":
        masks = []
        for members in edge_lists:
            m = 0
            for x in members:
                if not (0 <= x < n_vertices):
                    raise ParameterError(f"vertex {x} out of range")
                m |= 1 << x
            masks.append(m)
        return cls(n_vertices, tuple(masks), edge_tags)

    @property
    def full_mask(self) -> int:
        return (1 << self.n_vertices) - 1

    def edge_members(self, i: int) -> list[int]:
        return list(bits(self.edges[i]))

    def duplicate_edge_groups(self) -> tuple[tuple[int, ...], ...]:
        """Groups of edge indices sharing the same vertex set (size >= 2)."""
        where: dict[int, list[int]] = {}
        for i, mask in enumerate(self.edges):
            where.setdefault(mask, []).append(i)
        return tuple(tuple(g) for g in where.values() if len(g) > 1)

    def incidence_masks(self) -> list[int]:
        """Per ground vertex, the bitmask of edge indices containing it."""
        out = [0] * self.n_vertices
        for i, mask in enumerate(self.edges):
            for x in bits(mask):
                out[x] |= 1 << i
        return out

    def __repr__(self):
        return f"Hypergraph(n={self.n_vertices}, edges={len(self.edges)})"


# -- independent sequence checkers --------------------------------------------


def _distinct_in_range(seq, limit: int, what: str) -> list[int]:
    out = list(seq)
    seen = set()
    for x in out:
        if not isinstance(x, int) or not (0 <= x < limit):
            raise SequenceError(f"{what} {x!r} out of range")
        if x in seen:
            raise SequenceError(f"{what} {x} repeats")
        seen.add(x)
    return out


def is_legal_covering_sequence(h: Hypergraph, edge_seq) -> bool:
    entries = _distinct_in_range(edge_seq, len(h.edges), "edge index")
    covered = 0
    for i in entries:
        if not h.edges[i] & ~covered:
            return False
        covered |= h.edges[i]
    return True


def is_complete_covering_sequence(h: Hypergraph, edge_seq) -> bool:
    if not is_legal_covering_sequence(h, edge_seq):
        return False
    covered = 0
    for i in edge_seq:
        covered |= h.edges[i]
    return covered == h.full_mask


def is_legal_transversal_sequence(h: Hypergraph, vertex_seq) -> bool:
    entries = _distinct_in_range(vertex_seq, h.n_vertices, "vertex")
    inc = h.incidence_masks()
    hit = 0
    for v in entries:
        if not inc[v] & ~hit:
            return False
        hit |= inc[v]
    return True


def is_complete_transversal_sequence(h: Hypergraph, vertex_seq) -> bool:
    """Legal and, at the end, every hyperedge contains some picked vertex."""
    if not is_legal_transversal_sequence(h, vertex_seq):
        return False
    inc = h.incidence_masks()
    hit = 0
    for v in vertex_seq:
        hit |= inc[v]
    return hit == (1 << len(h.edges)) - 1


# -- exact invariants ----------------------------------------------------------


def edge_cover_number(h: Hypergraph):
    """(smallest number of hyperedges covering the ground set, witness)."""
    value, sel = engine.min_cover(list(h.edges), h.full_mask)
    return value, tuple(sel)


def grundy_covering_number(h: Hypergraph):
    """(longest legal covering sequence length, witness edge indices)."""
    value, seq = engine.max_cover_sequence(list(h.edges), h.full_mask)
    if not is_complete_covering_sequence(h, seq) or len(seq) != value:
        raise InvariantViolation("solver produced an invalid covering certificate")
    return value, tuple(seq)


def grundy_transversal_number(h: Hypergraph):
    """(longest legal transversal sequence length, witness vertices)."""
    ne = len(h.edges)
    value, seq = engine.max_cover_sequence(h.incidence_masks(), (1 << ne) - 1)
    if not is_complete_transversal_sequence(h, seq) or len(seq) != value:
        raise InvariantViolation("solver produced an invalid transversal certificate")
    return value, tuple(seq)


def covering_sequence_of_length(h: Hypergraph, length: int):
    seq = engine.sequence_of_length(list(h.edges), h.full_mask, length)
    return None if seq is None else tuple(seq)


# -- reversal constructions ------------------------------------------------------


def transversal_to_covering(h: Hypergraph, vertex_seq) -> tuple[int, ...]:
    """Edge sequence of the same length, legal when read in reverse order.

    For each picked vertex take the lowest-index edge it newly hit; the
    reversed list of those edges is a legal covering sequence.
    """
    if not is_legal_transversal_sequence(h, vertex_seq):
        raise PreconditionError("input is not a legal transversal sequence")
    inc = h.incidence_masks()
    hit = 0
    picked = []
    for v in vertex_seq:
        fresh = inc[v] & ~hit
        picked.append((fresh & -fresh).bit_length() - 1)
        hit |= inc[v]
    picked.reverse()
    if not is_legal_covering_sequence(h, picked):
        raise InvariantViolation("reversal construction produced an illegal sequence")
    return tuple(picked)


def covering_to_transversal(h: Hypergraph, edge_seq) -> tuple[int, ...]:
    """Vertex sequence of the same length, legal when read in reverse order.

    From each edge take its lowest newly covered vertex; the reversed list
    of those vertices is a legal transversal sequence.
    """
    if not is_legal_covering_sequence(h, edge_seq):
        raise PreconditionError("input is not a legal covering sequence")
    covered = 0
    picked = []
    for i in edge_seq:
        fresh = h.edges[i] & ~covered
        picked.append((fresh & -fresh).bit_length() - 1)
        covered |= h.edges[i]
    picked.reverse()
    if not is_legal_transversal_sequence(h, picked):
        raise InvariantViolation("reversal construction produced an illegal sequence")
    return tuple(picked)


# -- graph reductions ------------------------------------------------------------


def incidence_graph(h: Hypergraph) -> Graph:
    """Bipartite graph: ground vertices 0..n-1, then one vertex per edge."""
    n = h.n_vertices
    edges = []
    for i, mask in enumerate(h.edges):
        for x in bits(mask):
            edges.append((x, n + i))
    labels = tuple(f"x{v}" for v in range(n)) + tuple(
        f"e{i}" for i in range(len(h.edges))
    )
    return Graph.from_edges(n + len(h.edges), edges, labels)


def open_neighborhood_hypergraph(g: Graph) -> Hypergraph:
    """One hyperedge per vertex: its open neighborhood, duplicates kept."""
    if g.has_isolated_vertex():
        raise ParameterError("open neighborhoods of isolated vertices are empty")
    tags = tuple(f"N({g.label(v)})" for v in range(g.n))
    return Hypergraph(g.n, tuple(g.adj), tags)

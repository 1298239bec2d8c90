"""Hypergraph covering and transversal sequences, plus graph reductions.

A hypergraph here is a ground set 0..n-1 with a tuple of hyperedges stored
as bitmasks.  Hyperedges must be nonempty and jointly cover the ground set;
duplicate hyperedges are allowed (neighborhood hypergraphs of graphs need
them).

Two sequence notions mirror each other:

  covering sequence    hyperedges picked so each covers a new ground vertex
  transversal sequence ground vertices picked so each hits an edge no
                       earlier pick hit, all edges hit at the end

Both are cover problems over a mask family: the hyperedges over the ground
set, and the per-vertex incidence masks over the edge indices.  The
predicates below only pick those masks and hand them to the shared checker
in the sequences module, which also certifies every witness the solvers
here return.  The solvers search a universe of the ground size (covering)
or the edge count (transversal) and refuse one above the solver cap.

Their maximum lengths coincide; the reversal constructions below turn a
witness of one kind into a witness of the other of the same length.
"""

from __future__ import annotations

from . import engine
from .errors import InvariantViolation, ParameterError, PreconditionError
from .graph import Graph, _immutable, bits
from .sequences import certify, check_cover_sequence, is_cover
from .solver import ensure_capacity


class Hypergraph:
    __slots__ = ("n_vertices", "edges")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, n_vertices: int, edges: tuple[int, ...]):
        if n_vertices < 1:
            raise ParameterError("ground set must be nonempty")
        if not edges:
            raise ParameterError("hypergraph needs at least one hyperedge")
        full = (1 << n_vertices) - 1
        covered = 0
        for i, mask in enumerate(edges):
            if mask == 0:
                raise ParameterError(f"hyperedge {i} is empty")
            if mask & ~full:
                raise ParameterError(f"hyperedge {i} mentions vertices >= n")
            covered |= mask
        if covered != full:
            missing = [x for x in range(n_vertices) if not (covered >> x) & 1]
            raise ParameterError(f"isolated ground vertices: {missing}")
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "edges", edges)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return same and self.n_vertices == other.n_vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.n_vertices, self.edges))

    def __reduce__(self):
        return type(self), (self.n_vertices, self.edges)

    @classmethod
    def from_edge_lists(cls, n_vertices: int, edge_lists) -> "Hypergraph":
        masks = []
        for members in edge_lists:
            m = 0
            for x in members:
                if not (0 <= x < n_vertices):
                    raise ParameterError(f"vertex {x} out of range")
                m |= 1 << x
            masks.append(m)
        return cls(n_vertices, tuple(masks))

    @property
    def full_mask(self) -> int:
        return (1 << self.n_vertices) - 1

    def edge_members(self, i: int) -> list[int]:
        return list(bits(self.edges[i]))

    def incidence_masks(self) -> list[int]:
        """Per ground vertex, the bitmask of edge indices containing it."""
        out = [0] * self.n_vertices
        for i, mask in enumerate(self.edges):
            for x in bits(mask):
                out[x] |= 1 << i
        return out

    def __repr__(self):
        return f"Hypergraph(n={self.n_vertices}, edges={len(self.edges)})"


# -- sequence predicates: the shared checker over the right masks ------------------


def _covering(h: Hypergraph, edge_seq):
    return check_cover_sequence(h.edges, h.full_mask, edge_seq, "edge index")


def _transversal(h: Hypergraph, vertex_seq):
    return check_cover_sequence(h.incidence_masks(), (1 << len(h.edges)) - 1, vertex_seq)


def is_legal_covering_sequence(h: Hypergraph, edge_seq) -> bool:
    return _covering(h, edge_seq).legal


def is_complete_covering_sequence(h: Hypergraph, edge_seq) -> bool:
    return _covering(h, edge_seq).complete


def is_legal_transversal_sequence(h: Hypergraph, vertex_seq) -> bool:
    return _transversal(h, vertex_seq).legal


def is_complete_transversal_sequence(h: Hypergraph, vertex_seq) -> bool:
    """Legal and, at the end, every hyperedge contains some picked vertex."""
    return _transversal(h, vertex_seq).complete


# -- exact invariants ----------------------------------------------------------


def edge_cover_number(h: Hypergraph, cap: int | None = None):
    """(smallest number of hyperedges covering the ground set, witness)."""
    ensure_capacity(h.n_vertices, cap, "ground size")
    value, sel = engine.min_cover(list(h.edges), h.full_mask)
    certify(
        is_cover(h.edges, h.full_mask, sel, "edge index") and len(sel) == value,
        "edge cover",
    )
    return value, tuple(sel)


def grundy_covering_number(h: Hypergraph, cap: int | None = None):
    """(longest legal covering sequence length, witness edge indices)."""
    ensure_capacity(h.n_vertices, cap, "ground size")
    value, seq = engine.max_cover_sequence(list(h.edges), h.full_mask)
    certify(_covering(h, seq).complete and len(seq) == value, "covering")
    return value, tuple(seq)


def grundy_transversal_number(h: Hypergraph, cap: int | None = None):
    """(longest legal transversal sequence length, witness vertices)."""
    ne = len(h.edges)
    ensure_capacity(ne, cap, "edge count")
    inc, universe = h.incidence_masks(), (1 << ne) - 1
    value, seq = engine.max_cover_sequence(inc, universe)
    certify(
        check_cover_sequence(inc, universe, seq).complete and len(seq) == value,
        "transversal",
    )
    return value, tuple(seq)


def covering_sequence_of_length(h: Hypergraph, length: int, cap: int | None = None):
    """A complete covering sequence of exactly the given length, or None."""
    ensure_capacity(h.n_vertices, cap, "ground size")
    seq = engine.sequence_of_length(list(h.edges), h.full_mask, (length,)).get(length)
    if seq is None:
        return None
    certify(
        _covering(h, seq).complete and len(seq) == length, "fixed-length covering"
    )
    return tuple(seq)


# -- reversal constructions ------------------------------------------------------


def transversal_to_covering(h: Hypergraph, vertex_seq) -> tuple[int, ...]:
    """Edge sequence of the same length, legal when read in reverse order.

    For each picked vertex take the lowest-index edge it newly hit; the
    reversed list of those edges is a legal covering sequence.
    """
    report = _transversal(h, vertex_seq)
    if not report.legal:
        raise PreconditionError("input is not a legal transversal sequence")
    picked = tuple(next(bits(new)) for new in reversed(report.footprints))
    if not is_legal_covering_sequence(h, picked):
        raise InvariantViolation("reversal construction produced an illegal sequence")
    return picked


def covering_to_transversal(h: Hypergraph, edge_seq) -> tuple[int, ...]:
    """Vertex sequence of the same length, legal when read in reverse order.

    From each edge take its lowest newly covered vertex; the reversed list
    of those vertices is a legal transversal sequence.
    """
    report = _covering(h, edge_seq)
    if not report.legal:
        raise PreconditionError("input is not a legal covering sequence")
    picked = tuple(next(bits(new)) for new in reversed(report.footprints))
    if not is_legal_transversal_sequence(h, picked):
        raise InvariantViolation("reversal construction produced an illegal sequence")
    return picked


# -- graph reductions ------------------------------------------------------------


def incidence_graph(h: Hypergraph) -> Graph:
    """Bipartite graph: ground vertices 0..n-1, then one vertex per edge."""
    n = h.n_vertices
    edges = []
    for i, mask in enumerate(h.edges):
        for x in bits(mask):
            edges.append((x, n + i))
    return Graph.from_edges(n + len(h.edges), edges)


def open_neighborhood_hypergraph(g: Graph) -> Hypergraph:
    """One hyperedge per vertex: its open neighborhood, duplicates kept."""
    if g.has_isolated_vertex():
        raise ParameterError("open neighborhoods of isolated vertices are empty")
    return Hypergraph(g.n, tuple(g.adj))

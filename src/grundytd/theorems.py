"""Characterizations, constructive sequences, and bound reports.

Everything here pairs a structural statement with an executable witness:

  * order-matching labeling: the longest total dominating sequence uses all
    n vertices iff the vertices split into pairs x_i y_i with X independent
    and no y_j adjacent to an earlier x_i; extracted by peeling a maximum
    sequence (footprinting is an involution in the length-n case).
  * value 2 iff the graph is complete multipartite.
  * gamma_grt <= 2 gamma_gr: pruning a total dominating sequence down to
    the entries that footprint a vertex outside the earlier entries leaves
    a legal closed-neighborhood sequence of at least half its length.
  * trees: value n iff a perfect matching exists, with an explicit
    children-before-parents sequence built from the matching.
  * trees without a strong support vertex: value >= 2(n+1)/3, equality
    exactly for the leaf-path extension family T below.  Family T of order
    3m - 1 is {S(H o K_1) : H a tree on m vertices}, where H o K_1 hangs a
    leaf on every vertex of H and S subdivides each edge of H once.  The
    base P2 is S(K_1 o K_1); the supports of S(H o K_1) are exactly the
    vertices of H, and attaching a leg v-a-b-c at a support v gives
    S(H' o K_1) with H' = H plus the leaf b on v.  So every member has this
    form, and H is read back as the supports joined by the subdivided
    paths: trees and members correspond one to one, up to isomorphism,
    and membership is read off the leaves and their supports in one pass.
  * connected k-regular graphs (k >= 3, not balanced complete bipartite):
    a two-phase greedy construction whose length meets the proven lower
    bound, with a separate bipartite variant.

All constructions re-verify what they return using the independent
checkers; failures raise InvariantViolation since they contradict proven
statements.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

from . import solver
from .errors import CapacityError, DomainError, InvariantViolation, PreconditionError
from .graph import (
    Graph,
    bipartition,
    bits,
    is_connected,
    strong_support_vertices,
)
from .sequences import check_cover_sequence, is_total_dominating_sequence
from .smallgraphs import canonical_form  # noqa: F401  perfbench/tracer.py rebinds it here


# -- order-matching labeling (value n characterization) -----------------------


class PairLabeling(NamedTuple):
    """Vertex pairing certifying that the longest sequence has length n.

    Pairs are (xs[i], ys[i]); sequence is (x_1..x_k, y_k..y_1), a total
    dominating sequence using every vertex exactly once.
    """

    k: int
    xs: tuple[int, ...]
    ys: tuple[int, ...]
    sequence: tuple[int, ...]


def verify_pair_labeling(g: Graph, lab: PairLabeling) -> bool:
    """Check the three labeling conditions plus the witness sequence."""
    if sorted(lab.xs + lab.ys) != list(range(g.n)) or len(lab.xs) != lab.k:
        return False
    for i in range(lab.k):
        if not g.has_edge(lab.xs[i], lab.ys[i]):
            return False
    for i in range(lab.k):
        for j in range(i + 1, lab.k):
            if g.has_edge(lab.xs[i], lab.xs[j]):
                return False  # X must be independent
    for j in range(lab.k):
        for i in range(j):
            if g.has_edge(lab.ys[j], lab.xs[i]):
                return False  # y_j may only reach x_i with i >= j
    return is_total_dominating_sequence(g, lab.sequence)


def find_pair_labeling(g: Graph, cap: int | None = None) -> PairLabeling | None:
    """The labeling above, or None when no length-n sequence exists."""
    if g.n % 2 or g.has_isolated_vertex():
        return None
    value, seq = solver.grundy_total_domination_number(g, cap)
    if value < g.n:
        return None
    return pair_labeling_from_sequence(g, seq)


def pair_labeling_from_sequence(g: Graph, seq) -> PairLabeling:
    """Peel a labeling out of a length-n total dominating sequence.

    Each entry of such a sequence footprints exactly one vertex (its pair
    partner) and the partner footprints it back; scanning the sequence and
    removing pairs as they appear yields the labeling order.
    """
    report = check_cover_sequence(g.adj, g.full_mask, seq)
    if not (report.complete and len(seq) == g.n):
        raise PreconditionError("need a total dominating sequence of length n")
    partner: dict[int, int] = {}
    for v, stamped in zip(seq, report.footprints):
        if stamped.bit_count() != 1:
            raise InvariantViolation(
                "an entry of a length-n sequence footprints more than one vertex"
            )
        partner[v] = stamped.bit_length() - 1
    for v, u in partner.items():
        if partner.get(u) != v:
            raise InvariantViolation("footprinting is not an involution")
    xs: list[int] = []
    ys: list[int] = []
    removed: set[int] = set()
    for v in seq:
        if v in removed:
            continue
        xs.append(v)
        ys.append(partner[v])
        removed.add(v)
        removed.add(partner[v])
    lab = PairLabeling(
        g.n // 2, tuple(xs), tuple(ys), tuple(xs) + tuple(reversed(ys))
    )
    if not verify_pair_labeling(g, lab):
        raise InvariantViolation("peeled labeling failed verification")
    return lab


# -- value 2 characterization ---------------------------------------------------


def complete_multipartite_parts(g: Graph):
    """Partition into independent parts with all cross edges, or None.

    Vertices that share an open neighbourhood form a part, and the graph
    is complete multipartite exactly when each such neighbourhood is the
    complement of its part.  Parts come ordered by their lowest vertex.
    """
    parts: dict[int, int] = {}
    for v, row in enumerate(g.adj):
        parts[row] = parts.get(row, 0) | 1 << v
    if any(row != g.full_mask & ~part for row, part in parts.items()):
        return None
    return tuple(tuple(bits(part)) for part in parts.values())


def is_complete_multipartite(g: Graph) -> bool:
    return complete_multipartite_parts(g) is not None


def is_balanced_complete_bipartite(g: Graph, k: int) -> bool:
    if g.n != 2 * k or g.edge_count() != k * k:
        return False
    parts = complete_multipartite_parts(g)
    return parts is not None and sorted(len(p) for p in parts) == [k, k]


# -- open against closed sequences (gamma_grt <= 2 gamma_gr) ----------------------


def prune_to_closed(g: Graph, seq) -> list[int]:
    """Turn a total dominating sequence into a legal closed-neighborhood one.

    Drops every entry whose footprints all lie among the earlier entries
    themselves; what remains is legal with closed neighborhoods.  At most
    half of the entries can be dropped, since an entry removed this way
    needs a distinct earlier entry as a footprint.  The result generally
    needs further extension to dominate everything.
    """
    report = check_cover_sequence(g.adj, g.full_mask, seq)
    if not report.complete:
        raise PreconditionError("input must be a total dominating sequence")
    entries = list(seq)
    kept, earlier = [], 0
    for v, new in zip(entries, report.footprints):
        if new & ~earlier:
            kept.append(v)
        earlier |= 1 << v
    if len(kept) * 2 < len(entries):
        raise InvariantViolation(
            "pruning removed more than half the entries, which is impossible"
        )
    if not check_cover_sequence(g.closed_masks(), g.full_mask, kept).legal:
        raise InvariantViolation("pruned sequence is not closed-legal")
    return kept


# -- trees: perfect matchings ----------------------------------------------------


def _require_tree(g: Graph) -> None:
    if not (is_connected(g) and g.edge_count() == g.n - 1):
        raise DomainError("this operation is defined for trees only")


def tree_perfect_matching(t: Graph):
    """A perfect matching of the tree, or None.  Greedy leaf pairing.

    A leaf must be matched with its unique neighbor, so pairing leaves
    inward decides everything; if a leaf's neighbor is already gone there
    is no perfect matching.
    """
    _require_tree(t)
    if t.n % 2:
        return None
    present = t.full_mask
    pairs = []
    while present:
        leaf = -1
        for v in bits(present):
            d = (t.adj[v] & present).bit_count()
            if d == 0:
                return None
            if d == 1:
                leaf = v
                break
        rest = t.adj[leaf] & present
        mate = (rest & -rest).bit_length() - 1
        pairs.append((min(leaf, mate), max(leaf, mate)))
        present &= ~((1 << leaf) | (1 << mate))
    return tuple(pairs)


def tree_matching_sequence(t: Graph, matching=None) -> tuple[int, ...]:
    """Length-n total dominating sequence of a tree with a perfect matching.

    Root the tree at vertex 0 and list children before parents; entries
    matched to their parent come first in that order, the rest follow in
    the reversed (parents-first) order.  Each early entry footprints its
    parent and each late entry footprints its matched child.
    """
    _require_tree(t)
    if matching is None:
        matching = tree_perfect_matching(t)
    if matching is None:
        raise PreconditionError("tree has no perfect matching")
    mate: dict[int, int] = {}
    for u, v in matching:
        mate[u] = v
        mate[v] = u
    if sorted(mate) != list(range(t.n)):
        raise PreconditionError("matching is not perfect")
    parent = [-1] * t.n
    order = [0]
    seen = 1
    for v in order:
        for u in bits(t.adj[v] & ~seen):
            seen |= 1 << u
            parent[u] = v
            order.append(u)
    children_first = list(reversed(order))
    front = [v for v in children_first if mate[v] == parent[v]]
    back = [v for v in order if mate[v] != parent[v]]
    seq = tuple(front + back)
    if not is_total_dominating_sequence(t, seq) or len(seq) != t.n:
        raise InvariantViolation("matching sequence failed verification")
    return seq


# -- trees: the leaf-path extension family ----------------------------------------


class FamilyTCertificate(NamedTuple):
    """Build trace: a single edge, then repeated leaf-path extensions.

    Each step attaches the path a-b-c to an existing support vertex v via
    the edge v-a.  Replaying the steps reproduces the tree exactly.
    """

    n: int
    base: tuple[int, int]
    steps: tuple[tuple[int, tuple[int, int, int]], ...]


def replay_family_t_certificate(cert: FamilyTCertificate) -> Graph:
    """Rebuild the tree from its trace, validating every step."""
    u, w = cert.base
    if u == w:
        raise PreconditionError(f"base edge is a self-loop at {u}")
    nbrs = {u: {w}, w: {u}}
    for v, leg in cert.steps:
        if v not in nbrs:
            raise PreconditionError(f"step attaches to missing vertex {v}")
        if len(set(leg)) != 3 or not nbrs.keys().isdisjoint(leg):
            raise PreconditionError("step path vertices must be three fresh ids")
        if all(len(nbrs[x]) != 1 for x in nbrs[v]):
            raise PreconditionError(f"step attaches to non-support vertex {v}")
        for x, y in zip((v, *leg), leg):
            nbrs.setdefault(x, set()).add(y)
            nbrs.setdefault(y, set()).add(x)
    if sorted(nbrs) != list(range(cert.n)):
        raise PreconditionError("certificate does not label 0..n-1")
    # the ids are 0..n-1 and every edge was added both ways, none a loop
    rows = tuple(sum(1 << y for y in nbrs[x]) for x in range(cert.n))
    return Graph._from_valid_rows(cert.n, rows)


def _rooted_trees(m: int):
    """Every rooted tree on m vertices once, as a preorder parent list, from
    Beyer and Hedetniemi's level sequences (SIAM J. Comput. 9, 1980): the
    successor takes the last vertex p deeper than 1 and repeats the levels
    from p's parent up to p over the rest of the sequence."""
    levels = list(range(m))
    while True:
        last, parents = [0] * m, [-1]
        for i in range(1, m):
            parents.append(last[levels[i] - 1])
            last[levels[i]] = i
        yield parents
        p = max((i for i in range(m) if levels[i] > 1), default=0)
        if not p:
            return
        q = parents[p]
        levels[p:] = [levels[q + (i - q) % (p - q)] for i in range(p, m)]


def _free_trees(m: int):
    """Every tree on m >= 1 vertices once, as a preorder parent list, with
    no isomorphism test.  A tree with one centroid is listed rooted there,
    where every root branch has fewer than m/2 vertices; one with two is an
    unordered pair of rooted halves on m/2 vertices joined at their roots."""
    for parents in _rooted_trees(m):
        tops = [i for i in range(1, m) if parents[i] == 0] + [m]
        if all(2 * (b - a) < m for a, b in zip(tops, tops[1:])):
            yield parents
    if m % 2 == 0:
        halves = list(_rooted_trees(m // 2))
        for i, a in enumerate(halves):
            for b in halves[i:]:
                yield a + [0] + [p + m // 2 for p in b[1:]]


# The largest order family_t_members is allowed to build: `generate familyT
# --n 50` (48,629 members) takes 14 s and order 47 (19,320) 5 s; the next
# order, 53, would take about three times as long.  Members stream, so the
# peak stays near 17 MB at either order.
MAX_FAMILY_T_ORDER = 50


def _family_t_certificate(n: int, parents, hs, leaves, subs) -> FamilyTCertificate:
    """The trace of S(H o K_1) for a tree H given as a parent list that
    lists every parent before its children: H-vertex j has id hs[j], its
    leaf leaves[j] and the vertex on the edge to its parent subs[j].  The
    base is H-vertex 0 and its leaf; step j attaches subs[j]-hs[j]-leaves[j]
    at the parent."""
    steps = tuple((hs[p], (subs[j], hs[j], leaves[j])) for j, p in enumerate(parents) if j)
    return FamilyTCertificate(n, (hs[0], leaves[0]), steps)


def family_t_members(n: int) -> Iterator[tuple[Graph, FamilyTCertificate]]:
    """S(H o K_1) for each tree H on (n + 1)/3 vertices, with its
    certificate: one family member per isomorphism class, built as the
    iterator is consumed.  H-vertex j in preorder gets id 3j, its leaf
    3j + 1 and the vertex on the edge to its parent 3j - 1, so
    is_in_family_t gives each member back its own certificate.  Orders
    above MAX_FAMILY_T_ORDER raise CapacityError at the call."""
    if n > MAX_FAMILY_T_ORDER:
        raise CapacityError(
            f"enumerating family T graphs of order {n} is beyond the limit "
            f"{MAX_FAMILY_T_ORDER}"
        )
    if n < 2 or n % 3 != 2:
        return iter(())
    certs = (
        _family_t_certificate(n, ps, range(0, n, 3), range(1, n, 3), range(-1, n, 3))
        for ps in _free_trees((n + 1) // 3)
    )
    return ((replay_family_t_certificate(cert), cert) for cert in certs)


def is_in_family_t(t: Graph) -> FamilyTCertificate | None:
    """The family certificate of the tree t, or None if t is not a member.

    Above order 2, t of order n = 3m - 1 is S(H o K_1) iff every support
    vertex has exactly one leaf, there are m supports, and every other
    non-leaf vertex has only supports as neighbours.  Then t has m leaves
    and m - 1 other vertices, each of degree 2 or more, and only n - 1 =
    m + 2(m - 1) edges: so those vertices have degree 2 and no two supports
    are adjacent.  H, the supports joined through the degree-2 vertices, is
    a tree, and a preorder walk over H from its lowest vertex, lowest
    neighbour first, builds the certificate.  Order 2 is the base P2.
    """
    _require_tree(t)
    n = t.n
    if n % 3 != 2:
        return None
    leaves = sum(1 << v for v in range(n) if t.adj[v].bit_count() == 1)
    supports = 0
    for v in bits(leaves):
        supports |= t.adj[v]
    if n > 2 and (
        supports.bit_count() != (n + 1) // 3
        or any((t.adj[s] & leaves).bit_count() != 1 for s in bits(supports))
        or any(t.adj[v] & ~supports for v in bits(t.full_mask & ~leaves & ~supports))
    ):
        return None
    hs, parents, subs = [], [], []
    stack, done = [((supports & -supports).bit_length() - 1, -1, -1)], 0
    while stack:
        h, parent, sub = stack.pop()
        hs.append(h)
        parents.append(parent)
        subs.append(sub)
        for s in reversed(list(bits(t.adj[h] & ~leaves & ~done))):
            done |= 1 << s
            stack.append(((t.adj[s] & ~(1 << h)).bit_length() - 1, len(hs) - 1, s))
    cert = _family_t_certificate(
        n, parents, hs, [(t.adj[h] & leaves).bit_length() - 1 for h in hs], subs
    )
    if replay_family_t_certificate(cert) != t:
        raise InvariantViolation("family certificate replay mismatch")
    return cert


class TreeBoundReport(NamedTuple):
    """How a tree sits relative to the 2(n+1)/3 lower bound.  When the bound
    applies, certificate is the tree's family T certificate, or None if the
    tree is not a member."""

    applicable: bool
    bound: Fraction | None
    gamma_grt: int
    meets_bound: bool | None
    equality: bool | None
    certificate: FamilyTCertificate | None


def tree_bound_applies(t: Graph) -> bool:
    """Whether the 2(n+1)/3 bound covers the tree t (tree_bound_report's
    `applicable`): order 2 or more and no strong support vertex.  Needs no
    invariant of t."""
    if t.n < 2:
        return False
    _require_tree(t)
    return not strong_support_vertices(t)


def tree_bound_report(t: Graph, rep: solver.InvariantReport) -> TreeBoundReport:
    """Evaluate the bound on a tree, reading gamma_grt from its report."""
    applicable = tree_bound_applies(t)  # raises DomainError unless t is a tree
    value = rep.value("gamma_grt")
    if not applicable:
        return TreeBoundReport(False, None, value, None, None, None)
    bound = Fraction(2 * (t.n + 1), 3)
    cert = is_in_family_t(t)
    return TreeBoundReport(True, bound, value, value >= bound, value == bound, cert)


# -- regular graphs: the two-phase greedy construction -----------------------------


class RegularConstruction(NamedTuple):
    sequence: tuple[int, ...]
    k: int
    bipartite: bool
    bound: Fraction
    meets_bound: bool


def regular_lower_bound(n: int, k: int, bipartite: bool) -> Fraction:
    """The proven lower bound on gamma_grt of a connected k-regular graph of
    order n other than K_{k,k}, for k >= 3: (n + ceil(k/2) - 2)/(k - 1), or
    (n + 2 ceil(k/2) - 4)/(k - 1) when the graph is bipartite."""
    half = (k + 1) // 2
    if bipartite:
        return Fraction(n + 2 * half - 4, k - 1)
    return Fraction(n + half - 2, k - 1)


def regular_bound_applies(g: Graph) -> bool:
    """Whether the k-regular bound covers g: connected, k-regular with k >= 3
    and not K_{k,k}.  The cheapest tests run first."""
    k = g.max_degree()
    return (
        k >= 3
        and g.min_degree() == k
        and is_connected(g)
        and not is_balanced_complete_bipartite(g, k)
    )


def _seed_pair(g: Graph, pool) -> tuple[int, int]:
    """Non-twin pair with the most common neighbors (>= 1), lowest ids."""
    best = None
    best_common = 0
    pool = list(pool)
    for ui in range(len(pool)):
        for vi in range(ui + 1, len(pool)):
            u, v = pool[ui], pool[vi]
            if g.adj[u] == g.adj[v]:
                continue
            common = (g.adj[u] & g.adj[v]).bit_count()
            if common > best_common:
                best_common = common
                best = (u, v)
    if best is None:
        raise DomainError(
            "no admissible seed pair: every candidate pair consists of open "
            "twins or shares no neighbor"
        )
    return best


def _greedy_sequence(g: Graph, seed, pool: int, target: int) -> list[int] | None:
    """Extend the legal seed pair by vertices of the pool mask until the
    target mask is dominated; None when no vertex qualifies first.  A vertex
    qualifies when it is adjacent to a dominated vertex and footprints a new
    target vertex; the one footprinting the fewest wins, ties to the lowest
    id."""
    u, w = seed
    seq, used, dominated = [u, w], 1 << u | 1 << w, g.adj[u] | g.adj[w]
    while target & ~dominated:
        best, fewest = -1, 0
        for v in bits(pool & ~used):
            new = (g.adj[v] & target & ~dominated).bit_count()
            if new and g.adj[v] & dominated and (best < 0 or new < fewest):
                best, fewest = v, new
        if best < 0:
            return None
        seq.append(best)
        used |= 1 << best
        dominated |= g.adj[best]
    return seq


def regular_greedy_sequence(g: Graph) -> RegularConstruction:
    """Build the bound-meeting sequence for a connected k-regular graph.

    Non-bipartite: seed with the chosen pair, then repeatedly append a
    vertex adjacent to the dominated region that footprints as few new
    vertices as possible.  Bipartite: run the same process from each side
    separately (side A dominating side B, then the reverse) and
    concatenate.  The seed pair has equal degrees and is no pair of twins,
    so it is legal; the whole sequence is checked at the end.  The domain
    is that of the bound (regular_bound_applies).
    """
    if not regular_bound_applies(g):
        raise DomainError(
            "construction needs a connected k-regular graph with k >= 3 "
            "other than K_{k,k}"
        )
    k = g.max_degree()
    sides = bipartition(g)
    if sides is None:
        seq = _greedy_sequence(g, _seed_pair(g, range(g.n)), g.full_mask, g.full_mask)
        if seq is None:
            raise InvariantViolation("extension stalled on a non-bipartite input")
    else:
        a, b = (sum(1 << v for v in side) for side in sides)
        part_a = _greedy_sequence(g, _seed_pair(g, sides[0]), a, b)
        part_b = _greedy_sequence(g, _seed_pair(g, sides[1]), b, a)
        if part_a is None or part_b is None:
            raise InvariantViolation("one-sided extension stalled")
        seq = part_a + part_b

    if not is_total_dominating_sequence(g, seq):
        raise InvariantViolation("constructed sequence failed verification")
    bound = regular_lower_bound(g.n, k, sides is not None)
    return RegularConstruction(
        sequence=tuple(seq),
        k=k,
        bipartite=sides is not None,
        bound=bound,
        meets_bound=Fraction(len(seq)) >= bound,
    )


# -- bound report over all invariants ------------------------------------------------


class BoundCheck(NamedTuple):
    name: str
    holds: bool


class BoundReport(NamedTuple):
    checks: tuple[BoundCheck, ...]

    @property
    def violations(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.holds)


def bound_report(g: Graph, rep: solver.InvariantReport) -> BoundReport:
    """Every proven relation among the invariants, evaluated on one graph.

    The values come from rep, a report on g that holds all seven invariants.
    """
    connected = is_connected(g)
    low, high = g.min_degree(), g.max_degree()
    v = {key: r.value for key, r in rep.results.items()}
    n = g.n
    checks: list[BoundCheck] = []

    def check(name, holds):
        checks.append(BoundCheck(name, holds))

    def le(name, lhs, rhs):
        check(name, lhs <= rhs)

    le("gamma_t <= Gamma_t", v["gamma_t"], v["Gamma_t"])
    le("Gamma_t <= gamma_grt", v["Gamma_t"], v["gamma_grt"])
    le("gamma_t <= gamma_tg", v["gamma_t"], v["gamma_tg"])
    le("gamma_tg <= gamma_grt", v["gamma_tg"], v["gamma_grt"])
    nd = Fraction(n, high)
    le("n/max_degree <= gamma_grt", nd, v["gamma_grt"])
    if connected:
        check(
            "gamma_grt = n/max_degree only for balanced complete bipartite",
            v["gamma_grt"] != nd or is_balanced_complete_bipartite(g, high),
        )
    le("gamma_grt <= n - min_degree + 1", v["gamma_grt"], n - low + 1)
    le("2*nu_s <= 2*nu_ss", 2 * v["nu_s"], 2 * v["nu_ss"])
    le("2*nu_ss <= gamma_grt", 2 * v["nu_ss"], v["gamma_grt"])
    le("gamma_grt <= 2*gamma_gr", v["gamma_grt"], 2 * v["gamma_gr"])
    both_three = v["gamma_t"] == 3 and v["gamma_grt"] == 3
    check("never gamma_t = gamma_grt = 3", not both_three)
    if regular_bound_applies(g):
        bound = regular_lower_bound(n, high, bipartition(g) is not None)
        le("regular: k-regular lower bound <= gamma_grt", bound, v["gamma_grt"])
    return BoundReport(tuple(checks))

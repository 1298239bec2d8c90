"""Characterizations, constructive sequences, and bound reports.

Everything here pairs a structural statement with an executable witness:

  * order-matching labeling: the longest total dominating sequence uses all
    n vertices iff the vertices split into pairs x_i y_i with X independent
    and no y_j adjacent to an earlier x_i; extracted by peeling a maximum
    sequence (footprinting is an involution in the length-n case).
  * value 2 iff the graph is complete multipartite.
  * trees: value n iff a perfect matching exists, with an explicit
    children-before-parents sequence built from the matching.
  * trees without a strong support vertex: value >= 2(n+1)/3, equality
    exactly for the leaf-path extension family T below.  Peel lemma: every
    valid peel (a leaf path c-b-a whose anchor still supports a leaf
    afterwards) of a member of order >= 5 leaves a member, so one greedy
    pass of peels decides membership.  Family T of order 3m - 1 is
    {S(H o K_1) : H a tree on m vertices}, where H o K_1 hangs a leaf on
    every vertex of H and S subdivides each edge of H once.  The base P2 is
    S(K_1 o K_1); the supports of S(H o K_1) are exactly the vertices of H,
    and attaching a leg v-a-b-c at a support v gives S(H' o K_1) with H' =
    H plus the leaf b on v.  So every member has this form, and H is read
    back as the supports joined by the subdivided paths: trees and members
    correspond one to one, up to isomorphism.
  * connected k-regular graphs (k >= 3, not balanced complete bipartite):
    a two-phase greedy construction whose length meets the proven lower
    bound, with a separate bipartite variant.

All constructions re-verify what they return using the independent
checkers; failures raise InvariantViolation since they contradict proven
statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import solver
from .errors import (
    CapacityError,
    DomainError,
    InvariantViolation,
    ParameterError,
    PreconditionError,
)
from .graph import (
    Graph,
    bipartition,
    bits,
    is_connected,
    strong_support_vertices,
)
from .sequences import check_legal, greedy_extend, is_total_dominating_sequence
from .smallgraphs import canonical_form  # noqa: F401  perfbench/tracer.py rebinds it here


# -- order-matching labeling (value n characterization) -----------------------


@dataclass(frozen=True)
class PairLabeling:
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
    report = check_legal(g, seq, "open")
    if not (report.legal and report.complete and len(seq) == g.n):
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

    A graph is complete multipartite exactly when its complement is a
    disjoint union of cliques; the parts are those cliques.
    """
    full = g.full_mask
    co = [~g.adj[v] & full & ~(1 << v) for v in range(g.n)]
    parts = []
    unseen = full
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        comp = 1 << start
        frontier = comp
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= co[v]
            frontier = nxt & ~comp
            comp |= nxt
        for v in bits(comp):
            if co[v] != comp & ~(1 << v):
                return None
        parts.append(tuple(bits(comp)))
        unseen &= ~comp
    return tuple(parts)


def is_complete_multipartite(g: Graph) -> bool:
    return complete_multipartite_parts(g) is not None


def is_balanced_complete_bipartite(g: Graph, k: int) -> bool:
    if g.n != 2 * k or g.edge_count() != k * k:
        return False
    parts = complete_multipartite_parts(g)
    return parts is not None and sorted(len(p) for p in parts) == [k, k]


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


@dataclass(frozen=True)
class FamilyTCertificate:
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
    return Graph(cert.n, tuple(sum(1 << y for y in nbrs[x]) for x in range(cert.n)))


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
# --n 50` (48,629 members) takes 15 s and peaks at 221 MB, order 47 (19,320)
# 5.2 s and 93 MB; the next order, 53, would be about three times both.
MAX_FAMILY_T_ORDER = 50


def family_t_members(n: int) -> list[tuple[Graph, FamilyTCertificate]]:
    """S(H o K_1) for each tree H on (n + 1)/3 vertices: one family member
    per isomorphism class.  H-vertex j in preorder gets id 3j, its leaf
    3j + 1 and the vertex on the edge to its parent 3j - 1; the certificate
    attaches the H-vertices in preorder.  Orders above MAX_FAMILY_T_ORDER
    raise CapacityError."""
    if n > MAX_FAMILY_T_ORDER:
        raise CapacityError(
            f"enumerating family T graphs of order {n} is beyond the limit "
            f"{MAX_FAMILY_T_ORDER}"
        )
    if n < 2 or n % 3 != 2:
        return []
    out = []
    for ps in _free_trees((n + 1) // 3):
        legs = tuple((3 * p, (3 * j - 1, 3 * j, 3 * j + 1)) for j, p in enumerate(ps) if j)
        cert = FamilyTCertificate(n, (0, 1), legs)
        out.append((replay_family_t_certificate(cert), cert))
    return out


def is_in_family_t(t: Graph) -> FamilyTCertificate | None:
    """Membership test by one greedy pass of leaf-path peels.

    A member larger than an edge came from attaching a path a-b-c to a
    support vertex v.  A valid peel removes a leaf chain c-b-a-v with
    deg(b) = deg(a) = 2 whose anchor v still supports a leaf afterwards;
    the pass takes the valid peel with the smallest c until an edge is
    left.  No backtracking is needed, by the peel lemma: every valid peel
    of a member T of order >= 5 leaves a member.  By induction on the
    order, let T come from the member T0 by attaching a'-b'-c' at v'.
    Peeling a'-b'-c' leaves T0.  The only other peel that meets a'-b'-c' is
    on T = P5, and both of its peels leave an edge.  Any other peel lies in
    T0 and is valid there, so T0 minus a-b-c is a member; v' still
    supports a leaf in it, and attaching a'-b'-c' at v' gives T minus
    a-b-c.  So a member never runs out of peels, and a non-member never
    reaches an edge, since the peels read backwards would build it.
    """
    _require_tree(t)
    if t.n % 3 != 2:
        return None
    present = t.full_mask
    steps = []
    while present.bit_count() > 2:
        for c in bits(present):
            b_mask = t.adj[c] & present
            if b_mask.bit_count() != 1:
                continue
            b = b_mask.bit_length() - 1
            a_mask = t.adj[b] & present & ~(1 << c)
            if a_mask.bit_count() != 1:
                continue
            a = a_mask.bit_length() - 1
            v_mask = t.adj[a] & present & ~(1 << b)
            if v_mask.bit_count() != 1:
                continue
            v = v_mask.bit_length() - 1
            rest = present & ~((1 << a) | (1 << b) | (1 << c))
            if any((t.adj[w] & rest).bit_count() == 1 for w in bits(t.adj[v] & rest)):
                break
        else:
            return None
        steps.append((v, (a, b, c)))
        present = rest
    # peels keep the subtree connected, so the two vertices left are an edge
    u, v = bits(present)
    cert = FamilyTCertificate(t.n, (u, v), tuple(reversed(steps)))
    rebuilt = replay_family_t_certificate(cert)
    if rebuilt != t:
        raise InvariantViolation("family certificate replay mismatch")
    return cert


@dataclass(frozen=True)
class TreeBoundReport:
    """How a tree sits relative to the 2(n+1)/3 lower bound."""

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
    meets = value >= bound
    equality = value == bound
    cert = is_in_family_t(t) if equality else None
    return TreeBoundReport(True, bound, value, meets, equality, cert)


# -- regular graphs: the two-phase greedy construction -----------------------------


@dataclass(frozen=True)
class RegularConstruction:
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


def regular_greedy_sequence(g: Graph) -> RegularConstruction:
    """Build the bound-meeting sequence for a connected k-regular graph.

    Non-bipartite: seed with the chosen pair, then repeatedly append a
    vertex adjacent to the dominated region that footprints as few new
    vertices as possible.  Bipartite: run the same process from each side
    separately (side A dominating side B, then the reverse) and
    concatenate.  The domain is that of the bound (regular_bound_applies).
    """
    if not regular_bound_applies(g):
        raise DomainError(
            "construction needs a connected k-regular graph with k >= 3 "
            "other than K_{k,k}"
        )
    k = g.max_degree()
    sides = bipartition(g)
    if sides is None:
        res = greedy_extend(g, _seed_pair(g, range(g.n)))
        if not res.complete:
            raise InvariantViolation("extension stalled on a non-bipartite input")
        seq = res.sequence
    else:
        side_a, side_b = sides
        part_a = greedy_extend(g, _seed_pair(g, side_a), restrict_to=side_a, target=side_b)
        part_b = greedy_extend(g, _seed_pair(g, side_b), restrict_to=side_b, target=side_a)
        if not (part_a.complete and part_b.complete):
            raise InvariantViolation("one-sided extension stalled")
        seq = part_a.sequence + part_b.sequence

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


@dataclass(frozen=True)
class BoundCheck:
    name: str
    holds: bool


@dataclass(frozen=True)
class BoundReport:
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

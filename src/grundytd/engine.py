"""The search kernels over bitmask families.

Every exact invariant in the package reduces to one of the searches below,
applied to a family of masks over a universe bitmask:

  * longest legal cover sequence   (open/closed neighborhood sequences,
                                    hyperedge covering, transversal sequences)
  * exact minimum cover            (total domination number, edge cover number)
  * maximum minimal cover          (upper total domination number)
  * two-player cover game value    (game total domination number)
  * legal cover sequences of every length (interpolation; built, no search)
  * maximum strong / semistrong matching

A "legal" sequence picks masks one at a time, each contributing at least one
not-yet-covered universe element, until the universe is covered.  The search
state is the covered bitmask alone.  That is sound because a mask already
used is a subset of the covered set, so it can never be legal a second time:
the covered set determines which moves remain, with no need to remember
which indices were played.  Tests cross-check this against a
memoization-free search that carries the full played-set state.

The longest-sequence search first splits the universe into the parts that
no mask bridges (a flood fill over the masks).  A move covers elements of
one part only, so a legal sequence is an interleaving of legal sequences
over the parts, and the longest has the sum of their lengths.  Each part is
searched alone with its own table: the open neighbourhoods of a bipartite
graph with colour classes A and B take at most 2^|A| + 2^|B| states instead
of up to 2^(|A| + |B|).  A move changes only its own part's term of the
sum, so the smallest index that keeps the optimum is the smallest of the
parts' next witness indices.  Interleaving the parts' witnesses by their
next index thus gives the witness that a search of the whole universe would
rebuild.  The largest minimal cover splits the same way (see
max_minimal_cover).

The interpolation witnesses are built, not searched: S's first i entries,
then the masks of a minimal cover C that still cover a new element.  As i
runs from 0 to |S| the length goes from |C| to |S| and never climbs by
more than one, so every length between is realized (sequence_of_length).

Each part's longest sequence is found by a fail-soft bounded test in the
manner of alpha-beta (Knuth and Moore, "An analysis of alpha-beta pruning",
Artif. Intell. 6, 1975), over one table keyed by the covered set whose
entries pack bounds lo <= longest <= hi as lo << shift | hi.  A test of
"longest >= t" returns a lower bound when it succeeds and an upper bound
when it fails.  Each child is first decided in the parent's loop by its
stored or static bounds; only a child left open is tested, and the first
child that reaches t - 1 ends the loop and is recorded as the state's stop.
The root is tested at an upper bound B, and each failed test lowers B to
its result, 1 + the largest of the children's upper bounds, until a test
succeeds.  The witness is then read back along the stops, each played by
the first index that reaches it.  The search is exact:

  * the static bounds hold: every move covers at least one new element,
    and a coverable nonempty residual always has a move, so with r
    elements uncovered 1 <= longest <= r;
  * a legal sequence never plays two masks with the same restriction, so
    the number of distinct masks bounds the length, and the first move
    covers its whole mask, so the length is at most 1 + |part| less the
    narrowest mask's size; B starts at the smaller of the two;
  * a success is witnessed by a chain of moves, and a failure is the
    maximum of 1 + each child's upper bound, so every stored entry is a
    true bound;
  * B only falls and every probe ends, so the first probe that succeeds
    meets the optimum;
  * take a state on the witness with optimum L >= 2.  Its parent's test
    stopped at it on a lower bound of L, and only the state's own
    successful test records a lower bound above 1.  Lower bounds only
    rise and none exceeds L, so its last successful test set L.  That
    test's stop reached L - 1, which no child exceeds, and every child
    before it was bounded below t - 1 <= L - 1.  So the stop is the child
    of the smallest index that keeps the optimum: the witness an exact
    table would give.  A state with optimum 1 takes the first index that
    covers the rest.

Probes near the optimum settle most children by their bounds, so few
states are stored: 43 for the closed neighbourhoods of the benchmark's
random tree of order 22 at seed 0, where a table of exact values holds
13,417.

The game value is one fail-soft alpha-beta over one pair of bounds tables,
one per mover, whatever keys its positions.  Every move covers at least one
new element and at most as many as the widest mask, so from a position with
r uncovered elements at most r and at least ceil(r / widest) moves remain.
Those static bounds seed both tables, so the full-window root search is
exact.  A child whose stored or static bounds decide it against its window
is read in the parent's move loop, with no call; only the children left
open are expanded.  One rebuild then walks the masks in index order at
every step and plays the first whose child keeps the value, as a
null-window probe finds, so the line is the smallest index that keeps the
optimum at every step.  A keying supplies only the move loop and the key
after a played mask.  By default the key is the covered set c: the move
loop runs over the masks, and playing m gives c | m.

On a large pseudoforest family a position is keyed instead by the
isomorphism classes of its residual components.  From a position with
uncovered set U the game depends only on R(U), the distinct nonempty m & U:
two masks with the same restriction lead to the same child, and playing e
leaves R(U - e) = {r - e : r in R(U)} less the empty set.  So the value is
an isomorphism invariant of R(U).  R(U) is the disjoint union of its
components and every move lies inside one of them, so the multiset of the
components' classes fixes the value, and a move replaces one class by the
classes of the pieces of C - e.  The static bounds read only the element
count and the widest mask, so isomorphic positions share a table entry.
The incidence graph joins each element to each distinct nonempty mask that
holds it; the family is a pseudoforest when that graph has at most one
cycle in every part, as for the open neighbourhoods of every forest and
every unicyclic graph.  The test runs once per call, because every move
keeps the property: removing elements keeps a pseudoforest, and two masks
whose restrictions become equal share their remaining elements, so merging
them joins two nodes at distance two, which loses at least as many links as
nodes.  Each component gets a complete code, element and mask nodes told
apart: leaves are peeled in rounds and each rooted subtree is interned to a
small int (Aho, Hopcroft and Ullman, 1974); a tree's code is its centre's
label or the pair of its two centres' labels, a ring's the least rotation,
either way round, of its ring's labels.  A key is the sum of
count_c << (w * c) over the classes c, with 2**w above the element count.
Each class stores, once, the key change and the element count of each of
its distinct moves, so the move loop walks the classes present in a key and
a child's key is one addition.  Playing a mask on the line replaces the
class of the component it hits by the classes of its pieces.  The codes
cost more than they save on small inputs, so only families of at least
_CLASS_GATE elements are keyed this way.  Nor is a family of one part
unless every mask holds two elements, as an odd cycle's do: a ring with
trees hanging from it stays one component until a move hits the ring, so
nearly every position has a class of its own.

The matching search adds edges in a fixed order and carries a mask of
blocked vertices that no valid extension can use.  After an edge uv, a
strong matching blocks N[u] and N[v], so any later edge that avoids the
mask keeps the matching induced.  A semistrong matching blocks u, v and the
vertices whose matching would lift both ends of some matched edge above
induced degree 1, so a later edge that avoids the mask needs only one
endpoint with no matched neighbour.  A node is cut when its size plus half
the unblocked vertices that the remaining edges touch cannot beat the best
so far.  That bound is exact in the same sense as the cut-offs above: it
only drops subtrees with no strictly larger matching, so the witness stays
the first maximum matching in edge order.

All functions are pure; memo tables live per call, so concurrent use is safe.
Every recursive inner function is dropped before its kernel returns, so its
table is freed at once rather than at the next cyclic collection.
"""

from __future__ import annotations

from heapq import merge

from .errors import InvariantViolation
from .graph import bits

# Recorded with every benchmark run; there is one engine, in pure Python.
BACKEND = "python"


def _check_coverable(masks, universe):
    u = 0
    for m in masks:
        u |= m
    if u & universe != universe:
        raise ValueError("mask family does not cover the universe")


def _parts(masks, universe):
    """The parts of the universe that no mask bridges: the smallest sets
    that split it so that every mask lies inside one of them."""
    parts = []
    rest = universe
    while rest:
        part = rest & -rest
        grown = 0
        while grown != part and part != rest:
            grown = part
            for m in masks:
                if m & part:
                    part |= m
        parts.append(part)
        rest &= ~part
    return parts


def _longest(masks, universe):
    """The bounded search over one nonempty part, where the masks of every
    other part are empty: (length, witness)."""
    n = universe.bit_count()
    # covered set -> bounds lo <= longest <= hi, packed as lo << shift | hi
    shift = n.bit_length()
    low = (1 << shift) - 1
    table: dict[int, int] = {}
    # covered set -> the child at which its last successful test stopped
    stop: dict[int, int] = {}

    def expand(covered: int, t: int, lo: int, hi: int) -> int:
        """Fail-soft test of longest(covered) >= t, where lo < t <= hi: a
        result >= t bounds it from below, one below t from above.  Each
        child is first decided by its stored or static bounds; only a child
        left open is called."""
        uncovered = universe & ~covered
        need = t - 1  # what a child must reach
        best = 0
        for m in masks:
            if m & uncovered:
                child = covered | m
                entry = table.get(child)
                if entry is None:
                    r = (uncovered & ~m).bit_count()
                    if r >= need:
                        if need == 1:  # an element is left, so a move too
                            best = 2
                            break
                        r = expand(child, need, 1, r)
                        if r >= need:
                            best = 1 + r
                            break
                else:
                    clo, r = entry >> shift, entry & low
                    if clo >= need:
                        best = 1 + clo
                        break
                    if r >= need:
                        r = expand(child, need, clo, r)
                        if r >= need:
                            best = 1 + r
                            break
                if r >= best:
                    best = 1 + r
        if best >= t:
            table[covered] = best << shift | hi
            stop[covered] = child
        else:
            table[covered] = lo << shift | best
        return best

    distinct = set(masks)
    distinct.discard(0)
    length = min(n + 1 - min(map(int.bit_count, distinct)), len(distinct))
    try:
        # probe down from the upper bound; a failed test returns a lower one
        while length > 1:
            r = expand(0, length, 1, length)
            if r >= length:
                break
            length = r
    finally:
        expand = None  # the closure refers to itself; free the tables on return

    # play each stop by the first index that reaches it; with one move left,
    # the first index that covers the rest
    seq: list[int] = []
    covered = 0
    for left in range(length, 0, -1):
        goal = stop.get(covered) if left > 1 else universe
        for i, m in enumerate(masks):
            if covered | m == goal:
                break
        else:
            raise InvariantViolation("witness reconstruction failed")
        seq.append(i)
        covered = goal
    return length, seq


def max_cover_sequence(masks, universe):
    """Longest legal cover sequence.

    Returns (length, sequence of mask indices).  Requires the masks to
    jointly cover the universe, which guarantees every maximal legal
    sequence is complete (covers everything): whenever some element is
    uncovered, any mask containing it is a legal move.

    Each part of the universe that no mask bridges is searched alone, with
    its own masks and its own table; the length is the sum of the parts'
    lengths.  The witness interleaves the parts' own witnesses, taking at
    each step the part whose next index is smallest.  A move changes only
    its own part's remaining optimum, so that index is the smallest that
    keeps the whole optimum: the witness is the one a search of the whole
    universe would rebuild.
    """
    masks = [m & universe for m in masks]
    _check_coverable(masks, universe)
    parts = _parts(masks, universe)
    if len(parts) == 1:
        return _longest(masks, universe)
    total = 0
    walks = []
    for part in parts:
        length, walk = _longest([m & part for m in masks], part)
        total += length
        walks.append(walk)
    # the parts' indices are distinct, so merging takes the smallest next one
    return total, list(merge(*walks))


def sequence_of_length(masks, universe, cover, longest):
    """Legal complete cover sequences of every length from |cover| to
    |longest|, from a minimal cover and a complete legal sequence, both of
    mask indices: {length: sequence}, in increasing length.

    W_i is longest's first i entries followed by cover's masks in order,
    each kept only if it covers a new element; each length takes its first
    W_i.  Every W_i is legal and complete.  A cover mask is kept iff it is
    not inside the union of the prefix and the cover masks before it, a
    union that only grows with i, so the count kept never increases and
    |W_{i+1}| <= |W_i| + 1.  Each mask of a minimal cover has a private
    element, so |W_0| = |cover|, and |W_|longest|| = |longest| as longest
    is complete.  So every length between them is some |W_i|.
    """
    masks = [m & universe for m in masks]
    built: dict[int, list[int]] = {}
    prefix = 0  # what longest's first i entries cover
    for i, m in enumerate([0] + [masks[j] for j in longest]):
        prefix |= m
        seq, covered = list(longest[:i]), prefix
        for j in cover:
            if masks[j] & ~covered:
                seq.append(j)
                covered |= masks[j]
        built.setdefault(len(seq), seq)
    return {k: built[k] for k in range(len(cover), len(longest) + 1) if k in built}


def game_cover_value(masks, universe):
    """Minimax length of the cover game; the minimizer moves first.

    Both players extend one legal sequence; the minimizer wants it to
    complete in as few moves as possible, the maximizer in as many.
    Returns (value, principal line of mask indices).

    One alpha-beta, search, and one rebuild of the principal line serve both
    keyings of a position (see the module docstring).  A keying supplies its
    move loop, expand, and the key after m & left is played from the
    position at with uncovered set left: at | m for a covered set,
    play(at, left, m) for a class key.  The module docstring and the table at
    _CLASS_GATE say which families take class keys; both keyings give the
    same value and line.
    """
    masks = [m & universe for m in masks]
    _check_coverable(masks, universe)
    if universe == 0:
        return 0, []
    widest = max(map(int.bit_count, masks))
    rem = universe.bit_count()
    top = rem + 1  # above every value

    # One table per mover: key -> bounds lo <= value <= hi, packed as
    # lo << shift | hi (one int per state costs less than a tuple).
    shift = top.bit_length()  # also a count's width in a class key
    low = (1 << shift) - 1
    bounds_min: dict[int, int] = {}
    bounds_max: dict[int, int] = {}
    at, moves, play = 0, None, None  # covered sets: the key after m is at | m
    parts = _pseudoforest(masks, universe) if rem >= _CLASS_GATE else 0
    if parts > 1 or (parts == 1 and set(map(int.bit_count, masks)) == {2}):
        at, moves, moves_of, play = _class_keys(masks, universe, shift)

    def search(at: int, rem: int, minimizer: bool, alpha: int, beta: int) -> int:
        """Fail-soft alpha-beta on the position at with rem elements
        uncovered: a result <= alpha bounds the value from above, a result
        >= beta from below, and one in between is exact."""
        entry = (bounds_min if minimizer else bounds_max).get(at)
        if entry is None:
            lo, hi = -(-rem // widest), rem
        else:
            lo, hi = entry >> shift, entry & low
        if lo == hi or lo >= beta:
            return lo
        if hi <= alpha:
            return hi
        a = alpha if alpha > lo else lo
        b = beta if beta < hi else hi
        if moves is None:  # a covered set tells its own count
            return expand(at, minimizer, a, b, lo, hi)
        return expand(at, rem, minimizer, a, b, lo, hi)

    # expand is search() on a position whose bounds lo <= a < b <= hi leave
    # it open.  Each child is first tested as search() would test it, against
    # its own bounds and window; only a child that stays open is called.
    # The child's window (ca, cb) narrows as replies improve.
    if moves is None:

        def expand(covered: int, minimizer: bool, a: int, b: int, lo: int, hi: int) -> int:
            uncovered = universe & ~covered
            if minimizer:
                replies, table, best = bounds_max, bounds_min, top
            else:
                replies, table, best = bounds_min, bounds_max, 0
            ca, cb = a - 1, b - 1
            for m in masks:
                if m & uncovered:
                    child = covered | m
                    entry = replies.get(child)
                    if entry is None:
                        crem = (uncovered & ~m).bit_count()
                        clo, chi = -(-crem // widest), crem
                    else:
                        clo, chi = entry >> shift, entry & low
                    if clo == chi or clo >= cb:
                        r = 1 + clo
                    elif chi <= ca:
                        r = 1 + chi
                    else:
                        r = 1 + expand(child, not minimizer, ca if ca > clo else clo,
                                       cb if cb < chi else chi, clo, chi)
                    if minimizer:
                        if r < best:
                            best = r
                            if r <= a:
                                break
                            if r <= cb:
                                cb = r - 1
                    elif r > best:
                        best = r
                        if r >= b:
                            break
                        if r > ca + 1:
                            ca = r - 1
            table[covered] = (lo if best <= a else best) << shift | (hi if best >= b else best)
            return best
    else:

        def expand(at: int, rem: int, minimizer: bool, a: int, b: int, lo: int, hi: int) -> int:
            if minimizer:
                replies, table, best = bounds_max, bounds_min, top
            else:
                replies, table, best = bounds_min, bounds_max, 0
            ca, cb = a - 1, b - 1
            rest = at
            while rest:
                c = ((rest & -rest).bit_length() - 1) // shift
                rest &= ~(low << shift * c)
                for delta, gain in moves[c] or moves_of(c):
                    child = at + delta
                    crem = rem - gain
                    entry = replies.get(child)
                    if entry is None:
                        clo, chi = -(-crem // widest), crem
                    else:
                        clo, chi = entry >> shift, entry & low
                    if clo == chi or clo >= cb:
                        r = 1 + clo
                    elif chi <= ca:
                        r = 1 + chi
                    else:
                        r = 1 + expand(child, crem, not minimizer, ca if ca > clo else clo,
                                       cb if cb < chi else chi, clo, chi)
                    if minimizer:
                        if r < best:
                            best = r
                            if r <= a:
                                break
                            if r <= cb:
                                cb = r - 1
                    elif r > best:
                        best = r
                        if r >= b:
                            break
                        if r > ca + 1:
                            ca = r - 1
                else:
                    continue
                break
            table[at] = (lo if best <= a else best) << shift | (hi if best >= b else best)
            return best

    try:
        # The static bounds narrow the full window at every node, so the
        # root search always comes back exact.
        total = search(at, rem, True, -1, top)

        # Rebuild the principal line with null-window probes, taking the
        # smallest index whose child keeps the value at each step (a covered
        # universe has static bounds 0 <= value <= 0).
        trace: list[int] = []
        left = universe
        minimizer = True
        need = total
        while left:
            for i, m in enumerate(masks):
                m &= left
                if m:
                    child = at | m if play is None else play(at, left, m)
                    crem = rem - m.bit_count()
                    if minimizer:
                        keeps = search(child, crem, False, need - 1, need) <= need - 1
                    else:
                        keeps = search(child, crem, True, need - 2, need - 1) >= need - 1
                    if keeps:
                        trace.append(i)
                        left &= ~m
                        at, rem = child, crem
                        need -= 1
                        minimizer = not minimizer
                        break
            else:
                raise InvariantViolation("principal line reconstruction failed")
    finally:
        search = expand = None  # expand refers to itself; free the tables now
    return total, trace


# The class keys pay for their codes only on larger families.  Time per
# game, covered-set keys -> class keys, on open neighbourhoods (Python
# 3.11, 2 shared vCPUs; best of 3-5 runs; trees: mean of 10 random trees):
#   order  path             cycle            random trees
#   12     0.63 -> 0.70 ms  0.55 -> 0.48 ms  0.41 -> 0.82 ms
#   16     5.74 -> 2.04 ms  3.78 -> 1.04 ms  1.43 -> 2.00 ms
#   18     14.7 -> 3.03 ms  17.5 -> 1.48 ms  6.68 -> 5.61 ms
#   20     78.7 -> 6.60 ms  38.5 -> 2.09 ms  11.0 -> 8.80 ms
# One part loses unless it is a ring alone: the odd cycle 21 223 -> 14 ms,
# 16 random odd-cycle unicyclic graphs of order 20-22 7.0-61.3 -> 33.7-107.2 ms.
_CLASS_GATE = 20


def _pseudoforest(masks, universe):
    """The number of parts if in every part the incidence graph of the
    elements and the distinct nonempty masks has at most one cycle (no more
    links than nodes), else 0."""
    distinct = list(set(masks) - {0})
    parts = _parts(distinct, universe)
    for part in parts:
        inside = [m for m in distinct if m & part]
        if sum(m.bit_count() for m in inside) > part.bit_count() + len(inside):
            return 0
    return len(parts)


def _component_code(part, masks, labels):
    """A complete isomorphism code of the component of a pseudoforest family
    on the element set part.  Leaves are peeled in rounds, each node's label
    interning in labels whether it is a mask and the sorted labels peeled off
    it.  A tree's code is the sorted labels of its one or two centres, a
    ring's the least rotation, either way round, of its nodes' labels."""
    edges = {m & part for m in masks} - {0}
    index = {e: i for i, e in enumerate(bits(part))}
    size = len(index) + len(edges)
    nbrs: list[list[int]] = [[] for _ in range(size)]
    for j, r in enumerate(edges, len(index)):
        for e in bits(r):
            nbrs[j].append(index[e])
            nbrs[index[e]].append(j)
    links = sum(map(len, nbrs)) // 2
    if links > size:
        raise InvariantViolation("a component of the game has two cycles")
    deg = [len(a) for a in nbrs]
    kids: list[list[int]] = [[] for _ in range(size)]
    gone = bytearray(size)
    alive = size

    def label(v: int) -> int:
        return labels.setdefault((v >= len(index), tuple(sorted(kids[v]))), len(labels))

    leaves = [v for v in range(size) if deg[v] == 1]
    while leaves and (links == size or alive > 2):
        later = []
        for v in leaves:
            gone[v] = 1
            alive -= 1
            x = label(v)
            for u in nbrs[v]:
                if not gone[u]:
                    kids[u].append(x)
                    deg[u] -= 1
                    if deg[u] == 1:
                        later.append(u)
        leaves = later
    rest = [v for v in range(size) if not gone[v]]
    if links < size:
        return tuple(sorted(map(label, rest)))
    seq, prev, v = [], -1, rest[0]
    for _ in rest:
        seq.append(label(v))
        a, b = [u for u in nbrs[v] if not gone[u]]
        prev, v = v, b if a == prev else a
    n = len(seq)
    return min(tuple(s[i:i + n]) for s in (seq * 2, seq[::-1] * 2) for i in range(n))


def _class_keys(masks, universe, shift):
    """The class keying of game_cover_value, for masks that lie in the
    universe, cover it and form a pseudoforest family.  A key is the sum of
    1 << shift * c over the classes c of the residual's components.  Returns
    (the root's key, the move table, moves_of, play): the table holds for
    each class, once moves_of(c) has filled it, the key change and the
    element count of each of its distinct moves."""
    distinct = [m for m in dict.fromkeys(masks) if m]
    labels: dict[tuple, int] = {}
    codes: dict[tuple, int] = {}
    class_of: dict[int, int] = {}  # a component's element set -> its class
    reps: list[int] = []  # class -> the element set of its first component
    moves: list = []  # class -> (key delta, elements covered) per move, once filled

    def split(rest: int, edges: list[int]) -> dict[int, int]:
        """The components of the residual rest, of whose masks edges holds
        every one that meets it: element set -> class."""
        found = {}
        for part in _parts([m & rest for m in edges], rest):
            c = class_of.get(part)
            if c is None:
                code = _component_code(part, edges, labels)
                c = class_of[part] = codes.setdefault(code, len(codes))
                if c == len(reps):
                    reps.append(part)
                    moves.append(None)
            found[part] = c
        return found

    def key(classes) -> int:
        return sum(1 << shift * c for c in classes)

    def moves_of(c: int) -> list:
        part, found = reps[c], {}
        edges = list(dict.fromkeys(m & part for m in distinct if m & part))
        for r in edges:
            delta = key(split(part & ~r, edges).values()) - (1 << shift * c)
            found.setdefault(delta, r.bit_count())
        moves[c] = list(found.items())
        return moves[c]

    comps = {universe: split(universe, distinct)}  # residual -> its components

    def play(at: int, left: int, m: int) -> int:
        found = comps[left]
        part = next(p for p in found if p & m)
        pieces = split(part & ~m, distinct)
        comps[left & ~m] = {p: c for p, c in found.items() if p != part} | pieces
        return at - (1 << shift * found[part]) + key(pieces.values())

    return key(comps[universe].values()), moves, moves_of, play


def min_cover(masks, universe):
    """Exact minimum number of masks covering the universe.

    Branch and bound on the uncovered element with the fewest candidate
    masks.  Returns (size, sorted mask indices).
    """
    masks = [m & universe for m in masks]
    _check_coverable(masks, universe)
    if universe == 0:
        return 0, []
    m_count = len(masks)

    cover_of: dict[int, list[int]] = {}
    for e in bits(universe):
        cover_of[e] = [i for i in range(m_count) if (masks[i] >> e) & 1]
    max_mask = max(m.bit_count() for m in masks)

    # Greedy warm start tightens the bound before the exact search begins.
    covered = 0
    greedy: list[int] = []
    while covered != universe:
        pick = -1
        gain = 0
        for i in range(m_count):
            g = (masks[i] & ~covered).bit_count()
            if g > gain:
                gain = g
                pick = i
        greedy.append(pick)
        covered |= masks[pick]

    best_size = len(greedy)
    best_sel = list(greedy)

    def dfs(covered: int, chosen: list[int]):
        nonlocal best_size, best_sel
        if covered == universe:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_sel = list(chosen)
            return
        remaining = (universe & ~covered).bit_count()
        lower = (remaining + max_mask - 1) // max_mask
        if len(chosen) + lower >= best_size:
            return
        branch_e = -1
        branch_width = m_count + 1
        for e in bits(universe & ~covered):
            w = len(cover_of[e])
            if w < branch_width:
                branch_width = w
                branch_e = e
        for i in cover_of[branch_e]:
            chosen.append(i)
            dfs(covered | masks[i], chosen)
            chosen.pop()

    try:
        dfs(0, [])
    finally:
        dfs = None  # the closure refers to itself
    return best_size, sorted(best_sel)


def max_minimal_cover(masks, universe):
    """Largest minimal cover: every chosen mask keeps a private element.
    Returns (size, sorted mask indices).

    Each part of the universe that no mask bridges is searched alone.  A
    mask's private elements lie in its own part, so a minimal cover is a
    union of minimal covers of the parts, and a largest one is a union of
    the parts' largest.  The include-first search returns the largest
    minimal cover whose indicator vector, index 0 first, is greatest; over
    a product of parts that is the union of the parts' own, so the witness
    is the one a search of the whole universe returns.
    """
    masks = [m & universe for m in masks]
    _check_coverable(masks, universe)
    if universe == 0:
        return 0, []
    parts = _parts(masks, universe)
    if len(parts) == 1:
        return _max_minimal(masks, universe)
    total = 0
    chosen: list[int] = []
    for part in parts:
        inside = [i for i, m in enumerate(masks) if m & part]
        size, sel = _max_minimal([masks[i] for i in inside], part)
        total += size
        chosen += [inside[j] for j in sel]
    return total, sorted(chosen)


def _max_minimal(masks, universe):
    """The include/exclude search over indices in order, for masks that lie
    in the universe and cover it.  A chosen mask's private set only shrinks
    as more masks join, so a branch dies as soon as any private set
    empties."""
    m_count = len(masks)

    suffix = [0] * (m_count + 1)
    for i in range(m_count - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]

    best_size = -1
    best_sel: list[int] | None = None

    def dfs(i: int, covered: int, chosen: list[int], privates: list[int]):
        nonlocal best_size, best_sel
        if (covered | suffix[i]) != universe:
            return
        if len(chosen) + (m_count - i) <= best_size:
            return
        if i == m_count:
            # privates all nonempty by construction, so this cover is minimal
            best_size = len(chosen)
            best_sel = list(chosen)
            return
        new_private = masks[i] & ~covered
        if new_private:
            updated = [p & ~masks[i] for p in privates]
            if all(updated):
                dfs(i + 1, covered | masks[i], chosen + [i], updated + [new_private])
        dfs(i + 1, covered, chosen, privates)

    try:
        dfs(0, 0, [], [])
    finally:
        dfs = None  # the closure refers to itself
    if best_sel is None:
        raise InvariantViolation("no minimal cover found for coverable universe")
    return best_size, sorted(best_sel)


def max_matching(adj, n: int, semistrong: bool):
    """Maximum strong (induced) or semistrong matching.

    adj is the bitmask adjacency of a graph on n vertices.  A matching M is
    strong when every matched vertex has degree exactly 1 inside the
    subgraph induced by V(M); semistrong relaxes that to one endpoint per
    matching edge.  Both properties are inherited by subsets, so the search
    only ever extends valid partial matchings, edge by edge in a fixed
    order.  Returns (size, edge list).

    The search carries a mask of blocked vertices that no later edge may
    touch, because every extension using one is invalid.  A strong matching
    blocks the closed neighbourhoods of both endpoints of each matched
    edge: an edge that avoids them keeps every induced degree at 1, so
    strong extensions need no further test.  A semistrong matching blocks
    the matched vertices and the neighbours it can no longer afford; an
    edge that avoids them only needs one endpoint with no matched
    neighbour (see grow_semistrong).  A node is cut when even pairing up
    every unblocked vertex that a remaining edge touches could not beat the
    best matching so far.  Blocking drops no valid extension, and a
    matching only replaces the best when strictly larger, so the witness is
    the first maximum matching in edge order, as in the unpruned search.
    """
    edges: list[tuple[int, int]] = []
    for u in range(n):
        for v in bits(adj[u] >> (u + 1)):
            edges.append((u, u + 1 + v))
    m = len(edges)

    # suffix[i]: the vertices that edges i.. touch
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        u, v = edges[i]
        suffix[i] = suffix[i + 1] | (1 << u) | (1 << v)
    closed = [adj[u] | (1 << u) for u in range(n)]
    partner = [0] * n

    best_size = 0
    best_m: list[tuple[int, int]] = []

    def grow_semistrong(u: int, v: int, matched: int, blocked: int) -> int:
        """The blocked mask after matching uv, or -1 if the matching would
        stop being semistrong.

        Induced degrees only grow as edges join.  So once a matched edge
        has a single endpoint of degree 1, every neighbour of that endpoint
        is blocked, and while both endpoints have degree 1, their common
        neighbours are.  If u has no matched neighbour, only v raises
        matched degrees, and an unblocked v raises no lone degree-1
        endpoint and at most one end of any other matched edge: every
        matched edge keeps an endpoint of degree 1, and so does uv.  If
        both u and v have matched neighbours, uv has none.
        """
        free_u = not adj[u] & matched
        free_v = not adj[v] & matched
        if free_u and free_v:
            grown = adj[u] & adj[v]
        elif free_u:
            grown = adj[u]
        elif free_v:
            grown = adj[v]
        else:
            return -1
        # a matched vertex next to u or v leaves degree 1 to its partner,
        # whose neighbours are blocked from now on
        for a in bits((adj[u] | adj[v]) & matched):
            grown |= adj[partner[a]]
        return blocked | grown | (1 << u) | (1 << v)

    def dfs(start: int, pairs: list[tuple[int, int]], matched: int, blocked: int):
        nonlocal best_size, best_m
        if len(pairs) > best_size:
            best_size = len(pairs)
            best_m = list(pairs)
        if len(pairs) + (suffix[start] & ~blocked).bit_count() // 2 <= best_size:
            return
        for idx in range(start, m):
            u, v = edges[idx]
            if (blocked >> u) & 1 or (blocked >> v) & 1:
                continue
            if semistrong:
                grown = grow_semistrong(u, v, matched, blocked)
                if grown < 0:
                    continue
                partner[u] = v
                partner[v] = u
            else:
                grown = blocked | closed[u] | closed[v]
            pairs.append((u, v))
            dfs(idx + 1, pairs, matched | (1 << u) | (1 << v), grown)
            pairs.pop()

    try:
        dfs(0, [], 0, 0)
    finally:
        dfs = None  # the closure refers to itself
    return best_size, best_m

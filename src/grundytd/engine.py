"""The search kernels over bitmask families.

Every exact invariant in the package reduces to one of the searches below,
applied to a family of masks over a universe bitmask:

  * longest legal cover sequence   (open/closed neighborhood sequences,
                                    hyperedge covering, transversal sequences)
  * exact minimum cover            (total domination number, edge cover number)
  * maximum minimal cover          (upper total domination number)
  * two-player cover game value    (game total domination number)
  * legal cover sequences of given lengths (interpolation witnesses)
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

The fixed-length search serves every wanted length from one table keyed
by (covered, r), where r counts the moves still to make.  An entry is the
smallest index of a legal move after which r - 1 more moves complete the
cover, or -1 if none does, so each witness is read back from the table
without a second search and is the smallest-index witness.  A state is cut
once r exceeds its uncovered elements, since every move covers one.

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

The game search prunes with exact cut-offs too.  Every move covers at least
one new element and at most as many as the widest mask, so from a state
with r uncovered elements at most r and at least ceil(r / widest) moves
remain.  It is a fail-soft alpha-beta over one table of bounds (lo, hi) per
mover, seeded with those static bounds; its full-window root search is
exact, and the principal line is rebuilt with null-window probes.  A child
whose stored or static bounds decide it against its window is read in the
parent's move loop, with no call; only the children left open are
expanded.  The line is the smallest index that keeps the optimum at every
step.

On a large pseudoforest family the game search keys a position by the
isomorphism classes of its residual components instead of its covered set.
From a position with uncovered set U the game depends only on R(U), the
distinct nonempty m & U: two masks with the same restriction lead to the
same child, and playing e leaves R(U - e) = {r - e : r in R(U)} less the
empty set.  So the value is an isomorphism invariant of R(U).  R(U) is the
disjoint union of its components and every move lies inside one of them, so
the multiset of the components' classes fixes the value, and a move replaces
one class by the classes of the pieces of C - e.  The static bounds read
only the element count and the widest mask, so isomorphic positions share a
table entry.  The incidence graph joins each element to each distinct
nonempty mask that holds it; the family is a pseudoforest when that graph
has at most one cycle in every part, as for the open neighbourhoods of every
forest and every unicyclic graph.  The test runs once per call, because
every move keeps the property: removing elements keeps a pseudoforest, and
two masks whose restrictions become equal share their remaining elements,
so merging them joins two nodes at distance two, which loses at least as
many links as nodes.  Each component gets a complete code, element and mask
nodes told apart: leaves are peeled in rounds and each rooted subtree is
interned to a small int (Aho, Hopcroft and Ullman, 1974); a tree's code is
its centre's label or the pair of its two centres' labels, a ring's the
least rotation, either way round, of its ring's labels.  A key is the sum of
count_c << (w * c) over the classes c, with 2**w above the element count,
and each class stores, once, the key change and the element count of each
of its distinct moves, so a child's key is one addition.  The principal
line is still rebuilt over real covered sets, each child looked up by its
class key.  The codes cost more than they save on small inputs, so only
families of at least _CLASS_GATE elements take this search.

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

from operator import itemgetter

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

    # merge by the next index until a single part has moves left
    seq: list[int] = []
    while len(walks) > 1:
        walk = min(walks, key=itemgetter(0))
        seq.append(walk.pop(0))
        walks = [w for w in walks if w]
    for walk in walks:
        seq += walk
    return total, seq


def sequence_of_length(masks, universe, lengths):
    """A legal complete cover sequence of each wanted length that has one.

    Returns {length: sequence of mask indices} in the order of lengths,
    leaving out each length that no complete legal sequence has.  All the
    lengths share one table, and each witness is read back from it.
    """
    masks = [m & universe for m in masks]
    _check_coverable(masks, universe)
    memo: dict[tuple[int, int], int] = {}

    def first(covered: int, r: int) -> int:
        """The table entry for (covered, r), where r >= 1."""
        uncovered = universe & ~covered
        if r > uncovered.bit_count():
            return -1  # each move covers at least one new element
        key = (covered, r)
        found = memo.get(key)
        if found is None:
            found = -1
            for i, m in enumerate(masks):
                if m & uncovered:
                    child = covered | m
                    if (child == universe) if r == 1 else first(child, r - 1) >= 0:
                        found = i
                        break
            memo[key] = found
        return found

    witnesses: dict[int, list[int]] = {}
    try:
        for length in lengths:
            # a walk that takes its first step always completes the cover
            seq: list[int] = []
            covered = 0
            for r in range(length, 0, -1):
                i = first(covered, r)
                if i < 0:
                    break
                seq.append(i)
                covered |= masks[i]
            if covered == universe and len(seq) == length:
                witnesses[length] = seq
    finally:
        first = None  # the closure refers to itself; free the table now
    return witnesses


def game_cover_value(masks, universe):
    """Minimax length of the cover game; the minimizer moves first.

    Both players extend one legal sequence; the minimizer wants it to
    complete in as few moves as possible, the maximizer in as many.
    Returns (value, principal line of mask indices).

    A pseudoforest family of at least _CLASS_GATE elements is searched by
    _class_game, whose tables key a position by the classes of its residual
    components (see the module docstring); every other family by its covered
    set.  Both return the same value and line.  Below the gate the component
    codes cost more than the states they save; the table at _CLASS_GATE
    gives the crossover.
    """
    masks = [m & universe for m in masks]
    _check_coverable(masks, universe)
    if universe == 0:
        return 0, []
    if universe.bit_count() >= _CLASS_GATE and _pseudoforest(masks, universe):
        return _class_game(masks, universe)
    widest = max(m.bit_count() for m in masks)
    top = universe.bit_count() + 1  # above every value

    # One table per mover: covered set -> bounds lo <= value <= hi, packed
    # as lo << shift | hi (one int per state costs less than a tuple).
    shift = top.bit_length()
    low = (1 << shift) - 1
    bounds_min: dict[int, int] = {}
    bounds_max: dict[int, int] = {}

    def search(covered: int, minimizer: bool, alpha: int, beta: int) -> int:
        """Fail-soft alpha-beta: a result <= alpha bounds the value from
        above, a result >= beta from below, and one in between is exact."""
        entry = (bounds_min if minimizer else bounds_max).get(covered)
        if entry is None:
            rem = (universe & ~covered).bit_count()
            lo, hi = -(-rem // widest), rem
        else:
            lo, hi = entry >> shift, entry & low
        if lo == hi or lo >= beta:
            return lo
        if hi <= alpha:
            return hi
        a = alpha if alpha > lo else lo
        b = beta if beta < hi else hi
        return expand(covered, minimizer, a, b, lo, hi)

    def expand(covered: int, minimizer: bool, a: int, b: int, lo: int, hi: int) -> int:
        """search() on a state whose bounds lo <= a < b <= hi leave it open.
        Each child is first tested as search() would test it, against its
        own bounds and window; only a child that stays open is called."""
        uncovered = universe & ~covered
        if minimizer:
            best = top
            ca, cb = a - 1, b - 1  # each child's window; cb falls as replies improve
            for m in masks:
                if m & uncovered:
                    child = covered | m
                    entry = bounds_max.get(child)
                    if entry is None:
                        rem = (uncovered & ~m).bit_count()
                        clo, chi = -(-rem // widest), rem
                    else:
                        clo, chi = entry >> shift, entry & low
                    if clo == chi or clo >= cb:
                        r = 1 + clo
                    elif chi <= ca:
                        r = 1 + chi
                    else:
                        r = 1 + expand(child, False, ca if ca > clo else clo,
                                       cb if cb < chi else chi, clo, chi)
                    if r < best:
                        best = r
                        if r <= a:
                            break
                        if r <= cb:
                            cb = r - 1
            table = bounds_min
        else:
            best = 0
            ca, cb = a - 1, b - 1  # ca rises as replies improve
            for m in masks:
                if m & uncovered:
                    child = covered | m
                    entry = bounds_min.get(child)
                    if entry is None:
                        rem = (uncovered & ~m).bit_count()
                        clo, chi = -(-rem // widest), rem
                    else:
                        clo, chi = entry >> shift, entry & low
                    if clo == chi or clo >= cb:
                        r = 1 + clo
                    elif chi <= ca:
                        r = 1 + chi
                    else:
                        r = 1 + expand(child, True, ca if ca > clo else clo,
                                       cb if cb < chi else chi, clo, chi)
                    if r > best:
                        best = r
                        if r >= b:
                            break
                        if r > ca + 1:
                            ca = r - 1
            table = bounds_max
        if best <= a:
            table[covered] = lo << shift | best
        elif best >= b:
            table[covered] = best << shift | hi
        else:
            table[covered] = best << shift | best
        return best

    try:
        # The static bounds narrow the full window at every node, so the
        # root search always comes back exact.
        total = search(0, True, -1, top)

        # Rebuild the principal line with null-window probes, taking the
        # smallest index whose child keeps the value at each step (a covered
        # universe has static bounds 0 <= value <= 0).
        trace: list[int] = []
        covered = 0
        minimizer = True
        need = total
        while covered != universe:
            for i, m in enumerate(masks):
                if m & ~covered:
                    child = covered | m
                    if minimizer:
                        keeps = search(child, False, need - 1, need) <= need - 1
                    else:
                        keeps = search(child, True, need - 2, need - 1) >= need - 1
                    if keeps:
                        trace.append(i)
                        covered = child
                        need -= 1
                        minimizer = not minimizer
                        break
            else:
                raise InvariantViolation("principal line reconstruction failed")
    finally:
        search = expand = None  # expand refers to itself; free the tables now
    return total, trace


# The class search pays for its codes only on larger families.  Time per
# game, covered-set search -> class search, on open neighbourhoods (Python
# 3.11, 2 shared vCPUs; best of 3-5 runs; trees: mean of 10 random trees):
#   order  path             cycle            random trees
#   12     0.63 -> 0.70 ms  0.55 -> 0.48 ms  0.41 -> 0.82 ms
#   16     5.74 -> 2.04 ms  3.78 -> 1.04 ms  1.43 -> 2.00 ms
#   18     14.7 -> 3.03 ms  17.5 -> 1.48 ms  6.68 -> 5.61 ms
#   20     78.7 -> 6.60 ms  38.5 -> 2.09 ms  11.0 -> 8.80 ms
_CLASS_GATE = 20


def _pseudoforest(masks, universe):
    """Whether in every part the incidence graph of the elements and the
    distinct nonempty masks has at most one cycle: no more links than nodes."""
    distinct = list(set(masks) - {0})
    for part in _parts(distinct, universe):
        inside = [m for m in distinct if m & part]
        if sum(m.bit_count() for m in inside) > part.bit_count() + len(inside):
            return False
    return True


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


def _class_game(masks, universe):
    """game_cover_value keyed by the classes of the residual components.  The
    masks lie in the universe, cover it and form a pseudoforest family."""
    widest = max(m.bit_count() for m in masks)
    top = universe.bit_count() + 1
    shift = top.bit_length()  # also a count's width in a key: 2**shift > top
    low = (1 << shift) - 1
    distinct = [m for m in dict.fromkeys(masks) if m]
    labels: dict[tuple, int] = {}
    codes: dict[tuple, int] = {}
    class_of: dict[int, int] = {}  # a component's element set -> its class
    reps: list[int] = []  # class -> the element set of its first component
    moves: list = []  # class -> (key delta, elements covered) per move, once expanded

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

    bounds_min: dict[int, int] = {}
    bounds_max: dict[int, int] = {}

    def search(at: int, rem: int, minimizer: bool, alpha: int, beta: int) -> int:
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
        return expand(at, rem, minimizer, a, beta if beta < hi else hi, lo, hi)

    def expand(at: int, rem: int, minimizer: bool, a: int, b: int, lo: int, hi: int) -> int:
        replies = bounds_max if minimizer else bounds_min
        best = top if minimizer else 0
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
        (bounds_min if minimizer else bounds_max)[at] = (
            (lo if best <= a else best) << shift | (hi if best >= b else best))
        return best

    try:
        comps = split(universe, distinct)
        at, rem = key(comps.values()), universe.bit_count()
        total = search(at, rem, True, -1, top)
        trace: list[int] = []
        left = universe
        minimizer = True
        need = total
        while left:
            for i, m in enumerate(masks):
                m &= left
                if m:
                    part = next(p for p in comps if p & m)
                    pieces = split(part & ~m, distinct)
                    child = at - (1 << shift * comps[part]) + key(pieces.values())
                    crem = rem - m.bit_count()
                    if minimizer:
                        keeps = search(child, crem, False, need - 1, need) <= need - 1
                    else:
                        keeps = search(child, crem, True, need - 2, need - 1) >= need - 1
                    if keeps:
                        trace.append(i)
                        left &= ~m
                        del comps[part]
                        comps.update(pieces)
                        at, rem = child, crem
                        need -= 1
                        minimizer = not minimizer
                        break
            else:
                raise InvariantViolation("principal line reconstruction failed")
    finally:
        search = expand = None  # expand refers to itself; free the tables now
    return total, trace


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

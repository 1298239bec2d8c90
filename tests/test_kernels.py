"""Kernels: the pruned searches against their unpruned originals, on
families that one part of the universe spans and on families that split
into parts; the bounded longest-sequence search against the exact memo
search it replaced; the interpolation construction against the
fixed-length search it replaced; the largest minimal cover by parts against
one search of the whole universe; the game's class keys against the
covered-set keys, its component codes against brute-force isomorphism and
the families its gate keys by classes; no table left behind in cyclic
garbage; and a smoke run of the engine A/B script."""

import gc
import importlib
import random
from functools import reduce
from operator import or_
from pathlib import Path

import pytest

import oracles
from grundytd import Graph, bipartition, cycle, engine, path, random_hypergraph
from grundytd.sequences import check_cover_sequence
from grundytd.smallgraphs import random_tree
from conftest import corpus, relabeled


def random_family(rng):
    bits = rng.randint(1, 11)
    density = rng.random()
    masks = [
        sum(1 << b for b in range(bits) if rng.random() < density)
        for _ in range(rng.randint(1, 12))
    ]
    # duplicates and nested masks are the cases where ties between indices matter
    if rng.random() < 0.3:
        masks.append(rng.choice(masks))
    if rng.random() < 0.3:
        masks.append(rng.choice(masks) & rng.getrandbits(bits))
    return masks, (1 << bits) - 1


_WIDE = (1 << 70) - 1
# universes the random families never draw: with gaps, and wider than a
# machine word
FIXED_FAMILIES = [
    ([0b101, 0b10000001, 0b1100], 0b10001101),
    ([((1 << 30) - 1) ^ (1 << i) for i in range(4)], (1 << 30) - 1),
    ([_WIDE ^ (1 << i) for i in range(3)] + [(1 << 35) - 1, _WIDE >> 35 << 35], _WIDE),
]


def test_pruned_kernels_match_unpruned_on_random_families():
    def compare(masks, universe):
        want = oracles.max_cover_sequence_unpruned(masks, universe)
        assert engine.max_cover_sequence(masks, universe) == want, masks
        want = oracles.game_cover_value_unpruned(masks, universe)
        assert engine.game_cover_value(masks, universe) == want, masks

    for masks, universe in FIXED_FAMILIES:
        compare(masks, universe)
    rng = random.Random(20161)
    compared = 0
    while compared < 400:
        masks, universe = random_family(rng)
        if reduce(or_, masks) != universe:
            continue  # the kernels reject a family that does not cover
        compare(masks, universe)
        compared += 1


def test_game_on_structured_families_matches_unpruned():
    # the random families have at most 11 bits; paths and cycles of order up
    # to 12 play longer games, whose narrow windows leave children open to be
    # expanded from their parent's loop
    graphs = [g for n in range(2, 7) for g in corpus(n)]
    graphs += [path(n) for n in range(2, 13)] + [cycle(n) for n in range(3, 13)]
    for g in graphs:
        masks, universe = g.open_masks(), g.full_mask
        want = oracles.game_cover_value_unpruned(masks, universe)
        assert engine.game_cover_value(masks, universe) == want, g


def test_longest_sequence_on_bipartite_open_masks_matches_unpruned():
    # N(v) lies in the other colour class, so the open masks of a connected
    # bipartite graph split the universe into two parts that interleave in
    # index order
    compared = 0
    for n in range(2, 8):
        for g in corpus(n):
            if bipartition(g) is None:
                continue
            masks, universe = g.open_masks(), g.full_mask
            assert len(engine._parts(masks, universe)) == 2
            want = oracles.max_cover_sequence_unpruned(masks, universe)
            assert engine.max_cover_sequence(masks, universe) == want, g
            compared += 1
    assert compared == 1 + 1 + 3 + 5 + 17 + 44


def split_family(rng):
    """Two or three small random families on disjoint bits, their masks
    shuffled together, with duplicates and bits outside the universe."""
    masks = []
    universe = 0
    offset = 0
    for _ in range(rng.randint(2, 3)):
        width = rng.randint(1, 4)
        part = [rng.randint(1, (1 << width) - 1) for _ in range(rng.randint(1, 5))]
        part.append((1 << width) - 1 ^ reduce(or_, part))  # cover the part
        masks += [m << offset for m in part if m]
        universe |= ((1 << width) - 1) << offset
        offset += width + rng.randint(0, 2)  # sometimes a gap of unused bits
    outside = 1 << offset
    for _ in range(rng.randint(0, 3)):
        pick = rng.randrange(len(masks))
        masks.append(masks[pick] | outside if rng.random() < 0.5 else masks[pick])
    if rng.random() < 0.3:
        masks.append(outside)
    rng.shuffle(masks)
    return masks, universe


def test_longest_sequence_on_split_random_families_matches_unpruned():
    rng = random.Random(1611)
    for _ in range(300):
        masks, universe = split_family(rng)
        assert len(engine._parts([m & universe for m in masks], universe)) >= 2
        want = oracles.max_cover_sequence_unpruned(masks, universe)
        assert engine.max_cover_sequence(masks, universe) == want, masks


def _matches_memo_search(masks, universe):
    want = oracles.max_cover_sequence_memo(masks, universe)
    assert engine.max_cover_sequence(masks, universe) == want, (masks, universe)


def test_bounded_longest_matches_memo_search_on_small_families():
    # every connected graph of order up to 7 with open and closed masks,
    # random families with duplicate and empty masks, split families and
    # the masks of random hypergraphs' covering and transversal sequences
    for n in range(2, 8):
        for g in corpus(n):
            _matches_memo_search(g.open_masks(), g.full_mask)
            _matches_memo_search(g.closed_masks(), g.full_mask)
    rng = random.Random(2975)
    compared = 0
    while compared < 400:
        masks, universe = random_family(rng)
        if rng.random() < 0.3:
            masks.insert(rng.randint(0, len(masks)), 0)
        if reduce(or_, masks) == universe:
            _matches_memo_search(masks, universe)
            compared += 1
    for _ in range(300):
        _matches_memo_search(*split_family(rng))
    for _ in range(200):
        h = random_hypergraph(rng)
        _matches_memo_search(list(h.edges), h.full_mask)
        _matches_memo_search(h.incidence_masks(), (1 << len(h.edges)) - 1)


def test_bounded_longest_matches_memo_search_on_large_graphs(monkeypatch):
    # the compute-sparse22 graphs in the numberings of seeds 0-3, and random
    # graphs G(n, p) of order 16-24, whose parts run to 24 elements
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    graphs = [
        Graph.from_edges(g.n, g.edges)
        for seed in range(4)
        for g in workloads.make_workload("compute-sparse22", seed=seed).graphs
    ]
    rng = random.Random(1624)
    for n in range(16, 25):
        for p in (0.12, 0.2, 0.35):
            g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
            if not g.has_isolated_vertex():
                graphs.append(g)
    assert len(graphs) > 30
    for g in graphs:
        _matches_memo_search(g.open_masks(), g.full_mask)
        _matches_memo_search(g.closed_masks(), g.full_mask)


def test_minimal_cover_by_parts_matches_the_single_search():
    # the union of the parts' largest minimal covers is the cover that the
    # include-first search of the whole universe returns
    families = [
        (g.open_masks(), g.full_mask)
        for n in range(2, 8) for g in corpus(n) if bipartition(g) is not None
    ]
    rng = random.Random(1727)
    families += [split_family(rng) for _ in range(300)]
    for masks, universe in families:
        masks = [m & universe for m in masks]
        want = engine._max_minimal(masks, universe)
        assert engine.max_minimal_cover(masks, universe) == want, masks


@pytest.mark.parametrize(
    "orders", [range(2, 8), pytest.param(range(8, 9), marks=pytest.mark.slow)],
    ids=["upto7", "order8"],
)
def test_longest_witness_is_the_fixed_length_witness_at_the_top(orders):
    # at the longest length L, a move after which exactly L - 1 more moves
    # complete the cover is one whose child has longest L - 1, so the
    # fixed-length search of the oracles takes the same smallest indices
    for n in orders:
        for g in corpus(n):
            for masks in (g.open_masks(), g.closed_masks()):
                length, seq = engine.max_cover_sequence(masks, g.full_mask)
                found = oracles.sequences_of_lengths(masks, g.full_mask, [length])
                assert found == {length: seq}, g


def test_sequence_of_length_finds_exactly_the_lengths_of_all_sequences():
    # the fixed-length search of the oracles against the walk over every
    # legal sequence; the wanted lengths run one past each end, and one table
    # serves them all
    for n in range(2, 7):
        for g in corpus(n):
            for mode, masks in (("open", g.open_masks()), ("closed", g.closed_masks())):
                found = oracles.sequences_of_lengths(masks, g.full_mask, range(-1, n + 2))
                assert list(found) == sorted(oracles.sequence_lengths(g, mode)), g
                for length, seq in found.items():
                    assert len(seq) == length
                    assert check_cover_sequence(masks, g.full_mask, seq).complete


def built_lengths(masks, universe):
    """engine.sequence_of_length from a minimum cover and a longest sequence,
    each built sequence checked complete and legal, and the fixed-length
    search's lengths: (built, the search's lengths)."""
    _, cover = engine.min_cover(masks, universe)
    _, longest = engine.max_cover_sequence(masks, universe)
    built = engine.sequence_of_length(masks, universe, cover, longest)
    for length, seq in built.items():
        assert len(seq) == length
        assert check_cover_sequence(masks, universe, seq).complete, masks
    searched = oracles.sequences_of_lengths(masks, universe, range(len(masks) + 1))
    return built, list(searched)


def test_construction_builds_every_length_on_small_graphs():
    # every length that some complete legal sequence has, and no other, on
    # the open and the closed neighbourhoods of every connected graph of
    # order 2-7; the full walk over legal sequences runs to order 6
    for n in range(2, 8):
        for g in corpus(n):
            for mode, masks in (("open", g.open_masks()), ("closed", g.closed_masks())):
                built, searched = built_lengths(masks, g.full_mask)
                assert list(built) == searched, g
                if n < 7:
                    assert set(built) == oracles.sequence_lengths(g, mode), g


def test_construction_builds_every_length_on_random_hypergraphs():
    # covering sequences of 2,000 random hypergraphs, every other one with a
    # duplicate of one of its edges
    rng = random.Random(3101)
    for k in range(2000):
        h = random_hypergraph(rng)
        edges = list(h.edges) + ([rng.choice(h.edges)] if k % 2 else [])
        built, searched = built_lengths(edges, h.full_mask)
        assert list(built) == searched, edges


def random_unicyclic(n, rng):
    tree = random_tree(n, rng)
    u, v = rng.choice([(u, v) for u in range(n) for v in range(u) if not (tree.adj[u] >> v) & 1])
    return Graph.from_edges(n, list(tree.edges()) + [(u, v)])


def random_pseudoforest_family(rng):
    """Random masks on at most 10 elements, with duplicates and singletons,
    kept once every part's incidence graph has at most one cycle."""
    while True:
        width = rng.randint(1, 10)
        masks = [
            sum(1 << b for b in rng.sample(range(width), rng.randint(1, min(3, width))))
            for _ in range(rng.randint(1, 10))
        ]
        masks += [rng.choice(masks) for _ in range(rng.randint(0, 2))]
        universe = (1 << width) - 1
        masks += [1 << b for b in range(width) if not (reduce(or_, masks) >> b) & 1]
        rng.shuffle(masks)
        if engine._pseudoforest(masks, universe):
            return masks, universe


def every_pseudoforest_by_classes(monkeypatch):
    """Lift the gate's rule against one part: every pseudoforest family of
    at least _CLASS_GATE elements takes the class keys."""
    pseudoforest = engine._pseudoforest
    monkeypatch.setattr(
        engine, "_pseudoforest", lambda masks, universe: 2 * pseudoforest(masks, universe)
    )


def test_class_search_matches_unpruned_on_small_pseudoforests(monkeypatch):
    # the class search forced below its gate and onto families of one part:
    # every tree and unicyclic graph of order up to 8, and random families
    # with duplicate masks
    keyed = []
    class_keys = engine._class_keys

    def counted(*args):
        keyed.append(1)
        return class_keys(*args)

    monkeypatch.setattr(engine, "_CLASS_GATE", 0)
    every_pseudoforest_by_classes(monkeypatch)
    monkeypatch.setattr(engine, "_class_keys", counted)
    compared = 0
    for n in range(2, 9):
        for g in corpus(n):
            if g.edge_count() <= n:
                masks, universe = g.open_masks(), g.full_mask
                assert engine._pseudoforest(masks, universe)
                want = oracles.game_cover_value_unpruned(masks, universe)
                assert engine.game_cover_value(masks, universe) == want, g
                compared += 1
    assert compared == (1 + 1 + 2 + 3 + 6 + 11 + 23) + (0 + 1 + 2 + 5 + 13 + 33 + 89)
    rng = random.Random(2711)
    for _ in range(300):
        masks, universe = random_pseudoforest_family(rng)
        want = oracles.game_cover_value_unpruned(masks, universe)
        assert engine.game_cover_value(masks, universe) == want, masks
    assert len(keyed) == compared + 300


def test_class_search_matches_covered_search_on_large_sparse_graphs(monkeypatch):
    # orders 20-24 take the class search, one part included; with the gate
    # raised, the same families take the covered-set search
    rng = random.Random(2712)
    graphs = [
        relabeled(g, rng)
        for n in range(20, 25)
        for g in (path(n), cycle(n), random_tree(n, rng), random_unicyclic(n, rng))
    ]
    every_pseudoforest_by_classes(monkeypatch)
    by_classes = []
    for g in graphs:
        assert engine._pseudoforest(g.open_masks(), g.full_mask)
        by_classes.append(engine.game_cover_value(g.open_masks(), g.full_mask))
    monkeypatch.setattr(engine, "_CLASS_GATE", 10**6)
    for g, got in zip(graphs, by_classes):
        assert engine.game_cover_value(g.open_masks(), g.full_mask) == got, g


def test_component_codes_match_brute_force_isomorphism():
    # Every connected pseudoforest family on up to 5 elements: the codes are
    # equal on families that a transposition or a rotation of the elements
    # maps onto each other, so on each isomorphism class, and there are as
    # many codes as classes (Burnside's count), so no two classes share one.
    labels = {}
    for k in range(1, 6):
        families = oracles.connected_pseudoforest_families(k)
        full = (1 << k) - 1
        code = {f: engine._component_code(full, f, labels) for f in families}
        for perm in ([1, 0] + list(range(2, k)), [(i + 1) % k for i in range(k)]):
            if k > 1:
                for f in families:
                    assert code[tuple(sorted(oracles.relabel_family(f, perm)))] == code[f], f
        assert len(set(code.values())) == oracles.family_orbit_count(families, k)
    # on 6 elements, random families and relabelled copies against the
    # least relabelling over all 720 permutations
    rng = random.Random(2713)
    sample = []
    while len(sample) < 80:
        masks = list({rng.randint(1, 63) for _ in range(rng.randint(2, 9))})
        if (reduce(or_, masks) == 63 and engine._pseudoforest(masks, 63)
                and len(engine._parts(masks, 63)) == 1):
            perm = list(range(6))
            rng.shuffle(perm)
            sample += [masks, oracles.relabel_family(masks, perm)]
    codes = [engine._component_code(63, f, labels) for f in sample]
    forms = [oracles.canonical_family(f, 6) for f in sample]
    for i in range(len(sample)):
        for j in range(i):
            assert (codes[i] == codes[j]) == (forms[i] == forms[j]), (sample[i], sample[j])


def test_class_search_gate_refuses_a_part_with_two_cycles(monkeypatch):
    # a triangle and a fourth element joined to two of its corners hold two
    # cycles in one part; 18 singleton masks lift the family above the gate.
    # A path and an odd cycle side by side hold at most one cycle per part.
    masks = [0b11, 0b110, 0b101, 0b1001, 0b1010] + [1 << b for b in range(4, 22)]
    assert not engine._pseudoforest(masks, (1 << 22) - 1)
    side = [(11 + u, 11 + v) for u, v in cycle(11).edges()]
    two = Graph.from_edges(22, list(path(11).edges()) + side)
    assert engine._pseudoforest(two.open_masks(), two.full_mask)

    def refused(masks, universe, shift):
        raise AssertionError("the class search took a family the gate refuses")

    monkeypatch.setattr(engine, "_class_keys", refused)
    value, line = engine.game_cover_value(masks, (1 << 22) - 1)
    assert check_cover_sequence(masks, (1 << 22) - 1, line).complete and value == len(line)
    with pytest.raises(AssertionError, match="gate refuses"):
        engine.game_cover_value(two.open_masks(), two.full_mask)


def test_class_keys_refuse_one_part_unless_every_mask_holds_two(monkeypatch):
    # an odd-cycle unicyclic graph with trees on its ring has one part and
    # takes covered-set keys; paths, even cycles and trees have two parts, and
    # an odd cycle's masks hold two elements each, so they take class keys
    rng = random.Random(5)
    one_part = []
    while len(one_part) < 2:
        g = random_unicyclic(20 + len(one_part), rng)
        if bipartition(g) is None and max(map(g.degree, range(g.n))) > 2:
            assert len(engine._parts(g.open_masks(), g.full_mask)) == 1
            one_part.append(g)

    def refused(masks, universe, shift):
        raise AssertionError("the class keys were taken")

    monkeypatch.setattr(engine, "_class_keys", refused)
    for g in one_part:
        assert engine.game_cover_value(g.open_masks(), g.full_mask)[0] > 0
    for g in (cycle(22), path(22), random_tree(22, random.Random(0)), cycle(21)):
        with pytest.raises(AssertionError, match="class keys were taken"):
            engine.game_cover_value(g.open_masks(), g.full_mask)


_C16 = cycle(16)
_KERNEL_CALLS = {
    "max_cover_sequence": lambda: engine.max_cover_sequence(_C16.open_masks(), _C16.full_mask),
    "game_cover_value": lambda: engine.game_cover_value(_C16.open_masks(), _C16.full_mask),
    # cycle:22 takes the class keys, with their codes and move table
    "game_cover_value_by_classes": lambda: engine.game_cover_value(
        cycle(22).open_masks(), cycle(22).full_mask),
    "sequence_of_length": lambda: engine.sequence_of_length(
        _C16.open_masks(), _C16.full_mask,
        engine.min_cover(_C16.open_masks(), _C16.full_mask)[1],
        engine.max_cover_sequence(_C16.open_masks(), _C16.full_mask)[1]),
    "min_cover": lambda: engine.min_cover(_C16.open_masks(), _C16.full_mask),
    "max_minimal_cover": lambda: engine.max_minimal_cover(_C16.open_masks(), _C16.full_mask),
    "max_matching": lambda: engine.max_matching(_C16.open_masks(), 16, True),
}


@pytest.mark.parametrize("name", sorted(_KERNEL_CALLS))
def test_kernel_leaves_no_cyclic_garbage(name):
    # a finished search's table must go when the call returns, not at the
    # next full collection
    gc.collect()
    gc.disable()
    try:
        _KERNEL_CALLS[name]()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_engine_ab_script_checks_outputs_and_times_both_engines(monkeypatch, capsys):
    # the smallest use of scripts/bench_engine_ab.py: this tree's engine.py
    # loaded again as the base runs one round of every case but those of the
    # two order-20 sets, which would double the time, and an engine whose
    # output differs is refused before any timing
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "scripts"))
    ab = importlib.import_module("bench_engine_ab")
    base = ab.load_engine(Path(engine.__file__))
    assert base is not engine and base.__name__ == "grundytd._engine_base"
    inputs = ab.inputs()
    cases = [f"{kernel} {name}" for kernel in ab.KERNELS for name, _ in inputs]
    assert len(cases) == 22 and cases[-1] == "longest tree:20"
    unicyclic, trees = (graphs for name, graphs in inputs[-2:])
    assert all(bipartition(g) is None and g.edge_count() == 20 for g in unicyclic)
    assert all(bipartition(g) is not None and g.edge_count() == 19 for g in trees)
    monkeypatch.setattr(ab, "inputs", lambda: inputs[:-2])
    assert ab.main([engine.__file__, "--rounds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    ran = [case for case in cases if not case.endswith(":20")]
    assert [line.split()[0] + " " + line.split()[1] for line in out[2:]] == ran

    sets = [("p5", [path(5)]), ("c", [cycle(5), cycle(6)])]
    times = ab.run(sets, [base, engine], 3)
    assert list(times) == ["game p5", "game c", "longest p5", "longest c"]
    assert all(len(secs) == 3 for sides in times.values() for secs in sides)
    for case, b, c, ratio, (q1, q3), won in ab.summary(times):
        assert b > 0 and c > 0 and q1 <= ratio <= q3 and 0 <= won <= 3

    class Wrong:
        max_cover_sequence = staticmethod(engine.max_cover_sequence)

        @staticmethod
        def game_cover_value(masks, universe):
            value, line = engine.game_cover_value(masks, universe)
            return value, line[::-1]

    with pytest.raises(AssertionError, match="disagree on game p5"):
        ab.run(sets, [base, Wrong], 1)

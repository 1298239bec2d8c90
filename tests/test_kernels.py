"""Kernels: the pruned searches against their unpruned originals, on
families that one part of the universe spans and on families that split
into parts, and no table left behind in cyclic garbage."""

import gc
import random
from functools import reduce
from operator import or_

import pytest

import oracles
from grundytd import bipartition, cycle, engine
from grundytd.sequences import check_cover_sequence
from conftest import corpus


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


def test_sequence_of_length_finds_exactly_the_lengths_of_all_sequences():
    # the oracle walks every legal sequence; the wanted lengths run one past
    # each end, and one table serves them all
    for n in range(2, 7):
        for g in corpus(n):
            for mode, masks in (("open", g.open_masks()), ("closed", g.closed_masks())):
                found = engine.sequence_of_length(masks, g.full_mask, range(-1, n + 2))
                assert list(found) == sorted(oracles.sequence_lengths(g, mode)), g
                for length, seq in found.items():
                    assert len(seq) == length
                    assert check_cover_sequence(masks, g.full_mask, seq).complete


_C16 = cycle(16)
_KERNEL_CALLS = {
    "max_cover_sequence": lambda: engine.max_cover_sequence(_C16.open_masks(), _C16.full_mask),
    "game_cover_value": lambda: engine.game_cover_value(_C16.open_masks(), _C16.full_mask),
    "sequence_of_length": lambda: engine.sequence_of_length(_C16.open_masks(), _C16.full_mask, [12]),
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

import hashlib
import math
import random
from fractions import Fraction

import pytest

import oracles
from conftest import cubic_corpus, relabeled
from grundytd import (
    DomainError,
    FamilyTCertificate,
    Graph,
    InvariantViolation,
    PairLabeling,
    PreconditionError,
    are_isomorphic,
    bipartition,
    bound_report,
    build_family,
    complete_multipartite,
    complete_multipartite_parts,
    compute_report,
    connected_regular_graphs,
    cycle,
    family_t_members,
    find_pair_labeling,
    gm_graph,
    graph_canonical_form,
    grundy_domination_number,
    grundy_total_domination_number,
    is_complete_multipartite,
    is_in_family_t,
    is_total_dominating_sequence,
    k_kk,
    pair_labeling_from_sequence,
    path,
    petersen,
    random_tree,
    regular_greedy_sequence,
    regular_lower_bound,
    replay_family_t_certificate,
    star,
    subset_bipartite,
    complete,
    tree_bound_report,
    tree_from_edges,
    tree_matching_sequence,
    tree_perfect_matching,
    verify_pair_labeling,
)
from grundytd import smallgraphs, theorems
from grundytd.checks import SUITES, run_checks
from grundytd.sequences import check_cover_sequence
from grundytd.smallgraphs import canonical_form
from grundytd.theorems import _free_trees, regular_bound_applies, tree_bound_applies


# ---------- pair labelings (full-order sequences) ----------


def test_p4_has_pair_labeling():
    lab = find_pair_labeling(path(4))
    assert lab is not None and lab.k == 2
    assert verify_pair_labeling(path(4), lab)
    # the x side is an independent set covering one end of each pair
    edge = lab.xs[0] in (1, 2) and lab.xs[1] in (1, 2)
    assert not edge


def test_c4_has_no_pair_labeling():
    assert grundy_total_domination_number(cycle(4))[0] == 2
    assert find_pair_labeling(cycle(4)) is None


def test_odd_order_never_labeled():
    assert find_pair_labeling(path(5)) is None


def test_labeling_witness_sequence_is_total_dominating():
    lab = find_pair_labeling(path(6))
    assert lab is not None
    assert is_total_dominating_sequence(path(6), lab.sequence)
    assert len(lab.sequence) == 6


def test_pair_labeling_exists_iff_value_is_order(connected_upto_6):
    # both directions of Thm 4.2, with the labeling found by exhaustive search
    # over vertex orders rather than peeled from a solver witness
    even = [g for g in connected_upto_6 if g.n % 2 == 0]
    assert len(even) == 1 + 6 + 112
    for g in even:
        labeled = oracles.pair_labeling(g) is not None
        assert labeled == (grundy_total_domination_number(g)[0] == g.n), g.adj


def test_peeling_recovers_labeling_from_witness():
    g = path(6)
    value, witness = grundy_total_domination_number(g)
    assert value == 6
    lab = pair_labeling_from_sequence(g, witness)
    assert verify_pair_labeling(g, lab)


def test_peeling_rejects_short_sequence():
    with pytest.raises(PreconditionError):
        pair_labeling_from_sequence(path(4), (0, 2))


def test_verify_rejects_dependent_x_side():
    # swap roles so the "independent" side has an edge
    bad = PairLabeling(k=2, xs=(1, 2), ys=(0, 3), sequence=(1, 2, 3, 0))
    assert not verify_pair_labeling(path(4), bad)


# ---------- complete multipartite recognition ----------


def test_k23_is_complete_multipartite():
    g = build_family("complete_multipartite:2,3")
    parts = complete_multipartite_parts(g)
    assert parts is not None
    assert sorted(len(p) for p in parts) == [2, 3]


def test_k3_is_complete_multipartite_with_unit_parts():
    parts = complete_multipartite_parts(complete(3))
    assert parts is not None and len(parts) == 3


def test_p4_is_not_complete_multipartite():
    assert not is_complete_multipartite(path(4))


def test_value_two_iff_multipartite_small(connected_upto_6):
    for g in connected_upto_6:
        expected = grundy_total_domination_number(g)[0] == 2
        assert is_complete_multipartite(g) == expected


def test_multipartite_parts_match_the_definition(connected_upto_7):
    rng = random.Random(7)
    sizes = [(1,), (4,), (1, 1, 1), (2, 3), (1, 2, 4), (3, 1, 3, 2)]
    graphs = list(connected_upto_7)
    graphs += [relabeled(complete_multipartite(s), rng) for s in sizes]
    found = 0
    for g in graphs:
        parts = complete_multipartite_parts(g)
        assert parts == oracles.complete_multipartite_parts(g), g.adj
        found += parts is not None
    assert found > len(sizes)


# ---------- tree perfect matchings and witness sequences ----------


def test_p2_matching_sequence():
    assert tree_matching_sequence(path(2)) == (1, 0)


def test_p6_matching_sequence_is_full_length():
    seq = tree_matching_sequence(path(6))
    assert len(seq) == 6
    assert is_total_dominating_sequence(path(6), seq)


def test_tree_without_perfect_matching():
    assert tree_perfect_matching(star(2)) is None
    with pytest.raises(PreconditionError):
        tree_matching_sequence(star(2))


def test_perfect_matching_found_on_even_path():
    m = tree_perfect_matching(path(8))
    assert m is not None
    assert sorted(x for e in m for x in e) == list(range(8))


def test_matching_sequence_rejects_non_tree():
    with pytest.raises(DomainError):
        tree_matching_sequence(cycle(4))


# ---------- the extremal tree family ----------


# trees on m vertices for m = 1..16 (OEIS A000055)
TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320)


def all_trees(m):
    """Every tree on m vertices once, from the family's own generator."""
    return [
        tree_from_edges(m, [(p, j) for j, p in enumerate(ps) if j]) for ps in _free_trees(m)
    ]


def test_free_trees_are_preorder_parent_lists_counted_by_a000055():
    for m, want in enumerate(TREE_COUNTS[:12], start=1):
        lists = list(_free_trees(m))
        assert len(lists) == want
        assert all(ps[0] == -1 and all(ps[j] < j for j in range(1, m)) for ps in lists)


def test_family_member_counts():
    assert [len(list(family_t_members(n))) for n in (2, 5, 8, 11)] == [1, 1, 1, 2]
    counts = [len(list(family_t_members(3 * m - 1))) for m in range(1, 13)]
    assert counts == list(TREE_COUNTS[:12])


def test_family_members_need_no_canonical_form(monkeypatch):
    calls = []

    def counted(adj, n):
        calls.append(n)
        return canonical_form(adj, n)

    monkeypatch.setattr(smallgraphs, "canonical_form", counted)
    monkeypatch.setattr(theorems, "canonical_form", counted)
    for n in range(2, 30):
        list(family_t_members(n))
    assert calls == []


def test_family_members_match_the_reference_generator():
    for n in range(2, 30):
        ours = [graph_canonical_form(t) for t, _ in family_t_members(n)]
        want = {graph_canonical_form(t) for t, _ in oracles.family_t_reference(n)}
        assert len(ours) == len(set(ours)) == len(want)
        assert set(ours) == want


def test_family_members_stream():
    # the whole order-50 family takes seconds; its first member does not wait for it
    tree, cert = next(family_t_members(theorems.MAX_FAMILY_T_ORDER))
    assert tree.n == theorems.MAX_FAMILY_T_ORDER and replay_family_t_certificate(cert) == tree


def test_family_empty_off_residue():
    assert list(family_t_members(7)) == []
    assert is_in_family_t(path(7)) is None


def test_p5_in_family():
    cert = is_in_family_t(path(5))
    assert cert is not None
    replayed = replay_family_t_certificate(cert)
    from grundytd import are_isomorphic

    assert are_isomorphic(replayed, path(5))


def test_p8_not_in_family():
    assert is_in_family_t(path(8)) is None


def test_certificates_replay_to_members():
    for n in range(2, 36, 3):
        for tree, cert in family_t_members(n):
            assert replay_family_t_certificate(cert) == tree
            # generate --json prints the recognizer's certificate as the member's own
            assert is_in_family_t(tree) == cert


@pytest.mark.parametrize(
    "n, steps, message",
    [
        (5, ((7, (2, 3, 4)),), "missing vertex 7"),
        (5, ((0, (1, 2, 3)),), "three fresh ids"),
        (5, ((0, (2, 2, 3)),), "three fresh ids"),
        (8, ((1, (2, 3, 4)), (2, (5, 6, 7))), "non-support vertex 2"),
        (6, ((0, (2, 3, 4)),), "does not label"),
    ],
)
def test_replay_rejects_malformed_certificates(n, steps, message):
    with pytest.raises(PreconditionError, match=message):
        replay_family_t_certificate(FamilyTCertificate(n, (0, 1), steps))


def test_replay_rejects_a_loop_as_base_edge():
    # replay builds its rows unchecked, so it must refuse the loop itself
    with pytest.raises(PreconditionError, match="self-loop at 0"):
        replay_family_t_certificate(FamilyTCertificate(1, (0, 0), ()))


def test_recognition_rejects_a_large_non_member_quickly():
    # a hub with one leaf, 13 legs of three vertices and a 6-vertex path:
    # order 47, no strong support vertex, and two degree-2 vertices in a row
    edges = [(0, 1)]
    for leg in range(13):
        x = 2 + 3 * leg
        edges += [(0, x), (x, x + 1), (x + 1, x + 2)]
    edges += [(0, 41)] + [(x, x + 1) for x in range(41, 46)]
    t = tree_from_edges(47, edges)
    assert tree_bound_applies(t)
    assert is_in_family_t(t) is None


def test_family_t_membership_matches_every_tree_to_order_14():
    # includes the trees with a strong support vertex, which the checker skips
    rng = random.Random(14)
    for n in range(2, 15):
        forms = {graph_canonical_form(t) for t, _ in family_t_members(n)}
        found = 0
        for t in all_trees(n):
            t = relabeled(t, rng)
            cert = is_in_family_t(t)
            if n % 3 != 2:
                assert cert is None
                continue
            assert (cert is not None) == (graph_canonical_form(t) in forms), t.adj
            if cert is not None:
                assert replay_family_t_certificate(cert) == t
                found += 1
        assert found == len(forms)


@pytest.mark.parametrize(
    "n, edges",
    [
        pytest.param(
            8,
            [(0, 1), (0, 2), (0, 3), (3, 4), (0, 5), (5, 6), (6, 7)],
            id="a support with two leaves",
        ),
        pytest.param(
            8,
            [(0, 1), (1, 2), (2, 3), (0, 4), (1, 5), (2, 6), (3, 7)],
            id="four supports at order 8",
        ),
        pytest.param(
            11,
            [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (1, 7), (2, 8), (4, 9), (6, 10)],
            id="a degree-3 non-support vertex",
        ),
    ],
)
def test_trees_failing_one_condition_are_not_members(n, edges):
    assert is_in_family_t(tree_from_edges(n, edges)) is None


# ---------- tree lower bound ----------


def test_bound_skips_trees_with_strong_support():
    rep = tree_bound_report(star(3), compute_report(star(3)))
    assert not rep.applicable


def test_p5_meets_bound_with_equality():
    rep = tree_bound_report(path(5), compute_report(path(5)))
    assert rep.applicable
    assert rep.bound == Fraction(4)
    assert rep.gamma_grt == 4
    assert rep.equality
    assert rep.certificate is not None


def test_p7_strict_above_bound():
    rep = tree_bound_report(path(7), compute_report(path(7)))
    assert rep.applicable
    assert rep.bound == Fraction(16, 3)
    assert rep.gamma_grt == 6
    assert not rep.equality


def test_tree_functions_reject_a_cycle_beside_an_edge():
    # n - 1 edges but not connected: a triangle and a separate edge
    g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    for tree_function in (tree_perfect_matching, tree_bound_applies, is_in_family_t):
        with pytest.raises(DomainError):
            tree_function(g)


def test_random_trees_obey_bound():
    rng = random.Random(20)
    for _ in range(60):
        t = random_tree(rng.randint(4, 12), rng)
        rep = tree_bound_report(t, compute_report(t))
        if not rep.applicable:
            continue
        assert Fraction(rep.gamma_grt) >= rep.bound
        member = is_in_family_t(t) is not None
        assert (Fraction(rep.gamma_grt) == rep.bound) == member


def _sweep_every_tree(orders):
    """Thm 5.1 and Thm 5.4 on every tree of each order; at orders 2 mod 3
    the trees meeting 2(n+1)/3 are exactly as many as family_t_members."""
    for n in orders:
        trees = all_trees(n)
        assert len(trees) == TREE_COUNTS[n - 1]
        matching, bound = run_checks(SUITES["trees"], trees, "trees")
        assert matching.passed and bound.passed, matching.counterexamples + bound.counterexamples
        covered = [t for t in trees if tree_bound_applies(t)]
        assert (matching.tested, bound.tested) == (len(trees), len(covered))
        if n % 3 == 2:
            extremal = [
                t for t in covered
                if 3 * grundy_total_domination_number(t)[0] == 2 * (n + 1)
            ]
            assert len(extremal) == len(list(family_t_members(n)))


def test_every_tree_to_order_12_obeys_thm_5_1_and_5_4():
    _sweep_every_tree(range(2, 13))


@pytest.mark.slow
def test_every_tree_of_order_13_to_16_obeys_thm_5_1_and_5_4():
    _sweep_every_tree(range(13, 17))


# ---------- regular construction ----------


def test_construction_rejects_unsuitable_graphs():
    with pytest.raises(DomainError):
        regular_greedy_sequence(path(4))  # not regular
    with pytest.raises(DomainError):
        regular_greedy_sequence(k_kk(3))  # the excluded balanced bipartite case
    with pytest.raises(DomainError):
        regular_greedy_sequence(cycle(6))  # degree 2 is out of scope


def test_petersen_construction():
    res = regular_greedy_sequence(petersen())
    assert res.k == 3 and not res.bipartite
    assert res.meets_bound
    assert len(res.sequence) >= 5
    assert is_total_dominating_sequence(petersen(), res.sequence)


def test_bipartite_cubic_construction():
    g = build_family("gm:4")
    res = regular_greedy_sequence(g)
    assert res.bipartite
    assert res.meets_bound
    assert is_total_dominating_sequence(g, res.sequence)


def test_construction_witnesses_are_pinned():
    # the sequences themselves, so that a change in seeding or tie-breaking fails
    assert regular_greedy_sequence(petersen()).sequence == (0, 1, 2, 4, 5, 7)
    assert regular_greedy_sequence(build_family("gm:4")).sequence == (0, 2, 1, 3)
    text = "\n".join(
        " ".join(map(str, regular_greedy_sequence(g).sequence))
        for n in range(4, 13, 2)
        for g in cubic_corpus(n)
        if regular_bound_applies(g)
    )
    assert text.count("\n") == 110  # every connected cubic graph to order 12 but K3,3
    digest = "02251049ccd689f13c985b1de4fd2bfac627e6e6d261336ff01eceac068d75f2"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _check_regular_bound(graphs, k):
    """The abstract's bound on every graph but K_{k,k}; bipartite ones tested."""
    half = (k + 1) // 2
    bipartite = 0
    for g in graphs:
        if are_isomorphic(g, k_kk(k)):
            continue
        res = regular_greedy_sequence(g)
        assert res.bipartite == (bipartition(g) is not None)
        if res.bipartite:
            bipartite += 1
            bound = Fraction(g.n + 2 * half - 4, k - 1)
        else:
            bound = Fraction(g.n + half - 2, k - 1)
        assert res.k == k and res.bound == bound
        assert res.meets_bound and len(res.sequence) >= bound
        assert is_total_dominating_sequence(g, res.sequence)
        assert grundy_total_domination_number(g)[0] >= bound
    return bipartite


def test_construction_meets_the_bound_on_quartic_and_quintic_graphs():
    quartic = [g for n in range(5, 11) for g in connected_regular_graphs(n, 4)]
    # K5,5 minus a perfect matching is the bipartite quartic graph of order 10
    assert _check_regular_bound(quartic, 4) >= 1
    quintic = [g for n in (6, 8, 10) for g in connected_regular_graphs(n, 5)]
    assert _check_regular_bound(quintic, 5) == 0
    # no bipartite quintic graph but K5,5 has order below 12
    assert _check_regular_bound([gm_graph(6)], 5) == 1


def test_construction_bound_value():
    res = regular_greedy_sequence(petersen())
    # n=10, k=3: ceil(k/2) = 2, so (10 + 2 - 2) / 2 = 5
    assert res.bound == Fraction(5)
    assert len(res.sequence) >= 5


# ---------- bound report ----------


def test_bound_report_clean_on_small_connected(connected_upto_6):
    for g in connected_upto_6:
        assert bound_report(g, compute_report(g)).violations == ()


def test_bound_report_names_the_checks():
    rep = bound_report(petersen(), compute_report(petersen()))
    names = {c.name for c in rep.checks}
    assert "gamma_t <= Gamma_t" in names
    assert "gamma_grt <= 2*gamma_gr" in names
    assert "regular: k-regular lower bound <= gamma_grt" in names
    assert rep.violations == ()


def test_bound_report_checks_regular_bounds_on_connected_graphs_only():
    k4 = complete(4)
    two_k4 = Graph.from_edges(8, k4.edges() + [(u + 4, v + 4) for u, v in k4.edges()])
    regular = "regular: k-regular lower bound <= gamma_grt"
    floor = "gamma_grt = n/max_degree only for balanced complete bipartite"
    one = bound_report(k4, compute_report(k4))
    assert {regular, floor} <= {c.name for c in one.checks}
    two = bound_report(two_k4, compute_report(two_k4))
    assert not {regular, floor} & {c.name for c in two.checks}
    assert one.violations == two.violations == ()
    # the construction, the report's row and the predicate share one domain
    graphs = [g for n in range(4, 11, 2) for g in cubic_corpus(n)]
    graphs += [k_kk(3), k_kk(4), cycle(6), path(4), two_k4, build_family("gm:3:2")]
    covered = 0
    for g in graphs:
        applies = regular_bound_applies(g)
        try:
            regular_greedy_sequence(g)
        except DomainError:
            constructed = False
        else:
            constructed = True
        assert applies == constructed, g.adj
        names = {c.name for c in bound_report(g, compute_report(g)).checks}
        assert (regular in names) == applies, g.adj
        covered += applies
    # K3,3 (in the corpus and added again), K4,4, C6, P4 and 2K4 are out
    assert covered == len(graphs) - 6


def test_bound_report_checks_the_abstracts_regular_bound():
    # K7,7 minus a perfect matching: n = 14, 6-regular and bipartite, so the
    # bound is (14 + 2*3 - 4)/5 = 16/5, above n/(k-1) = 14/5
    g = gm_graph(7)
    assert regular_lower_bound(14, 6, True) == Fraction(16, 5)
    rep = compute_report(g)
    assert rep.value("gamma_grt") == 4
    assert bound_report(g, rep).violations == ()
    results = dict(rep.results)
    results["gamma_grt"] = results["gamma_grt"]._replace(value=3)
    doctored = rep._replace(results=results)
    assert "regular: k-regular lower bound <= gamma_grt" in bound_report(g, doctored).violations


def test_balanced_bipartite_equality_case():
    # the only connected graphs hitting the n over max-degree floor
    g = k_kk(4)
    rep = bound_report(g, compute_report(g))
    assert rep.violations == ()
    assert grundy_total_domination_number(g)[0] == 2


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_grundy_domination_exceeds_its_total_version_arbitrarily(k):
    # the abstract: gamma_gr^t can be arbitrarily smaller than gamma_gr.  On
    # the (2k-1)-set against its k-subsets, gamma_gr^t = 2k, while the
    # k-subsets in any order are a complete closed sequence, so gamma_gr is
    # at least C(2k-1, k)
    g = subset_bipartite(k)
    assert grundy_total_domination_number(g, cap=g.n)[0] == 2 * k
    subsets = range(2 * k - 1, g.n)
    assert check_cover_sequence(g.closed_masks(), g.full_mask, subsets).complete
    assert len(subsets) == math.comb(2 * k - 1, k) == [10, 35, 126, 462][k - 3]
    if k == 3:
        assert grundy_domination_number(g, cap=g.n)[0] == 10


@pytest.mark.slow
def test_grundy_domination_of_gk4_is_its_closed_subset_sequence():
    # order 42, above the default cap: the C(7, 4) k-subsets in any order
    # are a complete closed sequence, and no closed sequence is longer
    g = subset_bipartite(4)
    value, seq = grundy_domination_number(g, cap=g.n)
    assert value == math.comb(7, 4) == 35
    assert check_cover_sequence(g.closed_masks(), g.full_mask, seq).complete

import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from grundytd import (
    Graph,
    Hypergraph,
    ParseError,
    cycle,
    graph_from_edge_list,
    graph_from_graph6,
    graph_to_edge_list,
    graph_to_graph6,
    hypergraph_from_text,
    hypergraph_to_text,
    path,
)
from grundytd.formats import graphs_from_edge_list


def graphs(max_n=12):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picked = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        return Graph.from_edges(n, sorted(picked))

    return build()


def test_k2_from_edge_list():
    g = graph_from_edge_list("2 1\n0 1")
    assert g.n == 2 and g.adj == (2, 1)


def test_edge_list_self_loop_rejected():
    with pytest.raises(ParseError):
        graph_from_edge_list("1 1\n0 0")


def test_edge_list_header_mismatch_rejected():
    with pytest.raises(ParseError):
        graph_from_edge_list("2 2\n0 1")


def test_edge_lists_back_to_back():
    # a blank or comment line separates the graphs
    text = "2 1\n0 1\n\n1 0\n# third\n3 2\n0 1\n1 2\n"
    assert [g.adj for g in graphs_from_edge_list(text)] == [(2, 1), (0,), (2, 5, 2)]
    with pytest.raises(ParseError, match="expected one graph, found 3"):
        graph_from_edge_list(text)


@pytest.mark.parametrize(
    "text, line",
    [
        ("2 1\n0 1\n\n3 1\n0 5\n", 5),  # a bad edge in the second graph
        ("2 1\n0 1\n\n3 2\n0 1\n", 4),  # too few edges: the header's line
        ("2 1\n0 1\n1 0\n", 3),  # an edge line past the m-th, no blank line before it
        ("1 0\n\n2 1\n0 1\n1 0\n", 5),  # the same in the second graph
    ],
)
def test_edge_list_errors_name_the_line_in_the_file(text, line):
    with pytest.raises(ParseError) as info:
        graphs_from_edge_list(text)
    assert info.value.line == line


@pytest.mark.parametrize("text", ["300000 0", "99999999999 0"])
def test_edge_list_oversized_order_rejected(text):
    with pytest.raises(ParseError, match="258047"):
        graph_from_edge_list(text)


def test_edge_list_order_beyond_the_adjacency_limit_rejected():
    assert graph_from_edge_list("46341 0").n == 46341
    with pytest.raises(ParseError, match="adjacency bits"):
        graph_from_edge_list("46342 0")


def _graph6_header(n):
    return "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))


def test_graph6_order_beyond_the_adjacency_limit_rejected():
    # the limit is checked before the body length
    with pytest.raises(ParseError, match="line 4: .*adjacency bits"):
        graph_from_graph6(_graph6_header(46342), line=4)
    with pytest.raises(ParseError, match="body has 0 characters"):
        graph_from_graph6(_graph6_header(46341))


def test_graph6_p3_roundtrip():
    s = graph_to_graph6(path(3))
    assert len(s) == 1 + 1  # one size byte + one adjacency byte
    g = graph_from_graph6(s)
    assert g.adj == path(3).adj


def test_graph6_known_encodings():
    # standard encodings for small graphs
    assert graph_to_graph6(path(2)) == "A_"
    assert graph_from_graph6("A_").adj == (2, 1)
    assert graph_from_graph6("D?{").n == 5


def test_graph6_encoder_matches_the_bitwise_encoder(connected_upto_7):
    # the header switches to four characters above order 62, and the last
    # character is padded unless 6 divides n(n-1)/2
    large = [path(62), path(64), path(2000), cycle(63)]
    for g in [Graph(1, (0,))] + connected_upto_7 + large:
        assert graph_to_graph6(g) == oracles.graph_to_graph6_bitwise(g), g.adj[:8]


def test_graph6_optional_header_prefix():
    s = ">>graph6<<" + graph_to_graph6(path(4))
    assert graph_from_graph6(s).adj == path(4).adj


def test_graph6_rejects_trailing_garbage():
    s = graph_to_graph6(path(4))
    with pytest.raises(ParseError):
        graph_from_graph6(s + "!!!!")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty graph6 string"),
        ("A>", "graph6 character out of range"),
        ("~??", "truncated graph6 length header"),
        ("~~??????", "graph6 orders beyond 258047 not supported"),
        ("?", "graph6 order must be >= 1"),
        ("A", "graph6 body has 0 characters, expected 1"),
        ("~?@?" + "?" * 338, "graph6 body has 338 characters, expected 336"),
    ],
)
def test_graph6_errors_name_the_fault(text, message):
    with pytest.raises(ParseError, match=message):
        graph_from_graph6(text)


def test_large_sparse_graph6_parses_in_bounded_memory(tmp_path):
    # a path of order 30,000 is a 75 MB graph6 line; the parser holds no
    # per-character list, so it fits a 600 MB address space and the solver's
    # order cap refuses it (exit 3) instead of a MemoryError traceback
    n = 30_000
    pairs = n * (n - 1) // 2
    body = bytearray(b"?") * ((pairs + 5) // 6)
    for j in range(1, n):
        k = j * (j - 1) // 2 + j - 1  # the pair (j - 1, j)
        body[k // 6] += 1 << (5 - k % 6)
    big = tmp_path / "big.g6"
    with open(big, "wb") as fh:
        fh.write(bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]))
        fh.write(body)
        fh.write(b"\n")
    del body
    src = Path(__file__).resolve().parent.parent / "src"
    limit = 600_000 * 1024

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))

    proc = subprocess.run(
        [sys.executable, "-m", "grundytd.cli", "compute", "--graph", str(big), "--invariant", "gt"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, preexec_fn=limit_memory,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: instance order 30000 exceeds")
    assert "Traceback" not in proc.stderr


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_graph6_roundtrip(g):
    assert graph_from_graph6(graph_to_graph6(g)).adj == g.adj


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=70))
def test_graph6_roundtrip_long_form(g):
    # orders above 62 need the multi-byte size prefix
    assert graph_from_graph6(graph_to_graph6(g)).adj == g.adj


def test_graph6_parse_equals_the_checked_graph():
    # the parser builds its graph without Graph's checks; on random graphs of
    # orders 1-70, in both header forms, it equals the graph built with them
    rng = random.Random(2730)
    for n in range(1, 71):
        for p in (0.1, 0.5):
            rows = [0] * n
            for j in range(1, n):
                for i in range(j):
                    if rng.random() < p:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
            want = Graph(n, tuple(rows))
            assert graph_from_graph6(oracles.graph_to_graph6_bitwise(want)) == want, n


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_edge_list_roundtrip(g):
    assert graph_from_edge_list(graph_to_edge_list(g)).adj == g.adj


def test_hypergraph_text_roundtrip():
    h = Hypergraph.from_edge_lists(3, [[0], [1, 2], [0, 2]])
    text = hypergraph_to_text(h)
    back = hypergraph_from_text(text)
    assert back.n_vertices == 3 and back.edges == h.edges


def test_hypergraph_text_shape():
    h = hypergraph_from_text("2 3\n0\n1\n0 1\n")
    assert h.n_vertices == 2
    assert [sorted(h.edge_members(i)) for i in range(3)] == [[0], [1], [0, 1]]


def test_hypergraph_text_bad_vertex_rejected():
    with pytest.raises(ParseError):
        hypergraph_from_text("2 1\n0 5\n")


def test_hypergraph_text_oversized_ground_rejected():
    with pytest.raises(ParseError, match="258047"):
        hypergraph_from_text("300000 1\n0\n")


def test_hypergraph_text_edge_count_mismatch_rejected():
    with pytest.raises(ParseError):
        hypergraph_from_text("2 2\n0 1\n")


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (hypergraph_from_text, "6  0", 1),  # no hyperedges
        (hypergraph_from_text, "0 0", 1),  # empty ground set
        (hypergraph_from_text, "3 1\n0\n", None),  # ground vertices 1 and 2 in no edge
        (graph_from_edge_list, "0 0", 1),
        (graph_from_edge_list, "# order\n-3 0", 2),
    ],
)
def test_rejected_shapes_raise_parse_error(parse, text, line):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.line == line


def _near_valid_text():
    # a header and member lines of small, sometimes negative integers, so
    # that most inputs get past the tokenizer into the shape checks
    ints = st.lists(st.integers(min_value=-2, max_value=7), max_size=4)
    return st.lists(ints, min_size=1, max_size=6).map(
        lambda rows: "\n".join(" ".join(map(str, row)) for row in rows)
    )


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _near_valid_text(),
        st.text(alphabet="0123456789 -#\n\tx~?", max_size=30),
        st.text(max_size=12),
    )
)
def test_malformed_text_raises_only_parse_error(text):
    for parse in (graph_from_edge_list, hypergraph_from_text, graph_from_graph6):
        try:
            parse(text)
        except ParseError:
            pass

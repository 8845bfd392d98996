import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qouter.errors import CapacityError
from qouter.graph6 import graph6_decode, graph6_encode
from qouter.graphs import complete, cycle, from_edges, path, star

from .test_graphs import graphs_strategy


def test_frozen_values():
    assert graph6_encode(cycle(5)) == "Dhc"
    assert graph6_encode(path(2)) == "A_"
    assert graph6_encode(from_edges(1, [])) == "@"


def test_roundtrip_named_graphs():
    for g in [path(1), path(2), path(7), cycle(3), cycle(8), star(9), complete(5)]:
        assert graph6_decode(graph6_encode(g)) == g


def test_matches_networkx():
    for g in [path(6), cycle(7), star(8), complete(4), cycle(6).add_edge(0, 3)]:
        mirror = nx.Graph()
        mirror.add_nodes_from(range(g.n))
        mirror.add_edges_from(g.edges())
        expected = nx.to_graph6_bytes(mirror, header=False).decode().strip()
        assert graph6_encode(g) == expected


def test_networkx_decodes_our_output():
    g = cycle(9).add_edge(2, 6)
    back = nx.from_graph6_bytes(graph6_encode(g).encode())
    assert sorted(map(tuple, back.edges())) == sorted(g.edges())


def test_long_form_orders():
    for n in (63, 64):
        g = star(n)
        text = graph6_encode(g)
        assert text.startswith("~")
        assert graph6_decode(text) == g


def test_optional_header_accepted():
    assert graph6_decode(">>graph6<<Dhc") == cycle(5)


def test_decode_errors():
    with pytest.raises(ValueError):
        graph6_decode("")
    with pytest.raises(ValueError, match="empty graph6 string"):
        graph6_decode(">>graph6<<")  # a header and nothing after it
    with pytest.raises(ValueError):
        graph6_decode("D")  # truncated body
    with pytest.raises(ValueError):
        graph6_decode("Dhcc")  # overlong body
    with pytest.raises(ValueError):
        graph6_decode("A" + chr(200))  # byte outside graph6 alphabet
    with pytest.raises(ValueError):
        graph6_decode("B" + chr(63 + 1))  # nonzero padding for n=3
    with pytest.raises(ValueError, match="unsupported graph6 size record"):
        graph6_decode("~~" + "?" * 6)  # the 8-byte record of orders >= 258048
    with pytest.raises(CapacityError, match="graph6 order 0 outside 1..64"):
        graph6_decode("?")
    with pytest.raises(CapacityError, match="graph6 order 65 outside 1..64"):
        graph6_decode("~?@@")  # the long form of 65


@settings(max_examples=80, deadline=None)
@given(graphs_strategy)
def test_roundtrip_random(g):
    assert graph6_decode(graph6_encode(g)) == g

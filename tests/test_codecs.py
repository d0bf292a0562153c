import pytest
from random import Random

import networkx as nx
from hypothesis import given, settings, strategies as st

from gdiff.codecs import (
    FormatError,
    parse_edgelist,
    parse_graph6,
    write_edgelist,
    write_graph6,
)
from gdiff.census import connected_census
from gdiff.core import CapacityError, Graph
from gdiff.families import complete, path

from oracles import random_graph


MALFORMED_GRAPH6 = [
    "",  # empty
    " ",  # byte below offset
    "\x1f",  # control byte
    "B",  # truncated body for n=3
    "Bww",  # oversized body
    "Bx",  # nonzero padding bits (only 3 data bits for n=3)
    "B\x05",  # invalid low byte in body
    "A" + chr(127),  # byte above printable range
    "~~",  # unsupported long-long order prefix
    "~??",  # truncated order field
    "~?? ",  # long order field with an invalid byte
    "}?",  # order 62: body far too short
    "C~~",  # body bytes fine but wrong count for n=4
    "B w",  # embedded junk byte below offset
    "@?",  # n=1 expects an empty body
    "??",  # n=0 expects an empty body
    "D?@",  # n=5: nonzero padding bits
    "D?",  # n=5 body too short
    "Cw?",  # n=4 needs exactly 1 body byte
    "~?B~" + "?" * 100,  # order 255 exceeds the capacity constant
]


def test_known_encodings():
    assert write_graph6(complete(3)) == "Bw"
    assert write_graph6(Graph.from_edges(2, [])) == "A?"
    assert parse_graph6("Bw") == complete(3)
    assert parse_graph6("A?") == Graph.from_edges(2, [])


def test_roundtrip_random():
    rng = Random(61)
    for _ in range(500):
        g = random_graph(rng, rng.randint(0, 20))
        assert parse_graph6(write_graph6(g)) == g


def test_roundtrip_census_byte_exact():
    for n in range(1, 6):
        for g in connected_census(n):
            text = write_graph6(g)
            assert write_graph6(parse_graph6(text)) == text


def test_cross_check_against_networkx():
    rng = Random(67)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 15))
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        assert write_graph6(g) == nx.to_graph6_bytes(h, header=False).decode().strip()
        back = nx.from_graph6_bytes(write_graph6(g).encode())
        assert set(back.edges()) == {tuple(e) for e in g.edges()}


def test_long_form_order():
    g = Graph.from_edges(63, [(0, 62)])
    text = write_graph6(g)
    assert text.startswith("~")
    assert parse_graph6(text) == g


def test_header_accepted():
    assert parse_graph6(">>graph6<<Bw") == complete(3)


def test_malformed_inputs_rejected():
    assert len(MALFORMED_GRAPH6) == 20
    for bad in MALFORMED_GRAPH6:
        with pytest.raises((FormatError, CapacityError)):
            parse_graph6(bad)


def test_edgelist_roundtrip():
    g = parse_edgelist("n 3\n0 1\n1 2\n")
    assert g == path(3)
    for n in range(0, 6):
        rng = Random(n)
        h = random_graph(rng, n + 2)
        assert parse_edgelist(write_edgelist(h)) == h


def test_edgelist_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 2"):
        parse_edgelist("n 2\n0 0\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_edgelist("n 2\n0 1\n1 0\n")
    with pytest.raises(FormatError, match="header"):
        parse_edgelist("0 1\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_edgelist("n 2\n0 5\n")
    with pytest.raises(FormatError, match="integers"):
        parse_edgelist("n 2\na b\n")
    with pytest.raises(FormatError):
        parse_edgelist("")
    for header in ("n \u00b2", "n -1", "n 2 3", "m 2"):
        with pytest.raises(FormatError, match="line 1: expected header"):
            parse_edgelist(header + "\n")


# Arbitrary text, plus text shaped like each format so the fuzzer reaches
# past the first check of each parser.
EDGELIST_LIKE = st.lists(
    st.lists(st.sampled_from(["n", "0", "1", "2", "-1", "64", "#"]) | st.text(max_size=3), max_size=3)
    .map(" ".join),
    max_size=5,
).map("\n".join)
GRAPH6_LIKE = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=130), max_size=12)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.text() | EDGELIST_LIKE | GRAPH6_LIKE | st.builds("n {}".format, st.text()))
def test_parsers_raise_only_format_or_capacity_errors(text):
    for parse in (parse_graph6, parse_edgelist):
        try:
            parse(text)
        except (FormatError, CapacityError):
            pass

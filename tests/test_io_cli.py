import argparse
import json
import random
import sys
from itertools import combinations, permutations

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

import simpletri.io
from simpletri import cli, oracles, recognition
from simpletri.cli import main
from simpletri.errors import CycleError, DuplicateEdge, ParseError, SelfLoop
from simpletri.graphs import APEX_PATTERNS, Graph, cycle_graph
from simpletri.io import (
    MAX_VERTICES,
    _significant_lines,
    emit_representation,
    graph_to_text,
    order_to_text,
    parse_graph,
    parse_order,
    parse_representation,
)
from simpletri.orders import PartialOrder, make_partial_order
from simpletri.triangles import TriangleRepresentation, verify_representation

from references import c4_rule_by_cycles, scan_pattern
from strategies import graphs, partial_orders

C4_TEXT = "4\n0 1\n1 2\n2 3\n3 0\n"
C5_TEXT = "5\n0 1\n1 2\n2 3\n3 4\n4 0\n"
TWO_PLUS_TWO_TEXT = "4\n0 < 2\n1 < 3\n"
CROWN_TEXT = "6\n0 < 4\n0 < 5\n1 < 3\n1 < 5\n2 < 3\n2 < 4\n"


class TestParseGraph:
    def test_c4(self):
        assert parse_graph(C4_TEXT) == cycle_graph(4)

    def test_comments_and_blanks(self):
        text = "# a square\n\n4\n0 1\n# middle\n1 2\n2 3\n3 0\n"
        assert parse_graph(text) == cycle_graph(4)

    def test_self_loop(self):
        with pytest.raises(SelfLoop) as info:
            parse_graph("2\n0 0\n")
        assert info.value.line == 2

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            parse_graph("3\n0 1\n0 1\n")
        with pytest.raises(DuplicateEdge) as info:
            parse_graph("# 1 0 repeats 0 1\n3\n0 1\n\n1 0\n")
        assert info.value.line == 5
        assert str(info.value) == "line 5: duplicate edge 0 1"

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_graph("")
        with pytest.raises(ParseError):
            parse_graph("x\n")
        with pytest.raises(ParseError):
            parse_graph("2\n0\n")
        with pytest.raises(ParseError):
            parse_graph("2\n0 7\n")
        with pytest.raises(ParseError):
            parse_graph("-1\n")

    def test_vertex_count_cap(self):
        assert parse_graph(f"{MAX_VERTICES}\n").n == MAX_VERTICES
        with pytest.raises(ParseError):
            parse_graph(f"{MAX_VERTICES + 1}\n")
        with pytest.raises(ParseError):
            parse_order("99999999999\n")

    @pytest.mark.parametrize("brk", ["\r\n", "\r", "\f"])
    def test_line_breaks(self, brk):
        lines = ["# a square", "4", "0 1", "", "1 2", "2 3", "3 0", "1 0"]
        assert parse_graph(brk.join(lines[:-1]) + brk) == cycle_graph(4)
        with pytest.raises(DuplicateEdge) as info:
            parse_graph(brk.join(lines))
        assert info.value.line == 8

    def test_lines_are_numbered_across_pieces(self, monkeypatch):
        # a piece ends after a "\n", so no "\r\n" straddles two of them
        def whole_text_lines(text):
            stripped = (raw.strip() for raw in text.splitlines())
            return [(i, line) for i, line in enumerate(stripped, 1) if line[:1] not in "#"]

        rng = random.Random(5)
        breaks = ["\n", "\r\n", "\r", "\f", "\v", "\x1c", "\x85", "\u2028", "\n\n"]
        words = ["0 1", "# note", "", "  2 3 ", "#", "x"]
        text = "".join(rng.choice(words) + rng.choice(breaks) for _ in range(60_000))
        assert len(text) > 2 * simpletri.io._PIECE
        assert list(_significant_lines(text)) == whole_text_lines(text)
        for piece in (1, 2, 3, 7):
            monkeypatch.setattr(simpletri.io, "_PIECE", piece)
            assert list(_significant_lines(text[:3_000])) == whole_text_lines(text[:3_000])

    @given(graphs(max_n=7))
    @settings(max_examples=60)
    def test_round_trip(self, g):
        parsed = parse_graph(graph_to_text(g))
        assert parsed == g and hash(parsed) == hash(g)


class TestParseOrder:
    def test_two_plus_two(self):
        assert parse_order(TWO_PLUS_TWO_TEXT) == make_partial_order(
            4, [(0, 2), (1, 3)]
        )

    def test_cycle_error(self):
        with pytest.raises(CycleError):
            parse_order("2\n0 < 1\n1 < 0\n")

    def test_closure_taken(self):
        p = parse_order("3\n0 < 1\n1 < 2\n")
        assert (0, 2) in p.pairs

    def test_parse_error(self):
        with pytest.raises(ParseError):
            parse_order("3\n0 1\n")

    @given(partial_orders(max_n=7))
    @settings(max_examples=60)
    def test_round_trip(self, p):
        assert parse_order(order_to_text(p)) == p


class TestRepresentationFormats:
    def test_single_vertex_golden(self):
        t = TriangleRepresentation((1,), ((1, 2),))
        assert (
            emit_representation(t)
            == '{"version":1,"triangles":[{"v":0,"apex":1,"base":[1,2]}]}'
        )

    def test_round_trip(self):
        t = TriangleRepresentation((1, 3, 2), ((1, 4), (2, 6), (5, 7)))
        assert parse_representation(emit_representation(t)) == t

    def test_document_order_ascending(self):
        t = TriangleRepresentation((2, 1), ((3, 4), (1, 2)))
        doc = json.loads(emit_representation(t))
        assert [entry["v"] for entry in doc["triangles"]] == [0, 1]

    def test_svg_shape(self):
        t = TriangleRepresentation((1, 2), ((1, 3), (2, 4)))
        svg = emit_representation(t, "svg")
        assert svg.startswith("<svg")
        assert svg.count("<polygon") == 2
        assert svg.count("<line") == 2

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_representation(TriangleRepresentation((1,), ((1, 2),)), "png")

    @pytest.mark.parametrize(
        "entries",
        [
            [1],
            [{"v": 0, "base": [1, 2]}],
            [{"v": 0, "apex": 1}],
            [{"v": 0, "apex": 1, "base": [1]}],
            [{"v": 0, "apex": 1, "base": [1, 2, 3]}],
            [{"v": 0, "apex": 1, "base": "12"}],
            [{"v": 0, "apex": 1, "base": [1, "2"]}],
            [{"v": 0, "apex": 1, "base": [2, 2]}],
            [{"v": 0, "apex": 1, "base": [3, 1]}],
            [{"v": 0, "apex": "x", "base": [1, 2]}],
            [{"v": 0, "apex": True, "base": [1, 2]}],
            [{"v": 0, "apex": 1.0, "base": [1, 2]}],
            [{"v": 0, "apex": 1, "base": [False, 2]}],
            [{"v": False, "apex": 1, "base": [1, 2]}],
            [{"v": 0, "apex": 1, "base": [1, 2]}, {"v": 1, "apex": 1, "base": [3, 4]}],
        ],
    )
    def test_malformed_entry(self, entries):
        with pytest.raises(ParseError):
            parse_representation(json.dumps({"version": 1, "triangles": entries}))

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000 + "]" * 100_000,
            '{"version":1,"triangles":[{"v":0,"apex":' + "1" * 5000 + ',"base":[1,2]}]}',
            '{"version":true,"triangles":[]}',
            '{"version":1.0,"triangles":[]}',
        ],
        ids=["deep-nesting", "long-integer", "version-true", "version-float"],
    )
    def test_malformed_document(self, text):
        with pytest.raises(ParseError):
            parse_representation(text)


# Text over the characters the formats use gets past the count line often;
# arbitrary text mostly exercises the first line.
FORMAT_TEXT = st.text(alphabet="0123456789 <#-_\n", max_size=80) | st.text(max_size=80)
SMALL_VALUES = st.integers(-2, 8) | st.booleans() | st.floats(-2, 8) | st.text(max_size=2)
JSON_VALUES = st.recursive(
    st.none() | SMALL_VALUES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
ENTRIES = st.fixed_dictionaries(
    {},
    optional={
        "v": SMALL_VALUES,
        "apex": SMALL_VALUES,
        "base": st.lists(SMALL_VALUES, max_size=3) | JSON_VALUES,
    },
)
DOCUMENTS = st.fixed_dictionaries(
    {
        "version": st.sampled_from([1, True, 1.0, 2, "1"]),
        "triangles": st.lists(ENTRIES | JSON_VALUES, max_size=4) | JSON_VALUES,
    }
).map(json.dumps)


class TestParserFuzz:
    """Any input parses to a valid object or raises the documented error."""

    @given(FORMAT_TEXT)
    @settings(max_examples=200)
    def test_parse_graph(self, text):
        try:
            g = parse_graph(text)
        except ParseError:
            return
        assert isinstance(g, Graph)

    @given(FORMAT_TEXT)
    @settings(max_examples=200)
    def test_parse_order(self, text):
        try:
            p = parse_order(text)
        except (ParseError, CycleError):
            return
        assert isinstance(p, PartialOrder)

    @given(FORMAT_TEXT | JSON_VALUES.map(json.dumps) | DOCUMENTS)
    @settings(max_examples=300)
    def test_parse_representation(self, text):
        try:
            t = parse_representation(text)
        except ParseError:
            return
        assert isinstance(t, TriangleRepresentation)


@pytest.fixture()
def c4_file(tmp_path):
    path = tmp_path / "c4.graph"
    path.write_text(C4_TEXT)
    return str(path)


@pytest.fixture()
def c5_file(tmp_path):
    path = tmp_path / "c5.graph"
    path.write_text(C5_TEXT)
    return str(path)


@pytest.fixture()
def empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("0\n")
    return str(path)


class TestCliRecognize:
    def test_accept(self, c4_file, capsys):
        assert main(["recognize", c4_file]) == 0
        assert capsys.readouterr().out.strip() == "0 2 1 3"

    def test_reject(self, c5_file, capsys):
        assert main(["recognize", c5_file]) == 1
        assert "not a simple-triangle graph" in capsys.readouterr().out

    def test_accept_realizes_nothing(self, c4_file, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("realize called")

        monkeypatch.setattr(recognition, "realize", refuse)
        assert main(["recognize", c4_file]) == 0
        assert capsys.readouterr().out.strip() == "0 2 1 3"

    def test_reject_with_witness(self, c5_file, capsys):
        assert main(["recognize", "--witness", c5_file]) == 1
        out = capsys.readouterr().out
        assert "rejected prefix" in out
        assert "cpc" in out or "p1" in out or "p2" in out

    def test_quiet(self, c4_file, capsys):
        assert main(["--quiet", "recognize", c4_file]) == 0
        assert capsys.readouterr().out == ""

    def test_stdin(self, capsys, monkeypatch):
        import io as _io

        monkeypatch.setattr("sys.stdin", _io.StringIO(C4_TEXT))
        assert main(["recognize", "-"]) == 0

    def test_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("2\n0 0\n")
        assert main(["recognize", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["recognize", "/nonexistent/g.graph"]) == 2

    @pytest.mark.parametrize("command", [["recognize"], ["order", "recognize"]])
    def test_huge_vertex_count(self, command, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("99999999999\n")
        assert main([*command, str(path)]) == 2
        assert "size must be in" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["recognize"], ["order", "recognize"]])
    def test_not_utf8(self, command, tmp_path, capsys):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xff\xfe3\n0 1\n")
        assert main([*command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command, text", [
        (["recognize"], C4_TEXT), (["order", "recognize"], CROWN_TEXT)])
    def test_leading_byte_order_mark_is_dropped(self, command, text, tmp_path, capsys,
                                                monkeypatch):
        import io as _io

        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        code = main([*command, str(plain)])
        expected = capsys.readouterr()
        assert main([*command, str(marked)]) == code
        assert capsys.readouterr() == expected
        monkeypatch.setattr("sys.stdin", _io.StringIO("\ufeff" + text))
        assert main([*command, "-"]) == code
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("load, text", [
        (simpletri.io.load_graph, "\ufeff\ufeff2\n0 1\n"),
        (simpletri.io.load_graph, "\ufeff2\n\ufeff0 1\n"),
        (simpletri.io.load_order, "\ufeff# a mark after this one\n2\n0 < 1\ufeff\n"),
    ])
    def test_byte_order_mark_elsewhere_is_a_parse_error(self, load, text, tmp_path):
        path = tmp_path / "marks.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load(str(path))
        assert info.value.line == text.count("\n", 0, text.rindex("\ufeff")) + 1


class TestCliRepresent:
    def test_structured_stdout(self, c4_file, capsys):
        assert main(["represent", c4_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert len(doc["triangles"]) == 4

    def test_svg_to_file(self, c4_file, tmp_path, capsys):
        out = tmp_path / "c4.svg"
        assert main(["represent", c4_file, "-o", str(out), "--format", "svg"]) == 0
        assert out.read_text().startswith("<svg")

    def test_reject(self, c5_file, capsys):
        assert main(["represent", c5_file]) == 1

    def test_document_realizes_c4(self, c4_file, capsys):
        assert main(["represent", c4_file]) == 0
        rep = parse_representation(capsys.readouterr().out)
        assert verify_representation(cycle_graph(4), rep)

    def test_empty_graph(self, empty_file, capsys):
        # the empty graph's apex ordering is (), which is falsy
        assert main(["represent", empty_file]) == 0
        assert capsys.readouterr().out == '{"version":1,"triangles":[]}\n'


@pytest.fixture()
def no_search(monkeypatch):
    """Make the ordering search of ``recognition`` fail if anything runs it."""

    def refuse(*args):
        raise AssertionError("search_orderings called")

    monkeypatch.setattr(recognition, "search_orderings", refuse)


@pytest.mark.parametrize("command", [["represent"], ["oracle", "verify"]])
def test_realizing_commands_do_not_search_orderings(command, c4_file, no_search, capsys):
    assert main([*command, c4_file]) == 0


class TestEmptyOrdering:
    """``''`` is the one ordering of zero elements, and no other."""

    def test_check_ordering(self, empty_file, capsys):
        assert main(["check-ordering", empty_file, ""]) == 0
        assert "apex ordering: yes" in capsys.readouterr().out

    def test_order_intervals(self, empty_file, capsys):
        assert main(["order", "intervals", empty_file, ""]) == 0
        assert capsys.readouterr().out == "intervals: \n"

    @pytest.mark.parametrize("command", [["check-ordering"], ["order", "intervals"]])
    def test_one_element_needs_its_element(self, command, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("1\n")
        assert main([*command, str(path), ""]) == 2
        assert "not a permutation" in capsys.readouterr().err


class TestCliCheckOrdering:
    def test_accepted(self, c4_file, capsys):
        assert main(["check-ordering", c4_file, "0,2,1,3"]) == 0
        out = capsys.readouterr().out
        assert "cocomparability: yes" in out
        assert "C4 rule: yes" in out
        assert "cpc: none" in out
        assert "apex ordering: yes" in out

    def test_rejected(self, c4_file, capsys):
        assert main(["check-ordering", c4_file, "0,1,2,3"]) == 1
        out = capsys.readouterr().out
        assert "C4 rule: no" in out
        assert "p2: 0,1,2,3" in out

    def test_bad_ordering(self, c4_file, capsys):
        assert main(["check-ordering", c4_file, "0,1,2"]) == 2

    def test_prints_what_the_reference_scans_give(self, small_graphs, tmp_path, capsys):
        """Every ordering of every graph with n <= 4, then seeded graphs with
        n = 6-12, every other one the intersection graph of random triangles
        so that it has apex orderings, each under the identity, its
        ``apex_ordering`` when it has one, and one adjacent swap of the last
        of these: the command prints and exits as the tuple scan and the C4
        rule's cycle definition say, though it scans only what building
        rejects."""
        rng = random.Random(20261019)
        path = tmp_path / "g.graph"
        cases = [(g, permutations(range(n))) for n in range(5) for g in small_graphs[n]]
        for i in range(30):
            n = rng.randint(6, 12)
            g = triangle_graph(rng, n) if i % 2 else Graph.from_edges(
                n, [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            )
            orderings = [tuple(range(n))]
            apex = recognition.apex_ordering(g)
            if apex is not None:
                orderings.append(apex)
            k = rng.randrange(n - 1)
            last = orderings[-1]
            orderings.append((*last[:k], last[k + 1], last[k], *last[k + 2:]))
            cases.append((g, orderings))
        exits, seen = [], set()
        for g, orderings in cases:
            path.write_text(graph_to_text(g))
            for sigma in orderings:
                witnesses = {name: scan_pattern(g, sigma, pat) for name, pat in APEX_PATTERNS}
                accepted = all(w is None for w in witnesses.values())
                expected = [
                    f"cocomparability: {'yes' if witnesses['cpc'] is None else 'no'}",
                    f"C4 rule: {'yes' if c4_rule_by_cycles(g, sigma) else 'no'}",
                    *(f"{name}: " + ("none" if w is None else ",".join(map(str, w)))
                      for name, w in witnesses.items()),
                    f"apex ordering: {'yes' if accepted else 'no'}",
                ]
                exits.append(main(["check-ordering", str(path), ",".join(map(str, sigma))]))
                assert capsys.readouterr().out == "".join(line + "\n" for line in expected)
                assert exits[-1] == (0 if accepted else 1), (sorted(g.edges), sigma)
                seen.update(line for line in expected if "none" not in line)
        assert set(exits) == {0, 1}
        assert {"C4 rule: yes", "C4 rule: no"} <= seen
        assert {name for name, _ in APEX_PATTERNS} <= {line.split(":")[0] for line in seen}


def triangle_graph(rng, n):
    """Intersection graph of n random triangles between two lines: two are
    disjoint when one lies left of the other on both lines."""
    apex = rng.sample(range(n), n)
    points = rng.sample(range(2 * n), 2 * n)
    base = [sorted(points[2 * v:2 * v + 2]) for v in range(n)]

    def left(u, v):
        return apex[u] < apex[v] and base[u][1] < base[v][0]

    return Graph.from_edges(
        n, [(u, v) for u, v in combinations(range(n), 2) if not (left(u, v) or left(v, u))]
    )


class TestCliOrder:
    def test_recognize_accept(self, tmp_path, capsys):
        path = tmp_path / "tt.order"
        path.write_text(TWO_PLUS_TWO_TEXT)
        assert main(["order", "recognize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "extension: 0 2 1 3" in out
        assert "intervals: 0:[1,4] 1:[1,2] 2:[5,6] 3:[3,4]" in out

    def test_recognize_reject(self, tmp_path, capsys):
        path = tmp_path / "crown.order"
        path.write_text(CROWN_TEXT)
        assert main(["order", "recognize", str(path)]) == 1
        out = capsys.readouterr().out
        assert "not a linear-interval order" in out
        assert "anticycle a:" in out

    def test_intervals_accept(self, tmp_path, capsys):
        path = tmp_path / "tt.order"
        path.write_text(TWO_PLUS_TWO_TEXT)
        assert main(["order", "intervals", str(path), "0,2,1,3"]) == 0
        assert "intervals: 0:[1,4] 1:[1,2] 2:[5,6] 3:[3,4]" in capsys.readouterr().out

    def test_intervals_stall(self, tmp_path, capsys):
        path = tmp_path / "tt.order"
        path.write_text(TWO_PLUS_TWO_TEXT)
        assert main(["order", "intervals", str(path), "0,1,2,3"]) == 1
        out = capsys.readouterr().out
        assert "anticycle a: 0 1" in out
        assert "anticycle b: 2 3" in out

    def test_intervals_not_an_extension(self, tmp_path, capsys):
        path = tmp_path / "tt.order"
        path.write_text(TWO_PLUS_TWO_TEXT)
        assert main(["order", "intervals", str(path), "2,0,1,3"]) == 2

    def test_cyclic_input(self, tmp_path, capsys):
        path = tmp_path / "cyc.order"
        path.write_text("2\n0 < 1\n1 < 0\n")
        assert main(["order", "recognize", str(path)]) == 2

    @pytest.mark.parametrize("crown, code", [(False, 0), (True, 1)], ids=["chain", "crown"])
    def test_recognize_deeper_than_the_recursion_limit(self, crown, code, tmp_path, capsys):
        # 1,200 elements in a chain, or a 1,194-element chain above the
        # 3-crown: the search places more elements than Python's default
        # recursion limit of 1,000 would allow nested calls
        n, bottom = 1200, 6 if crown else 0
        lines = CROWN_TEXT.splitlines()[1:] if crown else []
        lines += [f"{u} < {bottom}" for u in range(bottom)]
        lines += [f"{v} < {v + 1}" for v in range(bottom, n - 1)]
        path = tmp_path / "deep.order"
        path.write_text(f"{n}\n" + "\n".join(lines) + "\n")
        assert main(["order", "recognize", str(path)]) == code
        assert capsys.readouterr().err == ""


class TestCliOracle:
    def test_verify_accepted(self, c4_file, capsys):
        assert main(["oracle", "verify", c4_file]) == 0
        out = capsys.readouterr().out
        assert "recognize: accept" in out
        assert "geometric search: realizable" in out
        assert "agreement: ok" in out

    def test_verify_empty_graph(self, empty_file, capsys):
        assert main(["oracle", "verify", empty_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "recognize: accept"
        assert out[-1] == "agreement: ok"

    def test_verify_rejected_still_agrees(self, c5_file, capsys):
        assert main(["oracle", "verify", c5_file]) == 0
        out = capsys.readouterr().out
        assert "recognize: reject" in out
        assert "geometric search: none" in out
        assert "agreement: ok" in out

    def test_verify_prism_rejected_by_step_two(self, tmp_path, capsys):
        # the prism's complement, C6, is a comparability graph, so the
        # rejection comes from the apex-ordering step
        path = tmp_path / "prism.graph"
        path.write_text("6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n0 3\n1 4\n2 5\n")
        assert main(["oracle", "verify", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "recognize: reject",
            "geometric search: none",
            "alternating/transitive pair: no",
            "agreement: ok",
        ]

    def test_limit_enforced(self, tmp_path, capsys):
        path = tmp_path / "big.graph"
        path.write_text("7\n0 1\n")
        assert main(["--limit", "5", "oracle", "verify", str(path)]) == 2
        # refused before the recognizer runs, so no verdict line precedes the error
        assert capsys.readouterr() == ("", "error: n=7 exceeds oracle limit 5\n")

    def test_limit_raised(self, tmp_path, capsys):
        path = tmp_path / "p2.graph"
        path.write_text("2\n0 1\n")
        assert main(["--limit", "2", "oracle", "verify", str(path)]) == 0

    def test_limit_eleven_is_refused_before_any_mask(self, tmp_path, capsys):
        path = tmp_path / "eleven.graph"
        path.write_text("11\n0 1\n")
        before = oracles._before_masks.cache_info()
        assert main(["--limit", "11", "oracle", "verify", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: n=11 exceeds oracle limit 10\n")
        assert oracles._before_masks.cache_info() == before

    def test_limit_ten_runs_every_oracle(self, tmp_path, capsys):
        # the prism plus four isolated, then four universal vertices: rejected,
        # with a transitive complement, so the geometric search has kept
        # orderings to solve; the universal ones keep 483,840 of them
        prism = "0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n0 3\n1 4\n2 5\n"
        universal = "".join(f"{u} {v}\n" for v in range(6, 10) for u in range(v))
        for text in (prism, prism + universal):
            path = tmp_path / "prism4.graph"
            path.write_text("10\n" + text)
            assert main(["--limit", "10", "oracle", "verify", str(path)]) == 0
            out = capsys.readouterr().out.splitlines()
            assert out[:3] == [
                "recognize: reject",
                "geometric search: none",
                "alternating/transitive pair: no",
            ]
            assert out[-1] == "agreement: ok"

    def test_alternating_mask_is_built_once_per_verify(self, c4_file, capsys, monkeypatch):
        # the pair oracle and the extend oracle both read the alternating
        # orderings, which an accepted verify builds once from the cycle P3s
        calls = []
        cycle_p3s = oracles._cycle_p3s
        monkeypatch.setattr(oracles, "_cycle_p3s", lambda g: calls.append(g) or cycle_p3s(g))
        oracles._alternating_orderings.cache_clear()
        assert main(["oracle", "verify", c4_file]) == 0
        assert "complement orientations extend: yes" in capsys.readouterr().out
        assert len(calls) == 1

    def test_limit_seven_rebuilds_the_masks(self, tmp_path, capsys):
        # the oracles keep one size's masks, so 6, 7, 6 vertices build them three times
        six, seven = tmp_path / "c4k2.graph", tmp_path / "c4tail.graph"
        six.write_text("6\n0 1\n1 2\n2 3\n3 0\n4 5\n")
        seven.write_text("7\n0 1\n1 2\n2 3\n3 0\n3 4\n4 5\n5 6\n")
        accepted = [
            "recognize: accept",
            "geometric search: realizable",
            "alternating/transitive pair: yes",
            "complement orientations extend: yes",
            "agreement: ok",
        ]
        oracles._before_masks.cache_clear()
        for path in (six, seven, six):
            assert main(["--limit", "7", "oracle", "verify", str(path)]) == 0
            assert capsys.readouterr().out.splitlines() == accepted
        assert oracles._before_masks.cache_info().misses == 3


def _outcome(argv, capsys):
    """stdout, stderr and exit code of ``main(argv)``, argparse exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return capsys.readouterr(), code


@pytest.fixture()
def parsers_built(monkeypatch):
    """A list that records each ``argparse.ArgumentParser`` constructed."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


GRAPH, ORDER = "<graph>", "<order>"


class TestParserNarrowing:
    """``main`` builds only the branch of the command tree its argv names."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["-h"],
            ["--help"],
            *([*command, "-h"] for command in [
                ["recognize"], ["represent"], ["check-ordering"], ["order"],
                ["order", "recognize"], ["order", "intervals"], ["oracle"], ["oracle", "verify"],
            ]),
            ["-h", "recognize", GRAPH],
            ["--quiet", "-h", "oracle", "verify", GRAPH],
            [],
            ["frobnicate"],
            ["order", "frobnicate"],
            ["recognize"],
            ["order"],
            ["order", "intervals", ORDER],
            ["represent", GRAPH, "--format", "png"],
            ["--limit", "x", "recognize", GRAPH],
            ["--quiet", "recognize", GRAPH],
            ["--limit=7", "oracle", "verify", GRAPH],
            ["--limit", "3", "order", "recognize", ORDER],
            ["--seed", "3", "order", "recognize", ORDER],
            ["--lim", "5", "recognize", GRAPH],
            ["--limit", "-h", "recognize", GRAPH],
            ["--limit", "recognize", "recognize", GRAPH],
            ["--limit", "--", "recognize", GRAPH],
            ["--quiet=1", "recognize", GRAPH],
            ["--", "recognize", GRAPH],
            ["recognize", GRAPH, "--limit", "5"],
            ["recognize", GRAPH, "--seed", "3"],
            ["order", "recognize", ORDER, "extra"],
        ],
        ids=lambda argv: " ".join(argv) or "no arguments",
    )
    def test_narrow_tree_parses_like_the_full_tree(self, argv, c4_file, tmp_path, capsys, monkeypatch):
        order = tmp_path / "tt.order"
        order.write_text(TWO_PLUS_TWO_TEXT)
        argv = [{GRAPH: c4_file, ORDER: str(order)}.get(token, token) for token in argv]
        narrow = _outcome(argv, capsys)
        # the full tree: every level built as if argv named no command
        add = cli._add_command
        monkeypatch.setattr(cli, "_add_command", lambda *args: add(*args[:3], ()))
        assert _outcome(argv, capsys) == narrow

    @pytest.mark.parametrize(
        "command, built",
        [(["recognize"], 2), (["order", "recognize"], 3), (["oracle", "verify"], 3), (["-h"], 9)],
        ids=["recognize", "order recognize", "oracle verify", "help"],
    )
    def test_parsers_built_per_call(self, command, built, c4_file, parsers_built, capsys):
        _outcome([*command, c4_file], capsys)
        assert len(parsers_built) == built

    def test_console_script_reads_sys_argv(self, c4_file, c5_file, parsers_built, capsys, monkeypatch):
        for path, code in ((c4_file, 0), (c5_file, 1)):
            assert main(["--limit", "2", "recognize", path]) == code
            expected = capsys.readouterr()
            parsers_built.clear()
            monkeypatch.setattr(sys, "argv", ["simpletri", "--limit", "2", "recognize", path])
            assert main() == code
            assert capsys.readouterr() == expected
            assert len(parsers_built) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--seed", "3", "recognize", GRAPH], "argument command: invalid choice: '3'"),
            (["recognize", GRAPH, "--seed", "3"], "unrecognized arguments: --seed 3"),
        ],
        ids=["before the command", "after the command"],
    )
    def test_seed_is_no_option(self, argv, message, c4_file, capsys):
        (out, err), code = _outcome([{GRAPH: c4_file}.get(token, token) for token in argv], capsys)
        assert (code, out) == (2, "")
        assert f"simpletri: error: {message}" in err

    def test_help_lists_only_limit_and_quiet(self, capsys):
        (out, _), code = _outcome(["--help"], capsys)
        assert code == 0
        options = out.split("options:\n", 1)[1].splitlines()
        assert [line.split()[0] for line in options] == ["-h,", "--limit", "--quiet"]

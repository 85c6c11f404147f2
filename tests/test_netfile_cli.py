import json
import time
from unittest import mock

import pytest

from perigraph import cycles
from perigraph.cli import build_parser, run_command
from perigraph.data import fixture_path
from perigraph.quotient import GraphError
from perigraph.netfile import (FormatError, emit_net, emit_polytope,
                               parse_net, parse_polytope)


def test_net_roundtrip(wakatsuki, dia, z3):
    for g in (wakatsuki, dia, z3):
        again = parse_net(emit_net(g))
        assert again.rank == g.rank
        assert again.class_names == g.class_names
        assert sorted((e.src, e.tgt, e.vector, e.weight)
                      for e in again.edges) == \
            sorted((e.src, e.tgt, e.vector, e.weight) for e in g.edges)
        assert again.realization == g.realization


def test_net_undirected_representatives(wakatsuki):
    text = emit_net(wakatsuki)
    lines = [l for l in text.splitlines() if l.startswith("edge")]
    assert len(lines) == len(wakatsuki.edges) // 2


def test_net_zero_vector_loop_self_reverse():
    g = parse_net("format: pgnet/1\nrank: 1\nundirected: true\n"
                  "class: a\nedge: a a 0 1\n")
    assert len(g.edges) == 1
    assert g.edges[0].reverse == 0


def test_net_errors():
    with pytest.raises(FormatError):
        parse_net("rank: 1\nclass: a\n")  # missing format line
    with pytest.raises(FormatError):
        parse_net("format: pgnet/1\nrank: 1\nedge: a a 1 1\n")  # no class
    with pytest.raises(FormatError):
        parse_net("format: pgnet/1\nrank: 2\nclass: a\nedge: a a 1 1\n")
    with pytest.raises(FormatError):
        parse_net("format: pgnet/9\nrank: 1\nclass: a\n")


NO_RANK_POLY = "format: pgpoly/1\nvertex: 0 0\nvertex: 1\nvertex: 0 1 2\n"
ZERO_DEN_NET = "format: pgnet/1\nrank: 1\nclass: a 1/0\nedge: a a 1 1\n"
ZERO_DEN_POLY = "format: pgpoly/1\nrank: 2\nvertex: 0 0\nvertex: 1/0 1\n"
BAD_INT_NET = "format: pgnet/1\nrank: 1\nclass: a\nedge: a a x 1\n"
BAD_RANK_POLY = "format: pgpoly/1\nrank: 2.0\nvertex: 0 0\n"
HUGE_POLY = ("format: pgpoly/1\nrank: 2\nvertex: 99999999999/7 0\n"
             "vertex: 0 1\nvertex: 0 -1\nvertex: -1 0\n")


def test_zero_denominator_names_the_line():
    with pytest.raises(FormatError, match="line 3: bad coordinate '1/0'"):
        parse_net(ZERO_DEN_NET)
    with pytest.raises(FormatError, match=r"line 3: .*'1/2\+1/0\*sqrt\(2\)'"):
        parse_net(ZERO_DEN_NET.replace("1/0", "1/2+1/0*sqrt(2)"))
    with pytest.raises(FormatError, match="line 4: bad coordinate '1/0'"):
        parse_polytope(ZERO_DEN_POLY)


def test_integer_fields_name_the_line():
    with pytest.raises(FormatError, match="^line 2: bad rank 'x'$"):
        parse_net("format: pgnet/1\nrank: x\nclass: a\n")
    with pytest.raises(FormatError, match="^line 4: bad vector entry 'x'$"):
        parse_net(BAD_INT_NET)
    with pytest.raises(FormatError, match="^line 4: bad weight '1/2'$"):
        parse_net(BAD_INT_NET.replace("x 1", "1 1/2"))
    with pytest.raises(FormatError, match="^line 2: bad rank '2.0'$"):
        parse_polytope(BAD_RANK_POLY)


def test_polytope_errors():
    with pytest.raises(FormatError, match="missing rank"):
        parse_polytope(NO_RANK_POLY)
    with pytest.raises(FormatError, match="at least 1"):
        parse_polytope("format: pgpoly/1\nrank: 0\nvertex:\n")
    with pytest.raises(FormatError, match="line 4: vertex has wrong length"):
        parse_polytope("format: pgpoly/1\nvertex: 0 0\nrank: 2\n"
                       "vertex: 1\n")


def test_polytope_roundtrip(square_poly):
    poly, name = parse_polytope(emit_polytope(square_poly.vertices, "sq"))
    assert name == "sq"
    assert poly.vertices == square_poly.vertices


def test_cli_growth_text(capsys):
    rc = run_command(["growth", str(fixture_path("z2.net")), "--terms", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "s: 1 4 8 12 16" in out
    assert "b: 1 5 13 25 41" in out


def test_cli_growth_json(capsys):
    rc = run_command(["growth", str(fixture_path("wakatsuki.net")),
                      "--start", "v0", "--terms", "4", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["s"] == [1, 4, 8, 13]
    assert data["b"] == [1, 5, 13, 26]


def test_cli_polytope(capsys):
    rc = run_command(["polytope", str(fixture_path("wakatsuki.net")),
                      "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["volume"] == "3/4"
    assert len(data["vertices"]) == 6


def test_cli_invariants(capsys):
    rc = run_command(["invariants", str(fixture_path("dia.net")),
                      "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["c1"] == "1/2" and data["c2"] == "1/2"
    assert data["p_initial"] is True
    assert data["strongly_connected"] is True


def test_cli_wellarranged_exit_codes(capsys):
    assert run_command(["wellarranged", str(fixture_path("z2.net"))]) == 0
    assert run_command(["wellarranged", str(fixture_path("wakatsuki.net")),
                        "--start", "v2"]) == 1


def test_cli_series(capsys):
    rc = run_command(["series", str(fixture_path("z1.net")),
                      "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["well_arranged"] == "well-arranged"
    assert data["reciprocity_s"] is True


def test_cli_series_explicit_denominator(capsys):
    rc = run_command(["series", str(fixture_path("wakatsuki.net")),
                      "--start", "v2", "--denominator", "1 0 -2 0 1",
                      "--terms", "30", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["reciprocity_s"] is False


def test_cli_density(capsys):
    rc = run_command(["density", str(fixture_path("wakatsuki.net")),
                      "--format", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["density"] == "9/2"


def test_cli_ehrhart(capsys):
    rc = run_command(["ehrhart", str(fixture_path("square.poly")),
                      "--terms", "5", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["counts"] == [1, 9, 25, 49, 81]
    assert data["reciprocity"] is True


def test_cli_gammaq(tmp_path, capsys):
    out = tmp_path / "g.net"
    rc = run_command(["gammaq", str(fixture_path("reflexive_triangle.poly")),
                      "-o", str(out), "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["reflexive"] is True and data["strongly_connected"] is True
    g = parse_net(out.read_text())
    assert g.num_classes == 1


def test_cli_errors(capsys, tmp_path):
    assert run_command(["growth", str(tmp_path / "missing.net")]) == 2
    bad = tmp_path / "bad.net"
    bad.write_text("format: pgnet/1\nrank: x\n")
    assert run_command(["growth", str(bad)]) == 2
    assert run_command(["growth", str(fixture_path("wakatsuki.net")),
                        "--start", "nope"]) == 2


@pytest.mark.parametrize("argv", [
    ["growth", "z2.net", "--start", "o:1"],
    ["wellarranged", "z2.net", "--start", "o:1,2,3"],
    ["growth", "z2.net", "--terms", "0"],
    ["growth", "z2.net", "--terms", "-3"],
    ["ehrhart", "square.poly", "--alpha", "1/0"],
    ["series", "z2.net", "--denominator", "0"],
    ["ehrhart", "square.poly", "--shift", "1/2"],
    ["ehrhart", "square.poly", "--shift", "1/2,0,5"],
    ["ehrhart", "no_rank.poly"],
    ["growth", "zero_den.net"],
    ["ehrhart", "zero_den.poly"],
    ["ehrhart", "square.poly", "--terms", "0"],
    ["ehrhart", "square.poly", "--terms", "-3"],
    ["series", "z2.net", "--terms", "0"],
    ["series", "z2.net", "--terms", "12", "--guard", "-5"],
    ["series", "z2.net", "--guard", "0"],
    ["growth", "bad_int.net"],
    ["ehrhart", "bad_rank.poly"],
    ["growth", "z2.net", "--start", "o:1,x"],
])
def test_cli_bad_input_exits_2(argv, tmp_path, capsys):
    for name, text in (("no_rank.poly", NO_RANK_POLY),
                       ("zero_den.net", ZERO_DEN_NET),
                       ("zero_den.poly", ZERO_DEN_POLY),
                       ("bad_int.net", BAD_INT_NET),
                       ("bad_rank.poly", BAD_RANK_POLY)):
        (tmp_path / name).write_text(text)
    path = tmp_path / argv[1]
    if not path.exists():
        path = fixture_path(argv[1])
    assert run_command([argv[0], str(path), *argv[2:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "invalid literal" not in err


def test_cli_bad_start_offset_names_the_flag(capsys):
    assert run_command(["growth", str(fixture_path("z2.net")),
                        "--start", "o:1,x"]) == 2
    assert capsys.readouterr().err == (
        "error: --start offset '1,x' must be integers\n")


def test_cli_gammaq_budget_exits_2(tmp_path, capsys):
    # about 4.1e13 loops: counted, not listed, and refused
    huge = tmp_path / "huge.poly"
    huge.write_text(HUGE_POLY)
    out = str(tmp_path / "g.net")
    assert run_command(["gammaq", str(huge), "-o", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # the triangle has 4 + 10 loops
    triangle = str(fixture_path("reflexive_triangle.poly"))
    assert run_command(["gammaq", triangle, "-o", out,
                        "--max-states", "13"]) == 2
    assert "14 loops" in capsys.readouterr().err
    assert run_command(["gammaq", triangle, "-o", out,
                        "--max-states", "14"]) == 0
    # its strong-connectivity test enumerates the 14 loops as cycles
    capsys.readouterr()
    assert run_command(["gammaq", triangle, "-o", out,
                        "--max-cycles", "13"]) == 2
    assert "cycle enumeration exceeded" in capsys.readouterr().err


def test_cli_ehrhart_budget_exits_2(capsys):
    # period 300001: the fit would count 6 * 300001 dilations
    square = str(fixture_path("square.poly"))
    t0 = time.perf_counter()
    assert run_command(["ehrhart", square, "--alpha=1/300001",
                        "--max-states", "1000"]) == 2
    assert time.perf_counter() - t0 < 10
    assert capsys.readouterr().err == (
        "error: the fit counts 1800006 dilations, over the budget of 1000 "
        "states\n")
    # period 2: 12 dilations
    assert run_command(["ehrhart", square, "--alpha=1/2",
                        "--max-states", "11"]) == 2
    assert "12 dilations" in capsys.readouterr().err
    assert run_command(["ehrhart", square, "--alpha=1/2",
                        "--max-states", "12"]) == 0


def test_cli_budget_overrun_exits_2(capsys):
    assert run_command(["growth", str(fixture_path("z3.net")), "--terms", "40",
                        "--max-states", "100"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["wellarranged", "series", "density"])
def test_cli_max_cycles_exits_2(command, capsys):
    # dia has 16 cycles
    assert run_command([command, str(fixture_path("dia.net")),
                        "--max-cycles", "1"]) == 2
    assert "cycle enumeration exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["invariants", "series", "wellarranged"])
def test_cli_lists_cycles_once(command, capsys):
    with mock.patch.object(cycles, "_enumerate",
                           wraps=cycles._enumerate) as listing:
        assert run_command([command, str(fixture_path("dia.net"))]) == 0
    assert listing.call_count == 1


@pytest.mark.parametrize("command, name", [
    ("polytope", "dia.net"), ("invariants", "dia.net"),
    ("wellarranged", "dia.net"), ("series", "wakatsuki.net"),
    ("density", "dia.net"), ("gammaq", "reflexive_triangle.poly")])
def test_cli_max_cycles_reaches_every_listing(command, name, tmp_path,
                                              capsys):
    argv = [command, str(fixture_path(name)), "--max-cycles", "2000000"]
    if command == "gammaq":
        argv += ["-o", str(tmp_path / "g.net")]
    with mock.patch.object(cycles, "_data", wraps=cycles._data) as data:
        assert run_command(argv) == 0
    assert data.call_count
    assert {call.args[1] for call in data.call_args_list} == {2_000_000}


# an undirected net whose quotient is disconnected, and one without a
# realization; each has more than one cycle
SPLIT_NET = ("format: pgnet/1\nrank: 1\nundirected: true\nclass: a 0\n"
             "class: b 1/2\nedge: a a 1 1\nedge: b b 1 1\n")
BARE_NET = ("format: pgnet/1\nrank: 2\nundirected: true\nclass: o\n"
            "edge: o o 1 0 1\nedge: o o 0 1 1\n")
# a directed net whose periodic graph is strongly connected, with two cycles
LOOPS_NET = ("format: pgnet/1\nrank: 1\nundirected: false\nclass: o 0\n"
             "edge: o o 1 1\nedge: o o -1 1\n")


@pytest.mark.parametrize("command, net, code, message", [
    # a directed net has no well-arranged witness, whatever its cycles
    ("wellarranged", "one_way", 1, "reason: graph is directed"),
    # the quotient is checked before any cycle is listed
    ("invariants", "one_way", 2, "asymptotic constants need a strongly"),
    ("density", "one_way", 2, "topological density needs a strongly"),
    ("wellarranged", "split", 2, "well-arranged search needs a strongly"),
    ("series", "split", 2, "well-arranged search needs a strongly"),
    # the well-arranged search asks for a realization first
    ("wellarranged", "bare", 2, "this computation needs a realization"),
    ("series", "bare", 2, "this computation needs a realization"),
    # the cycle budget still comes first where no earlier check refuses
    ("invariants", "bare", 2, "cycle enumeration exceeded 1 cycles"),
    ("series", "loops", 2, "cycle enumeration exceeded 1 cycles"),
    ("series", "one_way", 2, "growth series needs a strongly"),
    ("polytope", "split", 2, "cycle enumeration exceeded 1 cycles"),
])
def test_cli_checks_before_the_cycle_budget(command, net, code, message,
                                            tmp_path, capsys, one_way):
    texts = {"one_way": emit_net(one_way), "split": SPLIT_NET,
             "bare": BARE_NET, "loops": LOOPS_NET}
    path = tmp_path / f"{net}.net"
    path.write_text(texts[net])
    assert run_command([command, str(path), "--max-cycles", "1"]) == code
    out = capsys.readouterr()
    assert message in (out.out if code == 1 else out.err)


def test_series_refuses_a_net_that_is_not_strongly_connected(tmp_path,
                                                            one_way):
    net = tmp_path / "one_way.net"
    net.write_text(emit_net(one_way))
    for start in ("a", "b"):
        args = build_parser().parse_args(["series", str(net), "--start",
                                          start])
        with pytest.raises(GraphError, match="growth series needs a "
                           "strongly connected periodic graph"):
            args.func(args)


def test_cli_series_not_strongly_connected(tmp_path, capsys, one_way):
    net = tmp_path / "one_way.net"
    net.write_text(emit_net(one_way))
    for start in ("a", "b"):
        assert run_command(["series", str(net), "--start", start]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: growth series needs a strongly connected "
                           "periodic graph\n")
    # the well-arranged verdict on the directed net is unchanged
    assert run_command(["wellarranged", str(net)]) == 1
    assert "reason: graph is directed" in capsys.readouterr().out


def test_cli_density_not_strongly_connected(tmp_path, capsys, one_way):
    net = tmp_path / "one_way.net"
    net.write_text(emit_net(one_way))
    assert run_command(["density", str(net)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: topological density needs a strongly "
                       "connected periodic graph\n")


def test_cli_shared_parser_keeps_defaults(capsys):
    path = str(fixture_path("z2.net"))
    assert run_command(["growth", path, "--terms", "3",
                        "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["s"]) == 3
    assert run_command(["growth", path, "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["s"]) == 20


def test_cli_invariants_not_strongly_connected(tmp_path, capsys, one_way):
    net = tmp_path / "one_way.net"
    net.write_text(emit_net(one_way))
    for start in ("a", "b"):
        t0 = time.perf_counter()
        assert run_command(["invariants", str(net), "--start", start]) == 2
        assert time.perf_counter() - t0 < 5.0
    assert "strongly connected" in capsys.readouterr().err


def test_cli_plots(tmp_path, capsys):
    csv = tmp_path / "seq.csv"
    rc = run_command(["growth", str(fixture_path("z2.net")), "--terms", "4",
                      "--plot", str(csv)])
    assert rc == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "i,s_i,b_i"
    assert len(lines) == 5
    svg = tmp_path / "poly.svg"
    rc = run_command(["polytope", str(fixture_path("wakatsuki.net")),
                      "--plot", str(svg)])
    assert rc == 0
    assert svg.read_text().startswith("<svg")
    svg3 = tmp_path / "poly3.svg"
    rc = run_command(["polytope", str(fixture_path("dia.net")),
                      "--plot", str(svg3)])
    assert rc == 0
    assert "xy" in svg3.read_text()

"""Text formats, rendering, and the command-line pipeline."""

import importlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from xml.etree import ElementTree

import pytest

import untangling
from untangling import DistIcorInstance, ThreePartitionInstance, almost_planar, gen_fig5, gen_random, render_svg
from untangling.cli import main
from untangling.errors import FormatError
from untangling import generators, io_formats, reductions
from untangling.io_formats import (
    format_3p,
    format_drawing,
    format_icor,
    format_moves,
    parse_3p,
    parse_drawing,
    parse_icor,
    parse_moves,
)
from untangling.model import CircularDrawing, Graph, Untangling, VertexMove, crossing_pairs


def test_drawing_roundtrip():
    d = gen_fig5(8)
    text = format_drawing(d, comments=["hello"])
    back = parse_drawing(text)
    assert back.order == d.order
    assert {frozenset(e) for e in back.graph.edges} == {frozenset(e) for e in d.graph.edges}
    # one serialization pass canonicalizes; after that the round trip is the
    # byte identity (up to dropped comments)
    canonical = format_drawing(back)
    assert format_drawing(parse_drawing(canonical)) == canonical
    assert "# hello" in text and "# hello" not in canonical


def test_drawing_parse_tolerates_whitespace_and_comments():
    text = "# intro\n\n  vertices 3\norder  a b c\n edge a b\n# trailing\n"
    d = parse_drawing(text)
    assert d.order == ("a", "b", "c")
    assert d.graph.edges == frozenset({("a", "b")})


@pytest.mark.parametrize(
    "text",
    [
        "order a b\nedge a b\n",                      # missing vertices line
        "vertices 2\norder a a\n",                    # duplicate vertex
        "vertices 3\norder a b\n",                    # count mismatch
        "vertices 2\norder a b\nedge a c\n",          # unknown endpoint
        "vertices 2\norder a b\nwat a b\n",           # unknown keyword
    ],
)
def test_drawing_parse_errors(text):
    with pytest.raises(FormatError):
        parse_drawing(text)


@pytest.mark.parametrize(
    "parse, module, name, text",
    [
        (parse_drawing, io_formats, "Graph", "vertices 2\norder a b\nedge a b\n"),
        # the 3p and icor parsers import their instance types from
        # `reductions` when they run, so the types are looked up there
        (parse_3p, reductions, "ThreePartitionInstance", "3p 1 30 9 9 12\n"),
        (parse_icor, reductions, "DistIcorInstance", "icor 2\nchunk 1 2\n"),
    ],
    ids=["drawing", "3p", "icor"],
)
def test_parsers_let_foreign_errors_through(monkeypatch, parse, module, name, text):
    # only the package's own errors mean malformed input; anything else is a
    # bug and must not turn into FormatError (exit 2)
    def broken(*args, **kwargs):
        raise RuntimeError("not a format problem")

    monkeypatch.setattr(module, name, broken)
    with pytest.raises(RuntimeError):
        parse(text)


@pytest.mark.parametrize("names", [["a b", ""], ["a", ""], ["a b", "c"], ["a\tb", "c"], ["a\u2028b", "c"]])
def test_format_drawing_refuses_names_it_cannot_write(names):
    """A name that is empty or holds whitespace would read back as other
    vertices, or as none, so writing it is an error."""
    d = CircularDrawing(Graph(names, [tuple(names)]), names)
    with pytest.raises(FormatError, match="cannot be written"):
        format_drawing(d)


def test_moves_roundtrip():
    u = Untangling((VertexMove("a", "b"), VertexMove("c", "a")))
    text = format_moves(u, fixed=["b", "d"])
    assert "# moved=2 fixed=b,d" in text
    assert parse_moves(text) == u
    with pytest.raises(FormatError):
        parse_moves("move a to b\n")


def test_instance_file_roundtrips():
    inst = ThreePartitionInstance((9, 9, 12), 30)
    assert parse_3p(format_3p(inst)) == inst
    di = DistIcorInstance(((2, 5), (1, 8, 4)), 3)
    assert parse_icor(format_icor(di)) == di
    with pytest.raises(FormatError):
        parse_3p("3p 1 30 9 9\n")
    with pytest.raises(FormatError):
        parse_icor("chunk 1 2\n")


def test_render_svg_deterministic_and_highlighted():
    d = gen_fig5(6)
    a = render_svg(d)
    b = render_svg(d)
    assert a == b
    assert a.count("#cc2222") == 4  # crossing edges drawn in red
    assert render_svg(d, moved=("v3",)).count("#ff9933") == 1


def test_render_svg_escapes_vertex_names():
    """Names may hold XML's special characters; the SVG still parses and
    its labels read back as the names."""
    d = parse_drawing("vertices 4\norder a<b c&d e f\nedge a<b e\nedge c&d f\n")
    root = ElementTree.fromstring(render_svg(d, moved=("a<b",)))
    assert [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")] == ["a<b", "c&d", "e", "f"]


def test_render_svg_colours_crossings_without_holding_them():
    """The crossed edges of the 7,021-vertex reduction of `3p 1 18 6 6 6`
    are read from its 288,876 crossing pairs as they come; holding the pairs
    as frozensets peaked at about 73 MB."""
    red = reductions.reduce_3p_to_disticor(ThreePartitionInstance((6, 6, 6), 18))
    d = reductions.reduce_disticor_to_cu(red.instance)[0]
    tracemalloc.start()
    try:
        svg = render_svg(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    crossed = {e for pair in crossing_pairs(d.order, d.graph.edges) for e in pair}
    assert svg.count('stroke="#cc2222"') == len(crossed) == len(d.graph.edges)  # every edge is crossed
    assert peak < 16 * 2**20


def test_cli_reads_files_with_a_byte_order_mark(tmp_path, capsys):
    """A UTF-8 byte-order mark at the start of a drawing or moves file is
    not part of its first keyword."""
    bom = "\ufeff".encode()
    drawing, moves = tmp_path / "d.cdr", tmp_path / "d.mv"
    drawing.write_bytes(bom + b"vertices 4\norder a b c d\nedge a c\nedge b d\n")
    moves.write_bytes(bom + b"move a after b\n")
    assert main(["check", str(drawing)]) == 0
    assert "kind almost-planar" in capsys.readouterr().out
    assert main(["verify", str(drawing), str(moves)]) == 0
    assert "planarOk true" in capsys.readouterr().out


def test_cli_untangle_verify_pipeline(tmp_path, capsys):
    drawing = tmp_path / "fig5.cdr"
    moves = tmp_path / "out.mv"
    assert main(["generate", "fig5", "--n", "6"]) == 0
    drawing.write_text(capsys.readouterr().out)

    assert main(["check", str(drawing)]) == 0
    out = capsys.readouterr().out
    assert "kind almost-planar" in out

    assert main(["untangle", str(drawing), "--algorithm", "min"]) == 0
    captured = capsys.readouterr()
    moves.write_text(captured.out)
    assert "# moved=2" in captured.out

    assert main(["verify", str(drawing), str(moves)]) == 0
    assert "planarOk true" in capsys.readouterr().out


@pytest.mark.parametrize("algo", ["general", "one-side", "edge-fixed", "min", "exact"])
def test_cli_all_algorithms_untangle(tmp_path, capsys, algo):
    drawing = tmp_path / "d.cdr"
    main(["generate", "random", "--n", "8", "--seed", "3", "--profile", "almost-planar"])
    drawing.write_text(capsys.readouterr().out)
    moves = tmp_path / "m.mv"
    assert main(["untangle", str(drawing), "--algorithm", algo]) == 0
    moves.write_text(capsys.readouterr().out)
    assert main(["verify", str(drawing), str(moves)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("algo", ["general", "one-side", "edge-fixed", "min", "exact"])
def test_cli_untangles_the_empty_drawing(tmp_path, capsys, algo):
    drawing = tmp_path / "empty.cdr"
    drawing.write_text("vertices 0\norder\n")
    assert main(["untangle", str(drawing), "--algorithm", algo]) == 0
    captured = capsys.readouterr()
    assert f"algorithm={algo} moved=0 planar=True" in captured.err
    moves = tmp_path / "empty.mv"
    moves.write_text(captured.out)
    assert main(["verify", str(drawing), str(moves)]) == 0
    capsys.readouterr()


def test_cli_generate_deterministic(capsys):
    main(["generate", "random", "--n", "12", "--seed", "9"])
    first = capsys.readouterr().out
    main(["generate", "random", "--n", "12", "--seed", "9"])
    assert capsys.readouterr().out == first


def test_cli_general_on_long_path(tmp_path, capsys):
    g = untangling.path_graph(1000)
    order = list(g.vertices)
    order[10], order[500] = order[500], order[10]
    drawing = tmp_path / "path.cdr"
    drawing.write_text(format_drawing(untangling.CircularDrawing(g, order)))
    assert main(["untangle", str(drawing), "--algorithm", "general"]) == 0
    captured = capsys.readouterr()
    assert "planar=True" in captured.err
    moves = tmp_path / "path.mv"
    moves.write_text(captured.out)
    assert main(["verify", str(drawing), str(moves)]) == 0
    assert "planarOk true" in capsys.readouterr().out


def test_cli_untangle_builds_the_moved_set_a_fixed_number_of_times(tmp_path, capsys, monkeypatch):
    """`untangle` reads the moved set a fixed number of times, not once per
    vertex: the count is the same for fig5 at n = 20 and n = 200."""
    calls = []
    moved_set = Untangling.moved_set
    monkeypatch.setattr(Untangling, "moved_set", lambda self: calls.append(1) or moved_set(self))
    counts = []
    for n in (20, 200):
        drawing = tmp_path / f"fig5-{n}.cdr"
        drawing.write_text(format_drawing(gen_fig5(n)))
        del calls[:]
        assert main(["untangle", str(drawing), "--algorithm", "one-side"]) == 0
        assert f"moved={n // 2 - 1} planar=True" in capsys.readouterr().err
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_cli_reductions(tmp_path, capsys):
    f3 = tmp_path / "i.3p"
    f3.write_text("3p 1 30 9 9 12\n")
    assert main(["generate", "reduce-3p", str(f3)]) == 0
    icor_text = capsys.readouterr().out
    assert icor_text.startswith("icor 300\n")

    fic = tmp_path / "i.icor"
    fic.write_text("icor 5\nchunk 2 5\nchunk 1 8 4\nchunk 6 7 9 3\n")
    assert main(["generate", "reduce-icor", str(fic)]) == 0
    out = capsys.readouterr().out
    assert "# budget K=4" in out and "vertices 10" in out


def test_cli_check_counts_crossings_without_holding_them(tmp_path, capsys):
    """`check` counts the 288,876 crossing pairs of the 7,021-vertex
    reduction as they come; holding them as frozensets took about 70 MB."""
    red = reductions.reduce_3p_to_disticor(ThreePartitionInstance((6, 6, 6), 18))
    drawing = tmp_path / "small.cdr"
    drawing.write_text(format_drawing(reductions.reduce_disticor_to_cu(red.instance)[0]))
    tracemalloc.start()
    try:
        assert main(["check", str(drawing)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.splitlines()[:2] == ["crossings 288876", "kind not-almost-planar"]
    assert peak < 16 * 2**20


def test_cli_render(tmp_path, capsys):
    drawing = tmp_path / "d.cdr"
    main(["generate", "fig5", "--n", "6"])
    drawing.write_text(capsys.readouterr().out)
    out = tmp_path / "d.svg"
    assert main(["render", str(drawing), "-o", str(out)]) == 0
    assert out.read_text().startswith("<svg")


def test_cli_render_to_unwritable_path_exits_2(tmp_path, capsys):
    drawing = tmp_path / "d.cdr"
    main(["generate", "fig5", "--n", "6"])
    drawing.write_text(capsys.readouterr().out)
    out = tmp_path / "missing" / "out.svg"
    assert main(["render", str(drawing), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert not out.exists()


def test_cli_verify_self_anchored_move_exits_2(tmp_path, capsys):
    drawing = tmp_path / "d.cdr"
    main(["generate", "fig5", "--n", "6"])
    drawing.write_text(capsys.readouterr().out)
    mv = tmp_path / "self.mv"
    mv.write_text("move a after a\n")
    assert main(["verify", str(drawing), str(mv)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: bad move line: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "render"])
def test_cli_move_naming_unknown_vertex_exits_2(tmp_path, capsys, command):
    drawing = tmp_path / "d.cdr"
    main(["generate", "fig5", "--n", "6"])
    drawing.write_text(capsys.readouterr().out)
    mv = tmp_path / "bad.mv"
    mv.write_text("move v2 after v1\nmove z after v1\n")
    out = tmp_path / "out.svg"
    if command == "verify":
        argv = ["verify", str(drawing), str(mv)]
    else:
        argv = ["render", str(drawing), "--moves", str(mv), "-o", str(out)]
    assert main(argv) == 2
    got = capsys.readouterr()
    assert got.out == "" and got.err == "error: bad move line: move z after v1: unknown vertex 'z'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["--n", "-3", "--profile", "outerplanar-order-perturbed"],
        ["--n", "2", "--profile", "almost-planar"],
        ["--n", "8", "--profile", "disconnected", "--k", "-1"],
        ["--n", "0", "--profile", "outerplanar-order-perturbed", "--k", "1"],
        ["--n", "12", "--seed", "3", "--profile", "almost-planar", "--k", "3"],
        ["--n", "12", "--profile", "case-2-2", "--k", "0"],
    ],
)
def test_cli_generate_random_refuses_unusable_sizes(args, capsys):
    assert main(["generate", "random", *args]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    # 2: unparsable input file
    bad = tmp_path / "bad.cdr"
    bad.write_text("vertices 2\norder a\n")
    assert main(["check", str(bad)]) == 2
    capsys.readouterr()

    # 3: algorithmic precondition (not almost-planar)
    nap = tmp_path / "nap.cdr"
    nap.write_text(
        "vertices 8\norder v1 v2 v3 v4 v5 v6 v7 v8\n"
        "edge v1 v3\nedge v2 v4\nedge v5 v7\nedge v6 v8\n"
    )
    assert main(["untangle", str(nap), "--algorithm", "min"]) == 3
    capsys.readouterr()

    # 3: almost-planar but not outerplanar (K4 in convex position)
    k4 = tmp_path / "k4.cdr"
    k4.write_text("vertices 4\norder a b c d\n" + "".join(f"edge {x} {y}\n" for x, y in ("ab", "ac", "ad", "bc", "bd", "cd")))
    failures = almost_planar.assertion_failures
    assert main(["untangle", str(k4), "--algorithm", "one-side"]) == 3
    assert "degree-2 peel stalled" in capsys.readouterr().err
    assert almost_planar.assertion_failures == failures

    # 4: the exact search's budget exceeded
    d = tmp_path / "d.cdr"
    main(["generate", "fig5", "--n", "6"])
    d.write_text(capsys.readouterr().out)
    assert main(["untangle", str(d), "--algorithm", "exact"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(untangling.oracle, "FIXED_SET_BUDGET", 6 * 3)
    assert main(["untangle", str(d), "--algorithm", "exact"]) == 4
    capsys.readouterr()

    # 4: tight general-bound instance above the verification budget, named
    # by the requested n and not by the internal grid's length (1090)
    assert main(["generate", "es-tight", "--n", "1026"]) == 4
    err = capsys.readouterr().err
    assert "n = 1026" in err and "n = 1025" in err and "1090" not in err

    # 4: a 3-partition instance whose chunk words exceed the reduction's cap
    big = tmp_path / "big.3p"
    big.write_text("3p 1 1000 300 330 370\n")
    assert main(["generate", "reduce-3p", str(big)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "180,023,400" in err

    # 1: verify reports non-planar result
    mv = tmp_path / "noop.mv"
    mv.write_text("move v1 after v2\n")
    assert main(["verify", str(d), str(mv)]) == 1
    capsys.readouterr()


def test_cli_untangle_exits_1_when_its_answer_fails_verification(tmp_path, capsys, monkeypatch):
    d = tmp_path / "d.cdr"
    main(["generate", "fig5", "--n", "6"])
    d.write_text(capsys.readouterr().out)
    monkeypatch.setattr(almost_planar, "min_untangle", lambda drawing: Untangling(()))
    assert main(["untangle", str(d), "--algorithm", "min"]) == 1
    assert "planar=False" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, data",
    [
        ("check", "vertices \u00b2\norder a b\n".encode()),          # digit that int() rejects
        ("check", b"vertices 2\norder a \xff\n"),                     # not UTF-8
        ("check", b"vertices 2\nvertices 2\norder a b\n"),            # second vertices line
        ("check", b"vertices 2\norder a b\norder b a\n"),             # second order line
        ("reduce-icor", "icor \u00b2\nchunk 1 2\n".encode()),         # digit that int() rejects
        ("reduce-icor", b"icor 2\nicor 3\nchunk 1 2\n"),              # second icor line
        ("reduce-icor", b"icor 2\nchunk 1 \xfe\n"),                   # not UTF-8
    ],
)
def test_cli_malformed_file_exits_2(tmp_path, capsys, command, data):
    f = tmp_path / "in.txt"
    f.write_bytes(data)
    argv = ["check", str(f)] if command == "check" else ["generate", command, str(f)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verification_pipeline_random(tmp_path, capsys):
    for seed in (1, 2):
        d = gen_random(10, seed, "almost-planar")
        f = tmp_path / f"r{seed}.cdr"
        f.write_text(format_drawing(d))
        m = tmp_path / f"r{seed}.mv"
        assert main(["untangle", str(f), "--algorithm", "one-side"]) == 0
        m.write_text(capsys.readouterr().out)
        assert main(["verify", str(f), str(m)]) == 0
        capsys.readouterr()


def test_cli_runs_without_networkx(tmp_path):
    """`import untangling` loads no submodule, and each CLI command loads
    only the modules it runs; networkx is never loaded, and neither is
    `dataclasses` unless `site` loaded it first, not even by the oracle and
    the reductions."""
    drawing, moves = tmp_path / "d.cdr", tmp_path / "d.mv"
    drawing.write_text("vertices 4\norder a b c d\nedge a c\nedge b d\n")
    moves.write_text("move a after b\n")
    three_p, icor = tmp_path / "p.3p", tmp_path / "p.icor"
    three_p.write_text("3p 1 9 3 3 3\n")
    icor.write_text("icor 5\nchunk 2 5\nchunk 1 8 4\nchunk 6 7 9 3\n")
    script = (
        "import sys\n"
        "def loaded():\n"
        "    return {m.split('.', 1)[1] for m in sys.modules if m.startswith('untangling.')}\n"
        "site_loaded_dataclasses = 'dataclasses' in sys.modules\n"
        "import untangling\n"
        "assert 'networkx' not in sys.modules, 'import untangling loaded networkx'\n"
        "assert loaded() == set(), f'import untangling loaded {sorted(loaded())}'\n"
        "assert set(untangling.__all__) <= set(dir(untangling)) and not loaded()\n"
        "import untangling.cli\n"
        f"rc = untangling.cli.main(['check', {str(drawing)!r}])\n"
        f"rc += untangling.cli.main(['verify', {str(drawing)!r}, {str(moves)!r}])\n"
        "assert 'networkx' not in sys.modules, 'untangling check loaded networkx'\n"
        "assert loaded() <= {'errors', 'model', 'io_formats', 'cli'}, f'check and verify loaded {sorted(loaded())}'\n"
        "assert site_loaded_dataclasses or 'dataclasses' not in sys.modules, 'check and verify loaded dataclasses'\n"
        f"rc += untangling.cli.main(['untangle', {str(drawing)!r}, '--algorithm', 'min'])\n"
        "extra = loaded() & {'oracle', 'generators', 'reductions', 'render'}\n"
        "assert not extra, f'untangle --algorithm min loaded {sorted(extra)}'\n"
        "assert site_loaded_dataclasses or 'dataclasses' not in sys.modules, 'untangle min loaded dataclasses'\n"
        f"rc += untangling.cli.main(['untangle', {str(drawing)!r}, '--algorithm', 'exact'])\n"
        f"rc += untangling.cli.main(['generate', 'reduce-3p', {str(three_p)!r}])\n"
        f"rc += untangling.cli.main(['generate', 'reduce-icor', {str(icor)!r}])\n"
        "assert {'oracle', 'reductions'} <= loaded(), f'exact and reduce loaded only {sorted(loaded())}'\n"
        "assert site_loaded_dataclasses or 'dataclasses' not in sys.modules, 'exact or reduce loaded dataclasses'\n"
        "sys.exit(rc)\n"
    )
    src = str(Path(untangling.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "crossings 1" in proc.stdout and "planarOk true" in proc.stdout
    assert "icor 90\n" in proc.stdout and "# budget K=4\n" in proc.stdout


# the public API as the package's eager imports bound it: every name each
# submodule exports, plus the submodules themselves
PUBLIC = {
    "almost_planar": "edge_fixed_untangle min_untangle one_side_untangle unwrap_linearizations",
    "blocks": "BlockDecomposition block_decomposition planar_circular_order planar_order_keeping",
    "errors": "ConstructionFailed FormatError GenerationFailed InvalidInstance InvalidN NotAlmostPlanar "
    "NotAWitness NotDistinct NotOuterplanar PropertyViolation StructuralAssertionFailed TooLarge "
    "UnknownEdge UnknownVertex UntanglingError",
    "general": "general_bound untangle_general",
    "generators": "cycle_graph enumerate_almost_planar_instances gen_fig5 gen_random gen_tight_general path_graph",
    "model": "ALMOST_PLANAR NOT_ALMOST_PLANAR PLANAR AlmostPlanarClassification CircularDrawing Graph "
    "Untangling VerificationReport VertexMove apply_untangling classify crossings is_crossing_free "
    "is_planar_drawing moves_to_reach verify_untangling",
    "oracle": "DistIcorAnswer ExactUntangleResult enumerate_planar_orders exact_3partition exact_disticor "
    "exact_min_untangle exact_min_untangle_edge_fixed naive_planar_orders",
    "reductions": "DistIcorInstance PartitionWitness ReducedDistIcor ThreePartitionInstance "
    "chunk_property_check reduce_3p_to_disticor reduce_disticor_to_cu witness_3p_to_disticor",
    "render": "render_svg",
    "seqs": "es_tight_cyclic lccs lics lis",
}


def test_public_api_is_unchanged():
    names = [name for names in PUBLIC.values() for name in names.split()]
    assert len(names) == 68 and len(PUBLIC) == 10
    assert untangling.__all__ == sorted(names + list(PUBLIC))
    for module, exported in PUBLIC.items():
        mod = importlib.import_module(f"untangling.{module}")
        assert getattr(untangling, module) is mod
        for name in exported.split():
            assert getattr(untangling, name) is getattr(mod, name), name
    assert set(untangling.__all__) <= set(dir(untangling))
    star: dict = {}
    exec("from untangling import *", star)
    assert set(star) - {"__builtins__"} == set(untangling.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        untangling.no_such_name


def test_cli_generate_random_checks_its_profile(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "random", "--n", "8", "--profile", "nope"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--profile: invalid choice" in err and "nope" in err
    with pytest.raises(SystemExit) as exc:
        main(["generate", "random", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert len(generators.PROFILES) == 4 and all(profile in out for profile in generators.PROFILES)

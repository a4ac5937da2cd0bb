import io
import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from unicover import decompose, lp
from unicover.cli import (COMMANDS, EXIT_INVALID, EXIT_OK, EXIT_PRECONDITION, build_parser,
                          main)
from unicover.families import petersen
from unicover.graph import kruskal
from unicover.serialize import graph_from_text, graph_to_text


def run(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_named_family(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["gen", "--family", "petersen"])
        assert code == EXIT_OK
        assert graph_from_text(out) == petersen()

    def test_random_family_deterministic(self, capsys, monkeypatch):
        a = run(capsys, monkeypatch,
                ["gen", "--family", "random-cubic-3ec", "--n", "10", "--seed", "3"])
        b = run(capsys, monkeypatch,
                ["gen", "--family", "random-cubic-3ec", "--n", "10", "--seed", "3"])
        assert a == b and a[0] == EXIT_OK


TSP75 = ["approx", "--alg", "tsp75", "--node-weights", "uniform1"]


def add_edge_999(doc):
    """Edge 999, which Petersen lacks, at 1 in the target and in every
    term, so that the coverage still meets the target."""
    doc["combination"]["target"]["999"] = "1/1"
    for term in doc["combination"]["terms"]:
        term["edges"].append([999, 1])


class TestPipeline:
    def test_solve_subtour_json(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["solve-subtour"],
                           stdin=graph_to_text(petersen()))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["type"] == "lp-result" and doc["value"] == "10/1"

    def test_cover_then_verify(self, capsys, monkeypatch, tmp_path):
        _, graph_text, _ = run(capsys, monkeypatch, ["gen", "--family", "k4"])
        code, cert_json, _ = run(capsys, monkeypatch,
                                 ["uniform-cover", "--variant", "18/19"],
                                 stdin=graph_text)
        assert code == EXIT_OK
        code, out, _ = run(capsys, monkeypatch, ["verify"], stdin=cert_json)
        assert code == EXIT_OK and out.startswith("valid")

    def test_verify_rejects_tampered(self, capsys, monkeypatch):
        _, graph_text, _ = run(capsys, monkeypatch, ["gen", "--family", "k4"])
        _, cert_json, _ = run(capsys, monkeypatch,
                              ["uniform-cover", "--variant", "18/19"],
                              stdin=graph_text)
        doc = json.loads(cert_json)
        doc["alpha"] = "1/1"
        code, out, _ = run(capsys, monkeypatch, ["verify"], stdin=json.dumps(doc))
        assert code == EXIT_INVALID and out.startswith("INVALID")

    @pytest.mark.parametrize("command,edit,named", [
        (TSP75, lambda doc: doc["solution"].insert(0, [-1, 7]), "e-1 is not an edge"),
        (TSP75, lambda doc: doc["solution"].append([999, 1]), "e999 is not an edge"),
        (["decompose", "connectors", "--vector", "2/3"], add_edge_999, "target names e999"),
        (["decompose", "even2cut", "--vector", "2/3"], add_edge_999, "target names e999"),
    ], ids=["approx-head", "approx-tail", "connectors", "even2cut"])
    def test_verify_names_a_foreign_edge_id(self, capsys, monkeypatch, command, edit, named):
        _, out, _ = run(capsys, monkeypatch, command, stdin=graph_to_text(petersen()))
        doc = json.loads(out)
        edit(doc)
        code, out, _ = run(capsys, monkeypatch, ["verify"], stdin=json.dumps(doc))
        assert code == EXIT_INVALID and out.startswith("INVALID") and named in out

    def test_cycle_cover_summary(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch,
                           ["cycle-cover", "--format", "summary"],
                           stdin=graph_to_text(petersen()))
        assert code == EXIT_OK and "cycles" in out

    def test_decompose_everywhere_vector(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch,
                           ["decompose", "trees", "--vector", "2/3"],
                           stdin=graph_to_text(petersen()))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["type"] == "decomposition" and doc["kind"] == "trees"

    @pytest.mark.parametrize("kind", ["connectors", "even2cut"])
    def test_decompose_tests_a_connector_input(self, capsys, monkeypatch, kind):
        # The connector stages take x in the subtour polytope; the CLI tests
        # an everywhere-r vector before it runs them.
        code, out, err = run(capsys, monkeypatch, ["decompose", kind, "--vector", "1/2"],
                             stdin=graph_to_text(petersen()))
        assert code == EXIT_PRECONDITION and out == ""
        assert "outside subtour" in err

    def test_approx_with_uniform_weights(self, capsys, monkeypatch):
        _, graph_text, _ = run(capsys, monkeypatch, ["gen", "--family", "petersen"])
        code, out, _ = run(capsys, monkeypatch,
                           ["approx", "--alg", "tsp75",
                            "--node-weights", "uniform1"],
                           stdin=graph_text)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["algorithm"] == "tsp75" and doc["lower_bound"] == "20/1"
        code, _, _ = run(capsys, monkeypatch, ["verify"], stdin=out)
        assert code == EXIT_OK

    def test_approx_weight_file(self, capsys, monkeypatch, tmp_path):
        wfile = tmp_path / "weights.txt"
        wfile.write_text("1/2\n" * 10)
        code, out, _ = run(capsys, monkeypatch,
                           ["approx", "--alg", "twoec1310",
                            "--node-weights", str(wfile)],
                           stdin=graph_to_text(petersen()))
        assert code == EXIT_OK
        assert json.loads(out)["lower_bound"] == "10/1"


def readme_cli_lines():
    """The `unicover` lines of the README's CLI block, without comments."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.startswith("unicover")]


class TestReadme:
    def test_cli_examples_run(self, capsys, monkeypatch, tmp_path):
        # Each line runs in tmp_path's terms: a `> FILE` redirect writes
        # FILE there, and a pipe hands one command's stdout to the next.
        lines = readme_cli_lines()
        assert len(lines) >= 8 and lines[0].endswith("> g.txt")
        for line in lines:
            line, _, target = line.partition(" > ")
            out = ""
            for command in line.split("|"):
                argv = [str(tmp_path / a) if a == "g.txt" else a for a in shlex.split(command)]
                assert argv[0] == "unicover"
                code, out, err = run(capsys, monkeypatch, argv[1:], stdin=out)
                assert code == EXIT_OK, (command, err)
            if target:
                (tmp_path / target).write_text(out)
        assert graph_from_text((tmp_path / "g.txt").read_text()) == petersen()

    def test_decompose_takes_the_file_before_or_after_the_vector(self, capsys, monkeypatch,
                                                                 tmp_path):
        gfile = tmp_path / "g.txt"
        gfile.write_text(graph_to_text(petersen()))
        after = run(capsys, monkeypatch, ["decompose", "trees", "--vector", "2/3", str(gfile)])
        before = run(capsys, monkeypatch, ["decompose", "trees", str(gfile), "--vector", "2/3"])
        assert after == before and after[0] == EXIT_OK and after[1]


class TestExitCodes:
    def test_parse_error(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["solve-subtour"], stdin="garbage\n")
        assert code == EXIT_PRECONDITION and "parse error" in err

    def test_parse_error_reports_line(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["solve-subtour"],
                           stdin="3 2\n0 1 1/1\n1 2 bad\n")
        assert code == EXIT_PRECONDITION and "line 3" in err

    def test_profile_precondition(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch,
                           ["uniform-cover", "--variant", "12/13"],
                           stdin=graph_to_text(petersen()))
        assert code == EXIT_PRECONDITION and "odd cycle" in err

    def test_missing_weights_precondition(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["approx", "--alg", "tsp75"],
                           stdin=graph_to_text(petersen()))
        assert code == EXIT_PRECONDITION and "node-weights" in err

    @pytest.mark.parametrize("argv,content,stdin,message", [
        # A missing, non-string or unknown document type.
        (["verify", "IN"], b"{}", b"", "parse error: bad document: type is missing"),
        (["verify", "IN"], b'{"type": ["lp-result"]}', b"", "parse error: bad document"),
        (["verify", "IN"], b'{"type": "mystery"}', b"", "parse error: bad document"),
        # What json.loads refuses beyond JSON syntax: an int of 5,000
        # digits, and nesting deeper than the decoder recurses.
        (["verify", "IN"], b'{"n": ' + b"9" * 5000 + b"}", b"", "parse error: bad JSON"),
        (["verify", "IN"], b"[" * 3000 + b"]" * 3000, b"", "parse error: bad JSON"),
        (["verify", "IN"], b"[" * 100000 + b"]" * 100000, b"", "parse error: bad JSON"),
        # An input that cannot be opened, or is not UTF-8.
        (["verify", "IN"], None, b"", "error: cannot read IN: No such file"),
        (["solve-subtour", "DIR"], None, b"", "error: cannot read DIR: Is a directory"),
        (["verify", "IN"], b"\xff\xfe{}", b"", "error: cannot read IN: 'utf-8' codec"),
        (["solve-subtour"], None, b"\xff\xfe", "error: cannot read stdin: 'utf-8' codec"),
        (["approx", "--alg", "tsp75", "--node-weights", "IN"], b"\xff\xfe1/1\n",
         graph_to_text(petersen()).encode(), "error: cannot read IN: 'utf-8' codec"),
    ], ids=["no type", "list type", "unknown type", "5000-digit int", "3000 deep",
            "100000 deep", "no such file", "directory", "file not UTF-8",
            "stdin not UTF-8", "weights not UTF-8"])
    def test_bad_input_exits_2(self, capsys, monkeypatch, tmp_path, argv, content, stdin,
                               message):
        # One line that starts with message, and no traceback.  The stdin
        # is strict, as it is under a plain UTF-8 locale.
        path = tmp_path / "in.txt"
        if content is not None:
            path.write_bytes(content)
        argv = [{"IN": str(path), "DIR": str(tmp_path)}.get(a, a) for a in argv]
        message = message.replace("IN", str(path)).replace("DIR", str(tmp_path))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8"))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_PRECONDITION and captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1

    @pytest.mark.parametrize("doc_type", ["lp-result", "decomposition", "cycle-cover"])
    def test_verify_malformed_document(self, capsys, monkeypatch, doc_type):
        code, out, err = run(capsys, monkeypatch, ["verify"],
                             stdin=json.dumps({"type": doc_type}))
        assert code == EXIT_PRECONDITION and "parse error" in err and out == ""

    @pytest.mark.parametrize("command,field", [
        (["solve-subtour"], "x"),
        (["decompose", "trees", "--vector", "2/3"], "combination"),
        (["cycle-cover"], "cover"),
    ], ids=["lp-result", "decomposition", "cycle-cover"])
    def test_verify_mistyped_field(self, capsys, monkeypatch, command, field):
        _, out, _ = run(capsys, monkeypatch, command, stdin=graph_to_text(petersen()))
        doc = json.loads(out)
        doc[field] = 7
        code, _, err = run(capsys, monkeypatch, ["verify"], stdin=json.dumps(doc))
        assert code == EXIT_PRECONDITION and "parse error" in err

    @pytest.mark.parametrize("master", ["trees", "connectors", "subtour"])
    def test_known_column_exits_2(self, capsys, monkeypatch, master):
        # A pricing step that returns a column the master already has is a
        # solver bug, not a failed verification: a tree oracle that keeps
        # returning one tree, under `decompose trees` or under the tree
        # master of `decompose connectors`, or a min cut that names a cut of
        # the initial pool as violated.
        g = petersen()
        tree = {e.id: 1 for e in kruskal(g.n, g.edges)}
        if master in ("trees", "connectors"):
            monkeypatch.setattr(decompose, "_mst_price",
                                lambda G, support: lambda weights: (0, dict(tree)))
        else:
            monkeypatch.setattr(lp, "min_cut", lambda G, cap: (Fraction(0), (1,)))
        command = (["solve-subtour"] if master == "subtour"
                   else ["decompose", master, "--vector", "2/3"])
        code, out, err = run(capsys, monkeypatch, command, stdin=graph_to_text(g))
        assert code == EXIT_PRECONDITION and out == ""
        assert err == "error: pricing returned a known column; solver bug\n"

    def test_file_input(self, capsys, monkeypatch, tmp_path):
        gfile = tmp_path / "g.txt"
        gfile.write_text(graph_to_text(petersen()))
        code, out, _ = run(capsys, monkeypatch,
                           ["solve-subtour", str(gfile), "--format", "summary"])
        assert code == EXIT_OK and "10/1" in out

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == EXIT_PRECONDITION
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == EXIT_PRECONDITION
        assert "required: command" in capsys.readouterr().err


def parse_output(capsys, parser, argv):
    """(exit code, stdout, stderr) of a parse that exits, and (the parsed
    arguments, stdout, stderr) of one that does not."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


class TestParser:
    def test_help_lists_every_command(self, capsys):
        code, out, _ = parse_output(capsys, build_parser(), ["--help"])
        assert code == EXIT_OK
        for name, (help_text, _, _) in COMMANDS.items():
            assert name in out and help_text in out
        assert len(COMMANDS) == 7

    @pytest.mark.parametrize("argv", [[name, "--help"] for name in COMMANDS]
                             + [["verify", "a", "b"], ["gen"], ["decompose", "bogus"],
                                ["uniform-cover", "--variant", "1/2"],
                                ["decompose", "trees", "--vector", "2/3", "g.txt"],
                                ["frobnicate"]],
                             ids=lambda argv: " ".join(argv))
    def test_cached_parser_matches_fresh(self, capsys, argv):
        # Help, usage lines, errors and the intermixed re-parse, each run
        # twice, leave nothing behind in the one parser of the process.
        fresh = parse_output(capsys, build_parser.__wrapped__(), argv)
        assert [parse_output(capsys, build_parser(), argv) for _ in range(2)] == [fresh] * 2
        assert fresh[1] or fresh[2] or fresh[0]["input"] == "g.txt"

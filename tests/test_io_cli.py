import argparse
import ast
import importlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import forestnull
from forestnull import ParseError, PrimeField, QQ, ValidationError
from forestnull import matrixio, oracle
from forestnull.cli import _build_parser, main
from forestnull.generate import random_matrix
from forestnull.kernel import maximum_matching, sparsest_null_basis
from forestnull.rank import rank_basis
from forestnull.scaling import null_basis
from conftest import sv
from forest_helpers import entry

M_P3_TEXT = """%%MatrixMarket matrix coordinate rational general
% field: rational
3 3 4
1 2 2
2 1 3
2 3 5
3 2 7
"""

M_P3_GF7_TEXT = """%%MatrixMarket matrix coordinate integer general
% field: gf 7
3 3 4
1 2 2
2 1 3
2 3 5
3 2 6
"""


def test_mm_round_trip_bytes(m_p3):
    text = matrixio.format_matrix(m_p3)
    assert text == M_P3_TEXT
    again = matrixio.parse_matrix(text)
    assert again == m_p3
    assert matrixio.format_matrix(again) == text


def test_json_round_trip(m_p3):
    text = matrixio.format_matrix(m_p3, fmt="json")
    again = matrixio.parse_matrix(text)
    assert again == m_p3
    assert matrixio.format_matrix(again, fmt="json") == text


def test_gf_reduction_on_read():
    text = ("%%MatrixMarket matrix coordinate integer general\n"
            "% field: gf 7\n"
            "2 2 2\n"
            "1 2 10\n"
            "2 1 1\n")
    m = matrixio.parse_matrix(text)
    assert m.field == PrimeField(7)
    assert entry(m, 0, 1) == 3


def test_exact_decimal_parse():
    text = ("%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 2 0.25\n"
            "2 1 -0.5\n")
    m = matrixio.parse_matrix(text)
    assert m.field == QQ
    assert entry(m, 0, 1) == Fraction(1, 4)
    assert entry(m, 1, 0) == Fraction(-1, 2)


def test_diagonal_entry_rejected_from_file():
    text = ("%%MatrixMarket matrix coordinate rational general\n"
            "2 2 1\n"
            "2 2 1\n")
    with pytest.raises(ValidationError, match="diagonal"):
        matrixio.parse_matrix(text)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        matrixio.parse_matrix("not a matrix\n")
    with pytest.raises(ParseError, match="line 3"):
        matrixio.parse_matrix("%%MatrixMarket matrix coordinate rational general\n"
                              "2 2 1\n"
                              "1 2 oops\n")
    with pytest.raises(ParseError, match="announced"):
        matrixio.parse_matrix("%%MatrixMarket matrix coordinate rational general\n"
                              "2 2 5\n"
                              "1 2 1\n"
                              "2 1 1\n")


@pytest.mark.parametrize("text", [
    "%%MatrixMarket matrix coordinate rational general\n3 x 1\n1 1 1\n",
    "%%MatrixMarket matrix coordinate rational general\n3 1\n",
    "%%MatrixMarket matrix coordinate rational general\n3 1 1\n1 one 1\n",
    "%%MatrixMarket matrix coordinate rational general\n3 1 1\n1 0 1\n",
    '{"n": "three", "field": "rational", "vectors": []}',
    '{"n": 3, "field": "rational", "vectors": 5}',
    '{"field": "rational", "vectors": []}',
    '{"n": 3, "field": "rational"}',
    # a vector count no basis can have, an empty or zero vector
    "%%MatrixMarket matrix coordinate rational general\n3 -1 0\n",
    "%%MatrixMarket matrix coordinate rational general\n3 2 1\n1 1 5\n",
    "%%MatrixMarket matrix coordinate rational general\n3 2 2\n1 1 5\n2 2 0\n",
    '{"n": 1, "field": "rational", "vectors": [{"1": "1"}, {"1": "2"}]}',
    '{"n": -1, "field": "rational", "vectors": []}',
    '{"n": 3, "field": "rational", "vectors": [{"1": "1"}, {}]}',
    '{"n": 3, "field": "gf 7", "vectors": [{"2": "14"}]}',
    # one vertex named twice, by two spellings or by a repeated key
    '{"n": 3, "vectors": [{"1": "1", "01": "2"}]}',
    '{"n": 3, "vectors": [{"3": "1"}, {"2": "1", "2": "2"}]}',
    '{"n": 3, "n": 3, "vectors": [{"1": "1"}]}',
    # linearly dependent vectors: a multiple of an earlier one, in both formats
    '{"n": 2, "vectors": [{"1": "1"}, {"1": "3"}]}',
    "%%MatrixMarket matrix coordinate rational general\n2 2 4\n1 1 1\n2 1 2\n1 2 2\n2 2 4\n",
    # the matrix rules for the banner and the field comment
    "3 1 1\n1 1 1\n",
    "%%MatrixMarket matrix coordinate rational general\n3 1 1\n% field: gf 7\n1 1 1\n",
])
def test_parse_basis_rejects_malformed_text(text):
    with pytest.raises(ParseError):
        matrixio.parse_basis(text)


@pytest.mark.parametrize("text, message", [
    ('{"n": 3, "field": "gf 7", "vectors": [{"1": "1", "2": "2"}, {"3": "1"},'
     ' {"1": "3", "2": "6", "3": "5"}]}', "basis vector 3 depends on the vectors before it"),
    ("%%MatrixMarket matrix coordinate rational general\n2 2 4\n1 1 1\n2 1 2\n1 2 2\n2 2 4\n",
     "basis vector 2 depends on the vectors before it"),
    # every vector is checked for zero before any for dependence
    ('{"n": 3, "vectors": [{"1": "1"}, {"1": "2"}, {"2": "0"}]}', "basis vector 3 is zero"),
])
def test_parse_basis_names_the_first_dependent_vector(text, message):
    with pytest.raises(ParseError, match=message):
        matrixio.parse_basis(text)


@pytest.mark.parametrize("text", ["1 1000000 0", "2 3 1\n1 1 5\n",
                                  "2 100000000000 0"])
def test_parse_basis_refuses_more_columns_than_rows_before_allocating(text):
    t0 = time.perf_counter()
    with pytest.raises(ParseError, match="holds 0 to [12] vectors"):
        matrixio.parse_basis("%%MatrixMarket matrix coordinate rational general\n" + text)
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("text, message", [
    # the size line and the entries disagree on the entry count
    ("3 1 5\n1 1 2\n2 1 3\n", "size line announced 5 entries, found 2"),
    ("3 2 1\n1 1 2\n2 2 3\n", "size line announced 1 entries, found 2"),
    # a repeated (row, column) no longer overwrites the earlier value
    ("3 1 5\n1 1 2\n1 1 3\n", "duplicate entry at \\(1, 1\\)"),
    ("3 2 3\n1 1 2\n3 2 3\n3 2 3\n", "duplicate entry at \\(3, 2\\)"),
    ("-1 0 0\n", "row count must be non-negative, got -1"),
    ("3 1 -1\n1 1 2\n", "entry count must be non-negative, got -1"),
    ("3 1 1\n1 one 2\n", "line 3: entry indices must be integers"),
    ("% no size line\n", "missing size line"),
])
def test_parse_basis_checks_the_size_line_like_the_matrix_reader(text, message):
    with pytest.raises(ParseError, match=message):
        matrixio.parse_basis("%%MatrixMarket matrix coordinate rational general\n" + text)


def test_parse_basis_allocates_nothing_per_row():
    # the independence check peels compact coordinates, so a long and
    # nearly empty basis costs its entries, not its 10^7 rows
    text = ("%%MatrixMarket matrix coordinate rational general\n"
            "10000000 2 3\n1 1 1\n10000000 1 2\n10000000 2 1\n")
    tracemalloc.start()
    try:
        basis = matrixio.parse_basis(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.dimension == 2 and peak < 10 ** 6


@pytest.mark.parametrize("write", [
    lambda m: matrixio.format_matrix(m, "csv"),
    lambda m: matrixio.format_basis(null_basis(m), m.n, m.field, fmt="csv"),
])
def test_writers_refuse_an_unknown_format(m_p3, write):
    with pytest.raises(ParseError) as exc:
        write(m_p3)
    assert str(exc.value) == "unknown format 'csv' (use 'mm' or 'json')"


def test_negative_length_refused():
    with pytest.raises(ParseError, match="n must be non-negative, got -1"):
        matrixio.parse_vector('{"n": -1, "vector": {}}')
    with pytest.raises(ParseError, match="n must be non-negative, got -2"):
        matrixio.parse_basis('{"n": -2, "field": "rational", "vectors": []}')
    assert matrixio.parse_vector('{"n": 0, "vector": {}}').n == 0


def test_basis_round_trip(m_star):
    basis = null_basis(m_star)
    for fmt in ("mm", "json"):
        text = matrixio.format_basis(basis, m_star.n, m_star.field, fmt)
        again = matrixio.parse_basis(text)
        assert [v.entries for v in again.vectors] == [v.entries for v in basis.vectors]


def test_vector_round_trip():
    x = sv(3, {0: 5, 2: Fraction(-3, 7)})
    text = matrixio.format_vector(x)
    assert matrixio.parse_vector(text) == x


def test_gen_determinism_and_shape():
    a = random_matrix(50, 42, QQ)
    b = random_matrix(50, 42, QQ)
    assert a == b
    big = random_matrix(1000, 42, PrimeField(5))
    assert len(big.pattern.edges) == 999
    forest = random_matrix(30, 7, QQ, components=4)
    assert forest.pattern.component_count == 4
    one = random_matrix(1, 0, QQ)
    assert one.n == 1 and one.nnz() == 0


# --- CLI ---------------------------------------------------------------


@pytest.fixture
def p3_file(tmp_path, m_p3):
    path = tmp_path / "m_p3.mtx"
    matrixio.write_matrix(m_p3, path)
    return str(path)


def test_cli_validate(p3_file, capsys):
    assert main(["validate", p3_file]) == 0
    out = capsys.readouterr().out
    assert "ok: n=3 nnz=4 components=1 field=rational" in out


def test_cli_validate_cycle_names_edge(tmp_path, capsys):
    bad = tmp_path / "cycle.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate rational general\n"
                   "3 3 6\n"
                   "1 2 1\n2 1 1\n2 3 1\n3 2 1\n1 3 1\n3 1 1\n")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "cycle" in err and "(" in err


def test_cli_support(p3_file, capsys):
    assert main(["support", p3_file]) == 0
    out = capsys.readouterr().out
    assert "matching-number: 1" in out
    assert "null-dimension: 1" in out
    assert "supp: 1 3" in out
    assert "core: 2" in out
    assert "s-set: 1 2 3" in out

    assert main(["support", p3_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["supp"] == [1, 3] and doc["rank"] == 2


SUPPORT_FOREST_TEXT = """%%MatrixMarket matrix coordinate rational general
9 9 10
1 2 2
2 1 3
2 3 5
3 2 7
4 5 1
5 4 -1
4 6 1/2
6 4 4
7 8 3
8 7 -2
"""


@pytest.mark.parametrize("text, plain, as_json", [
    # a path, a star, a perfectly matched edge and an isolated vertex
    (SUPPORT_FOREST_TEXT,
     "n: 9\ncomponents: 4\nmatching-number: 3\nnull-dimension: 3\nrank: 6\n"
     "supp: 1 3 5 6 9\ncore: 2 4\ns-set: 1 2 3 4 5 6 9\n",
     '{\n  "n": 9,\n  "components": 4,\n  "matching_number": 3,\n'
     '  "null_dimension": 3,\n  "rank": 6,\n'
     '  "supp": [\n    1,\n    3,\n    5,\n    6,\n    9\n  ],\n'
     '  "core": [\n    2,\n    4\n  ],\n'
     '  "s_set": [\n    1,\n    2,\n    3,\n    4,\n    5,\n    6,\n    9\n  ]\n}\n'),
    # no support: the id lists are empty
    ("%%MatrixMarket matrix coordinate rational general\n2 2 2\n1 2 1\n2 1 1\n",
     "n: 2\ncomponents: 1\nmatching-number: 1\nnull-dimension: 0\nrank: 2\n"
     "supp: \ncore: \ns-set: \n",
     '{\n  "n": 2,\n  "components": 1,\n  "matching_number": 1,\n'
     '  "null_dimension": 0,\n  "rank": 2,\n'
     '  "supp": [],\n  "core": [],\n  "s_set": []\n}\n'),
])
def test_cli_support_golden_bytes(tmp_path, capsys, text, plain, as_json):
    path = tmp_path / "forest.mtx"
    path.write_text(text)
    assert main(["support", str(path)]) == 0
    assert capsys.readouterr() == (plain, "")
    assert main(["support", str(path), "--json"]) == 0
    assert capsys.readouterr() == (as_json, "")


def test_cli_null_basis(p3_file, capsys):
    assert main(["null-basis", p3_file, "--check"]) == 0
    captured = capsys.readouterr()
    assert "3 1 2" in captured.out        # one vector, two nonzeros
    assert "1 1 1" in captured.out        # +1 at vertex 1
    assert "3 1 -3/5" in captured.out     # -3/5 at vertex 3
    assert "check: ok" in captured.err


def test_cli_null_basis_json_output(tmp_path, p3_file):
    out = tmp_path / "basis.json"
    assert main(["null-basis", p3_file, "-o", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert doc["dimension"] == 1
    assert doc["vectors"] == [{"1": "1", "3": "-3/5"}]


def test_cli_rank_basis(p3_file, capsys):
    assert main(["rank-basis", p3_file, "--check"]) == 0
    captured = capsys.readouterr()
    assert "3 2 3" in captured.out  # n=3, dim=2, nnz=3
    assert "check: ok" in captured.err


def test_cli_transfer(tmp_path, p3_file, m_p3, capsys):
    from forestnull import adjacency_matrix

    a_path = tmp_path / "a_p3.mtx"
    matrixio.write_matrix(adjacency_matrix(m_p3.pattern), a_path)
    x_path = tmp_path / "x.json"
    x_path.write_text(matrixio.format_vector(sv(3, {0: 5, 2: -3})))
    assert main(["transfer", "--space", "null", "--from", p3_file,
                 "--to", str(a_path), "--vector", str(x_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vector"] == {"1": "5", "3": "-5"}

    x_path.write_text(matrixio.format_vector(sv(3, {0: 1, 2: 1})))
    assert main(["transfer", "--space", "rank", "--from", str(a_path),
                 "--to", p3_file, "--vector", str(x_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vector"] == {"1": "1", "3": "5/3"}


def test_target_read_against_the_source_pattern_equals_a_plain_read():
    for k, field in enumerate((QQ, PrimeField(7), PrimeField(1000003))):
        for components in (1, 4):
            m = random_matrix(200, 10 * k + components, field, components)
            text = matrixio.format_matrix(random_matrix(200, 10 * k + components, field,
                                                        components).transpose())
            plain = matrixio.parse_matrix(text)
            shared = matrixio.parse_matrix(text, m.pattern)
            assert shared == plain and shared.col_flat == plain.col_flat
            assert shared.pattern is m.pattern and plain.pattern is not m.pattern
    # another layout is read as without the known forest
    other = random_matrix(200, 99, QQ)
    read = matrixio.parse_matrix(matrixio.format_matrix(other), m.pattern)
    assert read == other and read.pattern is not m.pattern


MM_RATIONAL = "%%MatrixMarket matrix coordinate rational general\n"


@pytest.mark.parametrize("target, out, err", [
    (M_P3_TEXT.replace("2 3 5", "2 3 4"), '"3": "-15/4"', ""),
    (MM_RATIONAL + "3 3 4\n3 2 7\n2 3 5\n2 1 3\n1 2 2\n", '"3": "-3"', ""),
    ('{"n": 3, "entries": [[1, 2, "2"], [2, 1, "1"], [2, 3, "5"], [3, 2, "1"]]}',
     '"3": "-1"', ""),
    (MM_RATIONAL + "3 3 4\n1 2 1\n1 3 1\n2 1 1\n3 1 1\n", "",
     "error: matrices do not share a pattern\n"),
    (MM_RATIONAL + "3 3 6\n1 2 1\n1 3 1\n2 1 1\n2 3 1\n3 1 1\n3 2 1\n", "",
     "error: cycle detected at edge (2, 3)\n"),
    (MM_RATIONAL + "3 3 6\n3 2 1\n3 1 1\n2 3 1\n2 1 1\n1 3 1\n1 2 1\n", "",
     "error: cycle detected at edge (2, 3)\n"),
    (MM_RATIONAL + "3 3 3\n1 2 1\n2 1 1\n2 3 1\n", "",
     "error: asymmetric pattern: entry (2, 3) present but (3, 2) missing\n"),
    (MM_RATIONAL + "3 3 3\n2 3 1\n2 1 1\n1 2 1\n", "",
     "error: asymmetric pattern: entry (2, 3) present but (3, 2) missing\n"),
    ('{"n": 3, "entries": [[1, 2, "2"], [2, 1, "3"], [2, 3, "5"]]}', "",
     "error: asymmetric pattern: entry (2, 3) present but (3, 2) missing\n"),
    (M_P3_GF7_TEXT, "", "error: field mismatch: matrices are over rational and gf 7\n"),
], ids=["same layout", "out of order", "json", "other layout", "cycle",
        "cycle out of order", "asymmetric", "asymmetric out of order", "json asymmetric",
        "other field"])
def test_cli_transfer_target_forms(tmp_path, p3_file, capsys, target, out, err):
    # a target on the source's layout shares its forest; every other
    # form is read and refused as it is without one
    target_path, x_path = tmp_path / "n.mtx", tmp_path / "x.json"
    target_path.write_text(target)
    x_path.write_text(matrixio.format_vector(sv(3, {0: 5, 2: -3})))
    code = main(["transfer", "--space", "null", "--from", p3_file,
                 "--to", str(target_path), "--vector", str(x_path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1 if err else 0, err)
    if out:
        assert json.loads(captured.out)["vector"] == json.loads('{"1": "5", %s}' % out)
    else:
        assert captured.out == ""


@pytest.mark.parametrize("space", ["null", "rank"])
def test_cli_transfer_names_both_lengths(tmp_path, p3_file, space, capsys):
    x_path = tmp_path / "x.json"
    x_path.write_text(matrixio.format_vector(sv(4, {3: 1})))
    assert main(["transfer", "--space", space, "--from", p3_file,
                 "--to", p3_file, "--vector", str(x_path)]) == 1
    assert capsys.readouterr() == ("", "error: dimension mismatch: 3 vs 4\n")


@pytest.mark.parametrize("space", ["null", "rank"])
@pytest.mark.parametrize("members, message", [
    ('"1": "1", "01": "0"', "vertex 1 appears twice in one vector"),
    ('"2": "1", "2": "0"', 'repeated key "2" in a JSON object'),
])
def test_cli_transfer_refuses_a_vertex_named_twice(tmp_path, p3_file, capsys, space,
                                                   members, message):
    # json.loads alone keeps the last value, which made these the zero vector
    x_path = tmp_path / "x.json"
    x_path.write_text('{"n": 3, "field": "rational", "vector": {%s}}' % members)
    assert main(["transfer", "--space", space, "--from", p3_file,
                 "--to", p3_file, "--vector", str(x_path)]) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    with pytest.raises(ParseError) as exc:
        matrixio.parse_basis('{"n": 3, "vectors": [{%s}]}' % members)
    assert str(exc.value) == message


def test_cli_gen_and_oracle(tmp_path, capsys):
    out = tmp_path / "gen.mtx"
    assert main(["gen", "--n", "8", "--seed", "3", "--field", "gf:7",
                 "--out", str(out)]) == 0
    assert main(["validate", str(out)]) == 0
    capsys.readouterr()
    assert main(["oracle", "rank", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("rank: ")
    assert main(["oracle", "null-basis", str(out)]) == 0
    capsys.readouterr()
    assert main(["oracle", "min-support", str(out)]) == 0
    assert capsys.readouterr().out.startswith("min-support-total:")


def test_cli_gen_refuses_a_vertex_count_beyond_the_limit_before_drawing(capsys):
    # refused before the O(n) attachment sequence is drawn
    assert main(["gen", "--n", "2147483648"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: vertex count 2147483648 exceeds the limit of 2147483647\n"


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_cli_bench_is_not_a_command(capsys):
    # timing lives in perfbench/ and acceptance criterion 8
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_cli_subcommands():
    # growth of the command surface shows up here as a reviewed diff
    sub = next(action for action in _build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert list(sub.choices) == ["validate", "support", "null-basis", "rank-basis",
                                 "transfer", "gen", "oracle"]


# FILE stands for a valid matrix file
PARSER_PARITY_ARGV = [
    [], ["-h"], ["--help"], ["--version"], ["bench"], ["-x", "validate", "FILE"],
    ["validate"], ["validate", "-h"], ["validate", "FILE", "extra"], ["validate", "FILE"],
    ["validate", "/nonexistent/path.mtx"],
    ["support", "--json"], ["support", "FILE", "--json"],
    ["null-basis", "-h"], ["null-basis", "FILE", "--format", "xml"],
    ["null-basis", "FILE", "--bogus"], ["null-basis", "FILE", "--check"],
    ["rank-basis", "--help"], ["rank-basis"], ["rank-basis", "FILE", "--format", "json"],
    ["transfer"], ["transfer", "-h"], ["transfer", "--space", "null", "--from", "FILE"],
    ["transfer", "--space", "row", "--from", "a", "--to", "b", "--vector", "x"],
    ["gen"], ["gen", "-h"], ["gen", "--n", "ten"], ["gen", "--n", "5", "--format", "xml"],
    ["gen", "--n", "5", "--seed", "2"],
    ["oracle"], ["oracle", "-h"], ["oracle", "rank"], ["oracle", "min", "FILE"],
    ["oracle", "rank", "FILE"],
    ["null-basis", "FILE", "--chec"], ["rank-basis", "FILE", "--format=json"],
    ["validate", "--", "FILE"], ["gen", "--n", "-5"], ["null-basis", "FILE", "-o"],
]


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one ``main`` call."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return (code,) + tuple(capsys.readouterr())


@pytest.mark.parametrize("argv", PARSER_PARITY_ARGV, ids=" ".join)
def test_cli_subcommand_parser_matches_the_full_parser(p3_file, capsys, monkeypatch, argv):
    # main builds no parser for an argv the reader accepts, and the
    # parser of all seven for every other argv; stdout, stderr and the
    # exit code are those of the full parser
    from forestnull import cli

    argv = [p3_file if arg == "FILE" else arg for arg in argv]
    built = []  # the prog of every ArgumentParser made
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: init(self, *a, **k) or built.append(self.prog))
    got = _outcome(argv, capsys)
    every = ["forestnull"] + ["forestnull " + name for name in cli._SUBCOMMANDS]
    assert built == ([] if cli._read_argv(argv) is not None else every)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli._build_parser().parse_args(argv))
    assert got == _outcome(argv, capsys)


# words for argv: exact option strings come from the command's table;
# these add valid values, choices and ints, then prefixes, joined values,
# non-choices, non-ints, values starting with "-", "--", help and ""
_ARGV_VALUES = ("mm", "json", "null", "rank", "null-basis", "min-support", "rational",
                "gf:7", "5", "0", " 7", "+3", "1_0", "x.mtx", "a b", "", "validate")
_ARGV_WORDS = ("--chec", "--fo", "--ou", "--sp", "-o=x", "--format=json", "--out=x", "--n=5",
               "xml", "row", "min", "-5", "ten", "5.0", "-x", "-", "--", "-h", "--help")


@st.composite
def _cli_argvs(draw):
    """An argv of a command, or of a word that is none, in chunks: most
    often every positional and required option with a value;
    then options, each with a value unless it is a flag, and now and
    then a loose word; the chunks shuffled."""
    from forestnull import cli

    name = draw(st.sampled_from(sorted(cli._SUBCOMMANDS) + ["bench", "-h"]))
    arguments = cli._SUBCOMMANDS.get(name, ("", ()))[1]
    options = [(s, "action" in spec) for names, spec in arguments for s in names if s[0] == "-"]
    value = st.sampled_from(_ARGV_VALUES)
    word = st.one_of(value, st.sampled_from(_ARGV_WORDS + tuple(s for s, _ in options)))
    chunks = []
    if draw(st.integers(0, 3)):
        chunks += [[draw(word)] for names, _ in arguments if names[0][0] != "-"]
        chunks += [[names[-1], draw(word)] for names, spec in arguments if spec.get("required")]
    if options:
        chunks += [[option] if flag else [option, draw(word)]
                   for option, flag in draw(st.lists(st.sampled_from(options), max_size=3))]
    if draw(st.integers(0, 3)) == 0:
        chunks.append([draw(word)])
    return [name] + [w for chunk in draw(st.permutations(chunks)) for w in chunk]


@settings(max_examples=600, deadline=None, database=None)
@given(_cli_argvs())
def test_reader_sets_what_argparse_sets_on_every_argv_it_accepts(argv):
    from forestnull import cli

    args = cli._read_argv(argv)
    if args is not None:
        assert vars(args) == vars(cli._build_parser().parse_args(argv))


def test_reader_accepts_every_well_formed_call():
    from forestnull import cli

    for argv in (["validate", "f"], ["support", "f", "--json", "--json"],
                 ["null-basis", "--check", "f", "--format", "mm", "--format", "json"],
                 ["rank-basis", "f", "-o", "x", "--out", ""],
                 ["transfer", "--vector", "x", "--to", "b", "--space", "rank", "--from", "a"],
                 ["gen", "--n", " 7", "--seed", "+3", "--components", "1_0", "--field", "gf:7"],
                 ["oracle", "--format", "json", "min-support", "-o", "x", "f"]):
        args = cli._read_argv(argv)
        assert args is not None, argv
        assert vars(args) == vars(cli._build_parser().parse_args(argv))


@pytest.mark.parametrize("columns, terminal", [
    (None, None), ("40", None), ("200", None), ("0", 57), (None, 57), (None, 0), ("x", None),
])
@pytest.mark.parametrize("argv", [["-h"], ["bench"], ["null-basis", "-h"],
                                  ["transfer", "--space", "row"], ["gen", "-h"]], ids=" ".join)
def test_cli_help_and_usage_errors_match_argparse_at_every_width(capsys, monkeypatch,
                                                                 columns, terminal, argv):
    # the parser keeps argparse's own HelpFormatter, which takes its
    # width from COLUMNS, else the terminal, else 80; help exits 0 and
    # a usage error 2 at every width
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    if terminal is not None:
        monkeypatch.setattr(os, "get_terminal_size",
                            lambda fd: os.terminal_size((terminal, 24)))
    code, out, err = _outcome(argv, capsys)
    assert code == (0 if "-h" in argv else 2)
    assert (out if code == 0 else err).startswith("usage: forestnull")


def test_cli_missing_file_exits_1(capsys):
    assert main(["validate", "/nonexistent/path.mtx"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_memory_error_gives_one_error_line(p3_file, capsys, monkeypatch):
    from forestnull import cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "validate", exhausted)
    assert main(["validate", p3_file]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


def test_cli_determinism(p3_file, capsys):
    outputs = []
    for _ in range(2):
        assert main(["null-basis", p3_file]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        assert main(["gen", "--n", "40", "--seed", "9"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


MM_HEAD = "%%MatrixMarket matrix coordinate rational general\n"


@pytest.mark.parametrize("matrix_text, vector_text, message", [
    ('{"n": 2, "field": "rational", "entries": [["a", 1, "3"]]}', None,
     "entry row must be an integer, got 'a'"),
    ('{"n": 2, "field": "rational", "entries": 5}', None,
     "matrix JSON 'entries' must be a list"),
    ('{"n": 2, "field": "rational", "entries": [[1.9, 2, "1"], [2, 1, "1"]]}', None,
     "entry row must be an integer, got 1.9"),
    (None, '{"n": 3, "field": "rational", "vector": {"x": "1"}}',
     "vector index must be an integer, got 'x'"),
    (None, '{"n": 3, "field": "rational", "vector": [1]}',
     "a vector must be a {vertex: value} object, got [1]"),
    (None, '[{"n": 3, "field": "rational", "vector": {"1": "1"}}]',
     "vector JSON must be an object"),
    ('{"n": 2, "field": "rational", "entries": [[1, 2, true], [2, 1, true]]}', None,
     "booleans are not field values, got True"),
    ('{"n": 2, "field": "gf 7", "entries": [[1, 2, 1], [2, 1, false]]}', None,
     "booleans are not field values, got False"),
    (None, '{"n": 3, "field": "rational", "vector": {"1": false}}',
     "booleans are not field values, got False"),
    (None, '{"n": 3, "field": "rational", "vector": {"1": "5", "01": "0"}}',
     "vertex 1 appears twice in one vector"),
    (None, '{"n": 3, "field": "rational", "vector": {"1": "5", "1": "0"}}',
     'repeated key "1" in a JSON object'),
    ('{"n": 2, "field": "rational", "field": "gf 7", "entries": []}', None,
     'repeated key "field" in a JSON object'),
    # the size line
    (MM_HEAD + "3 4 0\n", None, "line 2: matrix must be square, got 3 x 4"),
    (MM_HEAD + "% no size line\n", None, "missing size line"),
    # vertices are named as the file writes them, counted from 1
    (MM_HEAD + "3 3 3\n1 2 5\n1 2 5\n2 1 1\n", None, "duplicate entry at (1, 2)"),
    (MM_HEAD + "3 3 1\n2 2 3\n", None, "nonzero diagonal entry at vertex 2"),
    (MM_HEAD + "3 3 1\n1 4 5\n", None, "entry (1, 4) out of range for n=3"),
    (MM_HEAD + "3 3 2\n1 2 0\n2 1 1\n", None, "explicit zero entry at (1, 2)"),
    (MM_HEAD + "3 3 1\n1 2 1\n", None,
     "asymmetric pattern: entry (1, 2) present but (2, 1) missing"),
    (MM_HEAD + "3 3 6\n1 2 1\n2 1 1\n2 3 1\n3 2 1\n1 3 1\n3 1 1\n", None,
     "cycle detected at edge (2, 3)"),
    ('{"n": 3, "entries": [[1, 4, "5"]]}', None, "entry (1, 4) out of range for n=3"),
    ('{"n": 3, "field": "gf 7", "entries": [[2, 1, "7"], [1, 2, 3]]}', None,
     "explicit zero entry at (2, 1)"),
    (None, '{"n": 3, "vector": {"4": "1"}}', "vector index 4 out of range for n=3"),
])
def test_cli_malformed_input_gives_one_error_line(tmp_path, m_p3, matrix_text,
                                                  vector_text, message, capsys):
    matrix_path = tmp_path / "m.json"
    if matrix_text is None:
        matrixio.write_matrix(m_p3, matrix_path, fmt="json")
        vector_path = tmp_path / "x.json"
        vector_path.write_text(vector_text)
        argv = ["transfer", "--space", "null", "--from", str(matrix_path),
                "--to", str(matrix_path), "--vector", str(vector_path)]
    else:
        matrix_path.write_text(matrix_text)
        argv = ["validate", str(matrix_path)]
    assert one_error_line(run_cli(argv)) == "error: " + message
    # and the same line from a call in this process
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


def run_cli(argv, **env):
    """The CLI in a fresh process; a hang fails the test at the timeout."""
    src = str(Path(forestnull.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "forestnull.cli"] + argv,
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src, **env))


def one_error_line(proc) -> str:
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("literal", ["1e5000", "1e999999999", "-2.5E-999_999_999"])
def test_cli_refuses_rational_exponent_beyond_digit_limit(tmp_path, literal):
    path = tmp_path / "m.mtx"
    path.write_text(M_P3_TEXT.replace("\n2 1 3\n", "\n2 1 %s\n" % literal))
    for command in ("validate", "null-basis"):
        line = one_error_line(run_cli([command, str(path)], PYTHONINTMAXSTRDIGITS="4300"))
        assert line == ("error: line 5: bad rational literal %r: exponent larger than "
                        "4300, the integer string conversion limit "
                        "(PYTHONINTMAXSTRDIGITS)" % literal)


@pytest.mark.parametrize("fmt", ["mm", "json"])
def test_cli_output_beyond_digit_limit_gives_one_error_line(tmp_path, fmt):
    # the null vector of this path has coordinates of more than 640 digits
    n = 3001
    entries = sorted([(u, u + 1, "7/3") for u in range(1, n)]
                     + [(u + 1, u, "5/2") for u in range(1, n)])
    path = tmp_path / "path.mtx"
    path.write_text("%%%%MatrixMarket matrix coordinate rational general\n%d %d %d\n"
                    % (n, n, len(entries)) + "".join("%d %d %s\n" % e for e in entries))
    out = tmp_path / "null.txt"
    for argv in (["-o", str(out)], []):
        proc = run_cli(["null-basis", str(path), "--format", fmt] + argv,
                       PYTHONINTMAXSTRDIGITS="640")
        assert "more than 640 digits" in one_error_line(proc)
        assert proc.stdout == "" and not out.exists()


def test_public_api():
    # growth of the public surface shows up here as a reviewed diff
    assert sorted(forestnull.__all__) == [
        "AcyclicMatrix", "Analysis", "Basis", "DiagonalScaling", "Field",
        "Forest", "ForestNullError", "MatchingInfo", "OracleBoundError",
        "ParseError", "PrimeField", "QQ", "RationalField", "SparseVector",
        "SupportInfo", "ValidationError", "adjacency_matrix", "analyze",
        "build_forest", "maximum_matching", "null_basis", "parse_field_spec",
        "random_matrix", "rank_basis", "support", "transfer_null", "transfer_rank",
        "transversal_scaling",
    ]
    assert all(hasattr(forestnull, name) for name in forestnull.__all__)


def test_cli_imports_no_introspection_modules(tmp_path):
    # dataclasses imports inspect, ast, dis and tokenize, and argparse's
    # help formatter imports shutil, and with it bz2 and lzma: costs
    # every run would pay, where only help and usage errors build a parser
    path, out = tmp_path / "m.mtx", tmp_path / "out"
    path.write_text(M_P3_TEXT)
    script = """
import sys
from forestnull.cli import main
path, out = sys.argv[1:]
unused = {"dataclasses", "inspect", "ast", "dis", "tokenize", "shutil", "bz2", "lzma"}
assert main(["validate", path]) == 0
after_validate = sorted(unused & set(sys.modules))
assert main(["null-basis", path, "--check", "-o", out]) == 0
print([after_validate, sorted(unused & set(sys.modules))])
"""
    last = _run_fresh(script, path, out).splitlines()[-1]
    assert ast.literal_eval(last) == [[], []]


def _run_fresh(script, *args):
    """The stdout of ``script`` run by ``python -S`` in a fresh process
    that imports forestnull from this checkout."""
    src = str(Path(forestnull.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", script, *map(str, args)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_namespace_resolves_names_on_first_use():
    script = """
import sys
import forestnull
assert not [name for name in sys.modules if name.startswith("forestnull.")]
modules = ("errors", "fields", "forest", "generate", "kernel", "matrix", "rank", "scaling")
for name in modules:
    assert getattr(forestnull, name) is sys.modules["forestnull." + name], name
for name in forestnull.__all__:
    value = getattr(forestnull, name)
    assert getattr(sys.modules[value.__module__], name) is value, name
star = {}
exec("from forestnull import *", star)
assert sorted(set(star) - {"__builtins__"}) == sorted(forestnull.__all__)
assert set(forestnull.__all__) | set(modules) <= set(dir(forestnull))
try:
    forestnull.nope
except AttributeError as exc:
    assert str(exc) == "module 'forestnull' has no attribute 'nope'"
else:
    raise AssertionError("forestnull.nope resolved")
print("ok")
"""
    assert _run_fresh(script).splitlines()[-1] == "ok"


def test_cli_commands_import_only_what_they_run(tmp_path):
    # each command imports its compute modules, the oracle, json and
    # random on first use; validate and null-basis load none they skip,
    # and only gen loads random, whatever n --check runs at.
    # A well-formed call over GF(p) loads neither argparse, re and os
    # nor fractions and functools, nor what these bring; help does
    path, gf, out = tmp_path / "m.mtx", tmp_path / "gf7.mtx", tmp_path / "out"
    big = tmp_path / "big.mtx"
    path.write_text(M_P3_TEXT)
    gf.write_text(M_P3_GF7_TEXT)
    matrixio.write_matrix(random_matrix(oracle.ORACLE_BOUND + 88, 5, QQ, components=3), big)
    script = """
import sys
from forestnull.cli import main
gf, out = sys.argv[1:]
unused = ["argparse", "re", "enum", "gettext", "locale", "os", "functools", "fractions",
          "decimal", "numbers"]
assert main(["validate", gf]) == 0
after_validate = sorted(name for name in unused if name in sys.modules)
assert main(["null-basis", gf, "--check", "-o", out]) == 0
after_check = sorted(name for name in unused if name in sys.modules)
try:
    main(["null-basis", "-h"])
except SystemExit as exc:
    print([after_validate, after_check, exc.code, "argparse" in sys.modules])
"""
    lines = _run_fresh(script, gf, out).splitlines()
    assert any(line.startswith("usage: forestnull null-basis [-h]") for line in lines)
    assert ast.literal_eval(lines[-1]) == [[], [], 0, True]
    script = """
import sys
from forestnull.cli import main
path, big, out = sys.argv[1:]

def loaded(names):
    return sorted(name for name in names if name in sys.modules)

assert main(["validate", path]) == 0
after_validate = loaded(["forestnull.oracle", "forestnull.kernel", "forestnull.rank",
                         "forestnull.scaling", "forestnull.generate", "random", "json",
                         "heapq", "fractions"])
assert main(["null-basis", path, "-o", out]) == 0
after_null_basis = loaded(["forestnull.oracle", "forestnull.rank", "forestnull.generate",
                           "random", "json"])
codes = [main(argv) for argv in (
    ["null-basis", path, "--check", "-o", out],
    ["rank-basis", path, "--check", "--format", "json", "-o", out],
    ["rank-basis", big, "--check", "-o", out],
    ["support", path, "--json"])]
before_gen = loaded(["random"])
codes += [main(argv) for argv in (
    ["gen", "--n", "5", "--seed", "1", "--out", out],
    ["oracle", "rank", path, "-o", out])]
print([after_validate, after_null_basis, before_gen, loaded(["random"]), codes])
"""
    last = _run_fresh(script, path, big, out).splitlines()[-1]
    assert ast.literal_eval(last) == [["fractions"], [], [], ["random"], [0] * 6]


# Traced by perfbench/tracing.py, but moved into the tests' helpers:
# the tracer lists it in ``missing``
NO_LONGER_IN_SRC = {("oracle", "same_span")}


def test_traced_layer_functions_exist():
    # perfbench/tracing.py wraps these functions by name; each must resolve
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text()
    traced = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    assert traced
    assert NO_LONGER_IN_SRC <= {(module_name, attr) for _, module_name, attr in traced}
    for _, module_name, attr in traced:
        if (module_name, attr) in NO_LONGER_IN_SRC:
            assert not hasattr(importlib.import_module("forestnull." + module_name), attr)
            continue
        obj = importlib.import_module("forestnull." + module_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module_name, attr)


@pytest.mark.parametrize("command", ["null-basis", "rank-basis"])
def test_cli_check_at_and_above_the_oracle_cap(tmp_path, capsys, command):
    # one certificate at every n: the oracle's bound changes nothing
    for n in (oracle.ORACLE_BOUND, oracle.ORACLE_BOUND + 1):
        path = tmp_path / ("m%d.mtx" % n)
        m = random_matrix(n, n, QQ, components=2)
        matrixio.write_matrix(m, path)
        assert main([command, str(path), "--check", "-o", str(tmp_path / "b")]) == 0
        matching = maximum_matching(m.pattern)
        dimension = (sparsest_null_basis if command == "null-basis"
                     else rank_basis)(m, matching).dimension
        assert capsys.readouterr().err == (
            "check: ok (dimension %d, oracle span verified)\n" % dimension)


@pytest.mark.parametrize("spoiled", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("n", [40, 600])
def test_cli_null_basis_check_refuses_a_vector_not_annihilated(tmp_path, capsys, monkeypatch,
                                                              n, spoiled):
    # at every n, the certificate tests M x = 0 on the witness itself
    from forestnull import Basis

    path = tmp_path / "m.mtx"
    m = random_matrix(n, 3, QQ, components=2)
    matrixio.write_matrix(m, path)
    assert null_basis(m).dimension >= 1
    offsets = m.pattern.offsets
    w = next(v for v in range(m.n) if offsets[v] < offsets[v + 1])  # w has a neighbor

    def spoil(m, matching):
        vectors = null_basis(m).vectors
        vectors[spoiled] = vectors[spoiled].add(sv(m.n, {w: 1}))
        return Basis(vectors)

    monkeypatch.setattr("forestnull.kernel.sparsest_null_basis", spoil)
    assert main(["null-basis", str(path), "--check", "-o", str(tmp_path / "b")]) == 1
    assert capsys.readouterr() == ("", "error: check failed: span not certified\n")
    assert not (tmp_path / "b").exists()


def test_cli_non_ascii_file_gives_one_error_line(tmp_path, capsys):
    bad = tmp_path / "m.mtx"
    bad.write_bytes(b"%%MatrixMarket matrix coordinate rational general\n"
                    b"2 2 2\n1 2 \xc3\xa9\n2 1 1\n")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "not an ASCII text file" in err[0]
    vec = tmp_path / "x.json"
    vec.write_bytes(b'{"n": 2, "vector": {"1": "\xc3\xa9"}}')
    with pytest.raises(ParseError, match="not an ASCII text file"):
        matrixio.read_vector(vec)


@pytest.mark.parametrize("command, right, producer", [
    ("null-basis", sparsest_null_basis, "forestnull.kernel.sparsest_null_basis"),
    ("rank-basis", rank_basis, "forestnull.rank.rank_basis")], ids=["null-basis", "rank-basis"])
def test_cli_check_refuses_a_basis_with_the_wrong_span(tmp_path, capsys, monkeypatch,
                                                       command, right, producer):
    from forestnull import Basis

    path = tmp_path / "m.mtx"
    m = random_matrix(60, 5, QQ, components=3)
    matrixio.write_matrix(m, path)
    assert right(m, maximum_matching(m.pattern)).dimension >= 2

    def last_replaced_by_first(m, matching):
        # M x = 0 still holds and the dimension is unchanged
        vectors = right(m, matching).vectors
        return Basis(vectors[:-1] + vectors[:1])

    monkeypatch.setattr(producer, last_replaced_by_first)
    argv = [command, str(path), "--check", "-o", str(tmp_path / "b")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: check failed: span not certified\n"
    # the certificate's peel, its independence test, is what refuses it
    monkeypatch.setattr(oracle, "_peel", lambda supports, n: [])
    assert main(argv) == 0
    assert "check: ok" in capsys.readouterr().err

import ast
import importlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import forestnull
from forestnull import ParseError, PrimeField, QQ, ValidationError
from forestnull import matrixio, oracle
from forestnull.cli import main
from forestnull.generate import random_matrix
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
    ("3 1 5\n1 1 2\n1 1 3\n", "duplicate entry at \\(0, 0\\)"),
    ("3 2 3\n1 1 2\n3 2 3\n3 2 3\n", "duplicate entry at \\(2, 1\\)"),
    ("-1 0 0\n", "row count must be non-negative, got -1"),
    ("3 1 -1\n1 1 2\n", "entry count must be non-negative, got -1"),
    ("3 1 1\n1 one 2\n", "line 3: entry indices must be integers"),
])
def test_parse_basis_checks_the_size_line_like_the_matrix_reader(text, message):
    with pytest.raises(ParseError, match=message):
        matrixio.parse_basis("%%MatrixMarket matrix coordinate rational general\n" + text)


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
    assert doc["vector"] == {"1": "3", "3": "5"}


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


def test_cli_bench_smoke(capsys):
    assert main(["bench", "--sizes", "64,128", "--field", "gf:1000003",
                 "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "n,nnz,repeats,median_seconds,ratio_vs_prev"
    assert len(lines) == 3
    assert lines[1].startswith("64,126,1,")


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("matrix_text, vector_text", [
    ('{"n": 2, "field": "rational", "entries": [["a", 1, "3"]]}', None),
    ('{"n": 2, "field": "rational", "entries": 5}', None),
    ('{"n": 2, "field": "rational", "entries": [[1.9, 2, "1"], [2, 1, "1"]]}', None),
    (None, '{"n": 3, "field": "rational", "vector": {"x": "1"}}'),
    (None, '{"n": 3, "field": "rational", "vector": [1]}'),
    (None, '[{"n": 3, "field": "rational", "vector": {"1": "1"}}]'),
    ('{"n": 2, "field": "rational", "entries": [[1, 2, true], [2, 1, true]]}', None),
    ('{"n": 2, "field": "gf 7", "entries": [[1, 2, 1], [2, 1, false]]}', None),
    (None, '{"n": 3, "field": "rational", "vector": {"1": false}}'),
    (None, '{"n": 3, "field": "rational", "vector": {"1": "5", "01": "0"}}'),
    (None, '{"n": 3, "field": "rational", "vector": {"1": "5", "1": "0"}}'),
    ('{"n": 2, "field": "rational", "field": "gf 7", "entries": []}', None),
])
def test_cli_malformed_input_gives_one_error_line(tmp_path, m_p3, matrix_text,
                                                  vector_text):
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
    one_error_line(run_cli(argv))


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
        "build_forest", "in_row_space", "maximum_matching", "null_basis",
        "parse_field_spec", "random_matrix", "rank_basis", "rank_normalization",
        "same_pattern", "sparsest_null_basis", "support",
        "supported_neighborhood_vector", "transfer_null", "transfer_rank",
        "transversal_scaling",
    ]
    assert all(hasattr(forestnull, name) for name in forestnull.__all__)


def test_traced_layer_functions_exist():
    # perfbench/tracing.py wraps these functions by name; each must resolve
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text()
    traced = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    assert traced
    for _, module_name, attr in traced:
        obj = importlib.import_module("forestnull." + module_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module_name, attr)


def test_cli_rank_basis_check_above_the_oracle_cap(tmp_path, capsys, monkeypatch):
    from forestnull import Basis, cli
    from forestnull.rank import rank_basis

    path = tmp_path / "m.mtx"
    matrixio.write_matrix(random_matrix(40, 11, QQ, components=2), path)
    monkeypatch.setattr(oracle, "ORACLE_BOUND", 8)
    assert main(["rank-basis", str(path), "--check", "-o", str(tmp_path / "b")]) == 0
    err = capsys.readouterr().err
    assert "check: ok" in err and "equal to 2 * matching number" in err
    assert "orthogonal to a random null combination" in err
    assert "oracle skipped" in err

    def perturbed(m):
        basis = rank_basis(m)
        # add 1 at a support vertex to the last vector
        first = min(null_basis(m).vectors[0].entries)
        return Basis(basis.vectors[:-1] + [basis.vectors[-1].add(sv(m.n, {first: 1}))])

    monkeypatch.setattr(cli, "rank_basis", perturbed)
    assert main(["rank-basis", str(path), "--check", "-o", str(tmp_path / "b")]) == 1
    assert "not orthogonal to the null space" in capsys.readouterr().err

    monkeypatch.setattr(cli, "rank_basis", lambda m: Basis(rank_basis(m).vectors[1:]))
    assert main(["rank-basis", str(path), "--check", "-o", str(tmp_path / "b")]) == 1
    assert "check failed: dimension" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["null-basis", "rank-basis"])
def test_cli_check_at_and_above_the_oracle_cap(tmp_path, capsys, monkeypatch, command):
    # the oracle runs up to and including the bound, and is skipped above it
    monkeypatch.setattr(oracle, "ORACLE_BOUND", 8)
    for n, verdict in ((8, "oracle span verified"), (9, "oracle skipped")):
        path = tmp_path / ("m%d.mtx" % n)
        matrixio.write_matrix(random_matrix(n, n, QQ, components=2), path)
        assert main([command, str(path), "--check", "-o", str(tmp_path / "b")]) == 0
        err = capsys.readouterr().err
        assert err.startswith("check: ok") and verdict in err


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


@pytest.mark.parametrize("command, producer", [("null-basis", "null_basis"),
                                               ("rank-basis", "rank_basis")])
def test_cli_check_refuses_a_basis_with_the_wrong_span(tmp_path, capsys, monkeypatch,
                                                       command, producer):
    from forestnull import Basis, cli

    path = tmp_path / "m.mtx"
    m = random_matrix(60, 5, QQ, components=3)
    matrixio.write_matrix(m, path)
    right = getattr(cli, producer)
    assert right(m).dimension >= 2

    def last_replaced_by_first(m):
        # M x = 0 still holds and the dimension is unchanged
        vectors = right(m).vectors
        return Basis(vectors[:-1] + vectors[:1])

    monkeypatch.setattr(cli, producer, last_replaced_by_first)
    argv = [command, str(path), "--check", "-o", str(tmp_path / "b")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: check failed: span differs from the oracle\n"
    # the span comparison is what refuses it
    monkeypatch.setattr(cli.oracle, "same_span", lambda a, b: True)
    assert main(argv) == 0
    assert "check: ok" in capsys.readouterr().err

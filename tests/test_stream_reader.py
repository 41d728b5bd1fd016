"""The one-pass Matrix Market reader against the sorting path it hands
defective or unsorted files to: equal arrays on the same triples laid
out every way a file may lay them out, the same ``validate`` error for
every defect wherever it sits, and no per-vertex allocation before the
last entry line."""

import random
import tracemalloc

import pytest

from forestnull import PrimeField, QQ, AcyclicMatrix, ParseError, ValidationError
from forestnull import matrixio
from forestnull.cli import main
from forestnull.generate import random_matrix

HEAD = "%%MatrixMarket matrix coordinate rational general\n"

ARRAYS = ("neighbors", "offsets", "order", "parent", "parent_slot", "component_id")


def _layouts(m, rng):
    """Files holding m's entries: row-major, shuffled, with blank and
    comment lines between entries, with CRLF, with tabs, and with no
    final newline.  Yields (name, text, row-major?)."""
    fmt = m.field.format
    rows = [(u, v, x) for u in range(m.n) for v, x in m.row_items(u)]
    head = ["%%MatrixMarket matrix coordinate integer general", "% field: " + m.field.name,
            "%d %d %d" % (m.n, m.n, len(rows))]

    def text(entries, sep=" ", newline="\n", padding=False):
        lines = list(head)
        for u, v, x in entries:
            lines.append(sep.join(("%d" % (u + 1), "%d" % (v + 1), fmt(x))))
            if padding and rng.random() < 0.3:
                lines.append(rng.choice(["", "   ", "% a comment", "%", "% 1 2 3"]))
        return newline.join(lines)

    shuffled = rows[:]
    rng.shuffle(shuffled)
    still = shuffled == rows   # a shuffle of two entries or fewer may keep their order
    yield "row-major", text(rows) + "\n", True
    yield "shuffled", text(shuffled) + "\n", still
    yield "padded", text(rows, padding=True) + "\n", True
    yield "padded-shuffled", text(shuffled, padding=True) + "\n", still
    yield "crlf", text(rows, newline="\r\n") + "\r\n", True
    yield "tabs", text(rows, sep="\t") + "\n", True
    yield "no-final-newline", text(rows), True
    yield "shuffled-no-final-newline", text(shuffled, sep="\t"), still


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(1000003)],
                         ids=["rational", "gf7", "gf1000003"])
@pytest.mark.parametrize("components", [1, 2, 3, 4])
def test_stream_and_sorting_paths_build_equal_arrays(field, components, monkeypatch):
    rng = random.Random(components)
    real_from_entries = AcyclicMatrix.from_entries.__func__
    calls = []

    def counted(cls, *args):
        calls.append(1)
        return real_from_entries(cls, *args)

    monkeypatch.setattr(AcyclicMatrix, "from_entries", classmethod(counted))
    for n in (components, components + 1, 9, 60, 513):
        m = random_matrix(n, rng.randrange(1000), field, components)
        triples = [(u, v, x) for u in range(m.n) for v, x in m.row_items(u)]
        rng.shuffle(triples)
        ref = real_from_entries(AcyclicMatrix, n, triples, field)
        for name, text, row_major in _layouts(m, rng):
            del calls[:]
            got = matrixio.parse_matrix(text)
            assert bool(calls) != row_major, name   # the path the layout selects
            assert got.row_flat == ref.row_flat and got.col_flat == ref.col_flat, name
            for array_name in ARRAYS:
                assert getattr(got.pattern, array_name) == getattr(ref.pattern, array_name), \
                    (name, array_name)
            assert got.pattern.component_count == ref.pattern.component_count == components


# A 6-vertex tree, 1-based, its entries row-major; each defect is placed
# at the first, a middle and the last entry line.
TREE = [(1, 2), (1, 3), (2, 1), (2, 4), (2, 5), (3, 1), (3, 6), (4, 2), (5, 2), (6, 3)]
POSITIONS = {"first": 0, "middle": 5, "last": 9}
CLOSING = {0: (1, 4), 5: (3, 4), 9: (5, 6)}   # an edge that closes a cycle, per position


def _broken(defect, k):
    """The text of TREE's matrix with ``defect`` at entry line k."""
    entries = [[u, v, str(2 + i)] for i, (u, v) in enumerate(TREE)]
    u = TREE[k][0]
    a, b = CLOSING[k]
    size, count = 6, None
    if defect == "out-of-range":
        entries[k][1] = 7
    elif defect == "row-zero":
        entries[k][0] = 0
    elif defect == "column-zero":
        entries[k][1] = 0
    elif defect == "diagonal":
        entries[k][1] = u
    elif defect == "zero":
        entries[k][2] = "0/5"
    elif defect == "duplicate":
        entries.insert(k + 1, entries[k])
    elif defect == "disorder-then-duplicate":
        j = k + 1 if k == 0 else k - 1
        entries[k], entries[j] = entries[j], entries[k]
        entries.append(entries[k])
    elif defect == "bad-literal":
        entries[k][2] = "1/0"
    elif defect == "short-line":
        entries[k][2] = ""
    elif defect == "field-comment":
        entries.insert(k, ["% field: gf 7"])
    elif defect == "count":
        del entries[k]
        count = len(TREE)
    elif defect == "asymmetric":
        del entries[k]
    elif defect == "cyclic":
        entries += [[a, b, "3"], [b, a, "5"]]
        entries.sort(key=lambda e: e[:2])
    elif defect == "cyclic-at":
        entries[k:k] = [[a, b, "3"], [b, a, "5"]]
    elif defect == "cyclic-and-asymmetric":   # u < v positions are still half of all
        entries += [[a, b, "3"], [6, 5 if k != 9 else 4, "5"]]
        entries.sort(key=lambda e: e[:2])
    elif defect == "asymmetric-and-cyclic":   # they are not
        entries += [[a, b, "3"], [b, a, "5"]]
        entries.sort(key=lambda e: e[:2])
        del entries[k]
    elif defect == "negative-n":
        size, entries = -3, []
    lines = [" ".join(map(str, e)).strip() for e in entries]
    count = sum(1 for line in lines if not line.startswith("%")) if count is None else count
    return HEAD + "%d %d %d\n" % (size, size, count) + "".join(line + "\n" for line in lines)


DEFECTS = ("out-of-range", "row-zero", "column-zero", "diagonal", "zero", "duplicate", "disorder-then-duplicate",
           "bad-literal", "short-line", "field-comment", "count", "asymmetric", "cyclic",
           "cyclic-at", "cyclic-and-asymmetric", "asymmetric-and-cyclic")
BROKEN_FILES = [("%s@%s" % (defect, where), _broken(defect, k))
                for defect in DEFECTS for where, k in POSITIONS.items()]
BROKEN_FILES.append(("negative-n", _broken("negative-n", 0)))

# What ``validate`` printed for each file, after "error: ", when every
# file took the sorting path; it exits 1 on each.
VALIDATE_ERRORS = {
    'out-of-range@first': 'entry (1, 7) out of range for n=6',
    'out-of-range@middle': 'entry (3, 7) out of range for n=6',
    'out-of-range@last': 'entry (6, 7) out of range for n=6',
    'row-zero@first': 'entry (0, 2) out of range for n=6',
    'row-zero@middle': 'entry (0, 1) out of range for n=6',
    'row-zero@last': 'entry (0, 3) out of range for n=6',
    'column-zero@first': 'entry (1, 0) out of range for n=6',
    'column-zero@middle': 'entry (3, 0) out of range for n=6',
    'column-zero@last': 'entry (6, 0) out of range for n=6',
    'diagonal@first': 'nonzero diagonal entry at vertex 1',
    'diagonal@middle': 'nonzero diagonal entry at vertex 3',
    'diagonal@last': 'nonzero diagonal entry at vertex 6',
    'zero@first': 'explicit zero entry at (1, 2)',
    'zero@middle': 'explicit zero entry at (3, 1)',
    'zero@last': 'explicit zero entry at (6, 3)',
    'duplicate@first': 'duplicate entry at (1, 2)',
    'duplicate@middle': 'duplicate entry at (3, 1)',
    'duplicate@last': 'duplicate entry at (6, 3)',
    'disorder-then-duplicate@first': 'duplicate entry at (1, 3)',
    'disorder-then-duplicate@middle': 'duplicate entry at (2, 5)',
    'disorder-then-duplicate@last': 'duplicate entry at (5, 2)',
    'bad-literal@first': "line 3: bad rational literal '1/0': Fraction(1, 0)",
    'bad-literal@middle': "line 8: bad rational literal '1/0': Fraction(1, 0)",
    'bad-literal@last': "line 12: bad rational literal '1/0': Fraction(1, 0)",
    'short-line@first': "line 3: entry line must be 'row col value'",
    'short-line@middle': "line 8: entry line must be 'row col value'",
    'short-line@last': "line 12: entry line must be 'row col value'",
    'field-comment@first': 'line 3: field comment after the size line; it must come before it',
    'field-comment@middle': 'line 8: field comment after the size line; it must come before it',
    'field-comment@last': 'line 12: field comment after the size line; it must come before it',
    'count@first': 'size line announced 10 entries, found 9',
    'count@middle': 'size line announced 10 entries, found 9',
    'count@last': 'size line announced 10 entries, found 9',
    'asymmetric@first': 'asymmetric pattern: entry (2, 1) present but (1, 2) missing',
    'asymmetric@middle': 'asymmetric pattern: entry (1, 3) present but (3, 1) missing',
    'asymmetric@last': 'asymmetric pattern: entry (3, 6) present but (6, 3) missing',
    'cyclic@first': 'cycle detected at edge (2, 4)',
    'cyclic@middle': 'cycle detected at edge (3, 4)',
    'cyclic@last': 'cycle detected at edge (5, 6)',
    'cyclic-at@first': 'cycle detected at edge (2, 4)',
    'cyclic-at@middle': 'cycle detected at edge (3, 4)',
    'cyclic-at@last': 'cycle detected at edge (5, 6)',
    'cyclic-and-asymmetric@first': 'cycle detected at edge (2, 4)',
    'cyclic-and-asymmetric@middle': 'cycle detected at edge (3, 4)',
    'cyclic-and-asymmetric@last': 'cycle detected at edge (5, 6)',
    'asymmetric-and-cyclic@first': 'asymmetric pattern: entry (2, 1) present but (1, 2) missing',
    'asymmetric-and-cyclic@middle': 'asymmetric pattern: entry (1, 3) present but (3, 1) missing',
    'asymmetric-and-cyclic@last': 'asymmetric pattern: entry (6, 5) present but (5, 6) missing',
    'negative-n': 'vertex count must be non-negative',
}


@pytest.mark.parametrize("name, text", BROKEN_FILES, ids=[name for name, _ in BROKEN_FILES])
def test_validate_reports_each_defect_as_the_sorting_reader_did(tmp_path, capsys, name, text):
    path = tmp_path / "m.mtx"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "error: " + VALIDATE_ERRORS[name] + "\n"


@pytest.mark.parametrize("entries, message", [
    ("1 2 x\n", "line 3: bad rational literal"),
    ("1 2\n", "line 3: entry line must be 'row col value'"),
    ("1 2 3 4\n", "line 3: entry line must be 'row col value'"),
    ("1 2 3\n2 1 x\n", "line 4: bad rational literal"),
    ("10000000 1 3\n1 1 x\n", "line 4: bad rational literal"),
    ("10000000 10000001 3\n", "entry \\(10000000, 10000001\\) out of range"),
])
def test_a_huge_size_line_allocates_nothing_per_vertex_before_an_error(entries, message):
    text = HEAD + "10000000 10000000 %d\n" % entries.count("\n") + entries
    tracemalloc.start()
    try:
        with pytest.raises(ParseError if message.startswith("line") else ValidationError,
                           match=message):
            matrixio.parse_matrix(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20

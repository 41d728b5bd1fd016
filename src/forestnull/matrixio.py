"""Reading and writing matrices, bases and vectors.

Two interchangeable formats:

* Matrix-Market-style coordinate text: a banner line
  ``%%MatrixMarket matrix coordinate <real|integer|rational> general``,
  an optional ``% field: rational`` / ``% field: gf <p>`` comment before
  the size line, the size line, then 1-based ``row col value`` lines.
  A basis file is an n x dimension matrix, one column per vector, and
  follows the same rules for the banner, the field comment and the size
  line: matrices and bases share ``_coordinate_header`` and
  ``_coordinate_entries``.
* JSON: ``{"n": ..., "field": ..., "entries": [[u, v, "value"], ...]}``
  for matrices; basis and vector files carry sparse ``{vertex: value}``
  maps so the sparsity of the output stays visible.

Every reader turns scalar literals into field elements through one
``field.reader()`` per read (per call of a ``parse_*`` function): over
the rationals each distinct literal, up to ``fields.READER_CAP`` of
them, is parsed once and its value shared by every entry that repeats
it.  Nothing is kept from one read to the next.

Writers emit canonical text (sorted entries, canonical scalar strings,
trailing newline), so fixed inputs always produce identical bytes.  The
JSON writers build the layout of ``json.dumps(doc, indent=2)`` directly
in ``_json_blocks``, byte for byte, without the pure-Python encoder that
``indent`` selects.
"""

from __future__ import annotations

import io
import json
from json.encoder import encode_basestring_ascii as _quote

from . import oracle
from .errors import ParseError
from .fields import Field, QQ, parse_field_spec
from .matrix import MAX_VERTICES, AcyclicMatrix, Basis, SparseVector

_BANNER_FIELDS = ("real", "integer", "rational")


def _parse_int(value, what: str) -> int:
    """An int or a decimal integer string; int() alone would also
    truncate floats such as 1.9."""
    if type(value) in (int, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ParseError("%s must be an integer, got %r" % (what, value))


def _coordinate_head(field: Field, rows: int, cols: int, nnz: int) -> list:
    """The banner, field comment and size line of a coordinate file."""
    qualifier = "rational" if field == QQ else "integer"
    return ["%%MatrixMarket matrix coordinate " + qualifier + " general",
            "% field: " + field.name, "%d %d %d" % (rows, cols, nnz)]


def format_matrix(m: AcyclicMatrix, fmt: str = "mm") -> str:
    fmt_scalar = m.field.format
    if fmt == "mm":
        lines = _coordinate_head(m.field, m.n, m.n, m.nnz())
        for u, v, x in _row_major(m):
            lines.append("%d %d %s" % (u + 1, v + 1, fmt_scalar(x)))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        entries = _json_blocks("[]", (("%d" % (u + 1), "%d" % (v + 1), _quote(fmt_scalar(x)))
                                      for u, v, x in _row_major(m)), 2)
        return _json_document(m.n, m.field,
                              '"entries": ' + _json_blocks("[]", [entries], 1)[0])
    raise ParseError("unknown format %r (use 'mm' or 'json')" % fmt)


def _json_blocks(brackets: str, groups, depth: int) -> list:
    """Each group of members, already rendered, as one JSON array or
    object (``brackets`` "[]" or "{}") at nesting depth ``depth``, laid
    out as ``json.dumps(..., indent=2)`` lays it out."""
    pad = "\n" + "  " * (depth + 1)
    head, sep, tail = brackets[0] + pad, "," + pad, "\n" + "  " * depth + brackets[1]
    return [head + sep.join(members) + tail if members else brackets for members in groups]


def _json_document(n: int, field: Field, *members) -> str:
    """The text of ``json.dumps({"n": n, "field": field.name, ...},
    indent=2)`` plus a newline; ``members`` are the rendered key/value
    pairs after "field"."""
    head = ('"n": %d' % n, '"field": ' + _quote(field.name))
    return _json_blocks("{}", [head + members], 0)[0] + "\n"


def _row_major(m: AcyclicMatrix):
    for u in range(m.n):
        yield from ((u, v, x) for v, x in m.row_items(u))


def parse_matrix(source) -> AcyclicMatrix:
    """Read a matrix from a string or an open text file.

    Matrix Market text is consumed line by line as it is read; only the
    JSON layout is read in full first.
    """
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    first = next(lines, "")
    if first.startswith("%%MatrixMarket"):
        return _parse_matrix_mm(first, lines)
    text = first + "".join(lines)
    if text.lstrip().startswith("{"):
        return _parse_matrix_json(text)
    raise ParseError("missing %%MatrixMarket banner", line=1)


def _field_comment(line: str):
    """The field spec text of a ``% field: ...`` comment line, else None."""
    body = line.lstrip("%").strip()
    if body.lower().startswith("field:"):
        return body[len("field:"):]
    return None


def _coordinate_header(banner: str, lines):
    """Check the banner, then read ``lines`` up to the size line: the
    field the ``% field:`` comments select, the size line's three
    counts, and its line number."""
    tokens = banner.split()
    if (len(tokens) != 5 or tokens[1] != "matrix" or tokens[2] != "coordinate"
            or tokens[3] not in _BANNER_FIELDS or tokens[4] != "general"):
        raise ParseError("unsupported banner %r (expected 'matrix coordinate "
                         "<real|integer|rational> general')" % banner.rstrip("\r\n"),
                         line=1)
    field = QQ
    for idx, raw in enumerate(lines, start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("%"):
            spec = _field_comment(line)
            if spec is not None:
                try:
                    field = parse_field_spec(spec)
                except Exception as exc:
                    raise ParseError(str(exc), line=idx)
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("size line must be 'rows cols nnz'", line=idx)
        try:
            rows, cols, nnz = (int(p) for p in parts)
        except ValueError:
            raise ParseError("size line must hold three integers", line=idx)
        return field, rows, cols, nnz, idx
    raise ParseError("missing size line")


def _coordinate_entries(lines, idx: int, field: Field) -> list:
    """The 0-based (row, col, value) triples of the lines after the size
    line, which is line ``idx``."""
    parse = field.reader()
    triples = []
    append = triples.append
    for idx, raw in enumerate(lines, start=idx + 1):
        try:
            a, b, c = raw.split()
            u = int(a) - 1
            v = int(b) - 1
        except ValueError:
            _check_non_entry_line(raw, idx)
            continue
        try:
            value = parse(c)
        except Exception as exc:
            raise ParseError(str(exc), line=idx)
        append((u, v, value))
    return triples


def _parse_matrix_mm(banner: str, lines) -> AcyclicMatrix:
    field, n, cols, nnz, idx = _coordinate_header(banner, lines)
    if n != cols:
        raise ParseError("matrix must be square, got %d x %d" % (n, cols), line=idx)
    if n > MAX_VERTICES:
        raise ParseError("matrix size %d exceeds the limit of %d vertices"
                         % (n, MAX_VERTICES), line=idx)
    triples = _coordinate_entries(lines, idx, field)
    if len(triples) != nnz:
        raise ParseError("size line announced %d entries, found %d"
                         % (nnz, len(triples)))
    return AcyclicMatrix.from_entries(n, triples, field)


def _check_non_entry_line(raw: str, idx: int):
    """Accept a blank or comment line after the size line; anything else
    that is not a well-formed entry line is an error."""
    line = raw.strip()
    if not line:
        return
    if line.startswith("%"):
        if _field_comment(line) is not None:
            raise ParseError("field comment after the size line; it must "
                             "come before it", line=idx)
        return
    if len(line.split()) != 3:
        raise ParseError("entry line must be 'row col value'", line=idx)
    raise ParseError("entry indices must be integers", line=idx)


def _load_json(text: str, what: str, keys) -> dict:
    """The JSON object in text, which must hold each of keys."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError("bad JSON: %s" % exc, line=exc.lineno)
    if not isinstance(doc, dict):
        raise ParseError("%s JSON must be an object" % what)
    for key in keys:
        if key not in doc:
            raise ParseError("%s JSON needs a %r key" % (what, key))
    return doc


def _unique_keys(pairs) -> dict:
    """A JSON object's members as a dict; json.loads alone would keep
    only the last value of a repeated key."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError("repeated key %s in a JSON object" % _quote(key))
            seen.add(key)
    return doc


def _parse_matrix_json(text: str) -> AcyclicMatrix:
    doc = _load_json(text, "matrix", ("n", "entries"))
    field = parse_field_spec(doc.get("field", "rational"))
    if not isinstance(doc["entries"], list):
        raise ParseError("matrix JSON 'entries' must be a list")
    value_of = _json_scalar_reader(field)
    triples = []
    for item in doc["entries"]:
        if not (isinstance(item, list) and len(item) == 3):
            raise ParseError("each entry must be [row, col, value], got %r" % (item,))
        u, v, value = item
        triples.append((_parse_int(u, "entry row") - 1,
                        _parse_int(v, "entry column") - 1, value_of(value)))
    return AcyclicMatrix.from_entries(_parse_int(doc["n"], "n"), triples, field)


def _json_scalar_reader(field: Field):
    """Element of a JSON value for one read: strings through one
    ``field.reader()``, other values (JSON integers) through ``coerce``."""
    read, coerce = field.reader(), field.coerce
    return lambda value: read(value) if type(value) is str else coerce(value)


def _read_ascii(path, parse):
    with open(path, "r", encoding="ascii") as handle:
        try:
            return parse(handle)
        except UnicodeDecodeError as exc:
            raise ParseError("not an ASCII text file: %s" % exc)


def read_matrix(path) -> AcyclicMatrix:
    return _read_ascii(path, parse_matrix)


def write_matrix(m: AcyclicMatrix, path, fmt: str = "mm"):
    with open(path, "w", encoding="ascii") as handle:
        handle.write(format_matrix(m, fmt))


def format_basis(basis, n: int, field: Field, fmt: str = "mm") -> str:
    """Basis as an n x dimension sparse matrix (one column per vector)."""
    vectors = basis.vectors
    if fmt == "mm":
        lines = _coordinate_head(field, n, len(vectors), sum(vec.nnz() for vec in vectors))
        for j, vec in enumerate(vectors, start=1):
            for v in sorted(vec.entries):
                lines.append("%d %d %s" % (v + 1, j, field.format(vec.entries[v])))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        maps = _json_blocks("{}", map(_vector_members, vectors), 2)
        return _json_document(n, field, '"dimension": %d' % len(vectors),
                              '"vectors": ' + _json_blocks("[]", [maps], 1)[0])
    raise ParseError("unknown format %r (use 'mm' or 'json')" % fmt)


def parse_basis(text: str) -> Basis:
    """Basis files round-trip through the same coordinate/JSON layouts."""
    if text.lstrip().startswith("{"):
        doc = _load_json(text, "basis", ("n", "vectors"))
        field = parse_field_spec(doc.get("field", "rational"))
        n = _parse_count(doc["n"], "n")
        if not isinstance(doc["vectors"], list):
            raise ParseError("basis JSON 'vectors' must be a list")
        _check_basis_size(len(doc["vectors"]), n)
        value_of = _json_scalar_reader(field)
        return _independent_basis(field, [_vector_from_map(n, field, value_of, vec)
                                          for vec in doc["vectors"]])
    lines = io.StringIO(text, newline=None)
    banner = next(lines, "")
    if not banner.startswith("%%MatrixMarket"):
        raise ParseError("missing %%MatrixMarket banner", line=1)
    field, n, dim, nnz, idx = _coordinate_header(banner, lines)
    _parse_count(n, "row count")
    _parse_count(nnz, "entry count")
    _check_basis_size(dim, n)
    triples = _coordinate_entries(lines, idx, field)
    columns = {}
    for v, j, x in triples:
        if not 0 <= j < dim:
            raise ParseError("entry column %d out of range for %d columns" % (j + 1, dim))
        column = columns.setdefault(j, {})
        if v in column:
            raise ParseError("duplicate entry at (%d, %d)" % (v, j))
        column[v] = x
    if len(triples) != nnz:
        raise ParseError("size line announced %d entries, found %d" % (nnz, len(triples)))
    if len(columns) < dim:
        empty = next(j for j in range(dim) if j not in columns)
        raise ParseError("basis vector %d has no entries" % (empty + 1))
    return _independent_basis(field, [SparseVector(n, field, columns[j]) for j in range(dim)])


def _parse_count(value, what: str) -> int:
    """A non-negative integer, such as a vector length."""
    count = _parse_int(value, what)
    if count < 0:
        raise ParseError("%s must be non-negative, got %d" % (what, count))
    return count


def _check_basis_size(dim: int, n: int):
    """Refuse a vector count no basis of length-n vectors can have,
    before anything is allocated per vector."""
    if not 0 <= dim <= n:
        raise ParseError("a basis of vectors of length %d holds 0 to %d vectors, "
                         "not %d" % (n, max(n, 0), dim))


def _independent_basis(field: Field, vectors) -> Basis:
    """A zero vector cannot be in a basis, nor one that depends on others."""
    for j, vec in enumerate(vectors, start=1):
        if vec.is_zero():
            raise ParseError("basis vector %d is zero" % j)
    echelon = oracle._Echelon(field)
    for j, vec in enumerate(vectors, start=1):
        if not echelon.insert(vec):
            raise ParseError("basis vector %d depends on the vectors before it" % j)
    return Basis(vectors)


def _vector_members(vec: SparseVector) -> list:
    """The rendered ``"vertex": "value"`` members of vec's JSON object."""
    fmt = vec.field.format
    return ['"%d": %s' % (v + 1, _quote(fmt(x))) for v, x in sorted(vec.entries.items())]


def _vector_from_map(n: int, field: Field, value_of, mapping: dict) -> SparseVector:
    if not isinstance(mapping, dict):
        raise ParseError("a vector must be a {vertex: value} object, got %r" % (mapping,))
    entries = {}
    for key, value in mapping.items():
        v = _parse_int(key, "vector index") - 1
        if v in entries:
            raise ParseError("vertex %d appears twice in one vector" % (v + 1))
        entries[v] = value_of(value)
    return SparseVector(n, field, entries)


def format_vector(vec: SparseVector) -> str:
    return _json_document(vec.n, vec.field,
                          '"vector": ' + _json_blocks("{}", [_vector_members(vec)], 1)[0])


def parse_vector(text: str) -> SparseVector:
    doc = _load_json(text, "vector", ("n", "vector"))
    field = parse_field_spec(doc.get("field", "rational"))
    return _vector_from_map(_parse_count(doc["n"], "n"), field,
                            _json_scalar_reader(field), doc["vector"])


def read_vector(path) -> SparseVector:
    return _read_ascii(path, lambda handle: parse_vector(handle.read()))

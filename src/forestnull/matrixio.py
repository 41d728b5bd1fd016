"""Reading and writing matrices, bases and vectors.

Two interchangeable formats:

* Matrix-Market-style coordinate text: a banner line
  ``%%MatrixMarket matrix coordinate <real|integer|rational> general``,
  an optional ``% field: rational`` / ``% field: gf <p>`` comment before
  the size line, the size line, then 1-based ``row col value`` lines.
  A basis file is an n x dimension matrix, one column per vector, and
  follows the same rules for the banner, the field comment and the size
  line: matrices and bases share ``_coordinate_header`` and
  ``_coordinate_entries``.  A matrix whose entries come in row-major
  order is read in one pass straight into its CSR arrays, with its
  offsets from ``matrix._row_offsets`` as in ``from_entries``; any
  other order is sorted first, and both give the same matrix and the
  same errors.
* JSON: ``{"n": ..., "field": ..., "entries": [[u, v, "value"], ...]}``
  for matrices; basis and vector files carry sparse ``{vertex: value}``
  maps so the sparsity of the output stays visible.

Every reader turns scalar literals into field elements through one
``field.reader()`` per read (per call of a ``parse_*`` function): over
the rationals each distinct literal, up to ``fields.READER_CAP`` of
them, is parsed once and its value shared by every entry that repeats
it.  Nothing is kept from one read to the next.  An error raised while
reading names vertices 1-based, as the file writes them; the library
behind the readers counts from 0 and raises with 0-based ids.

Writers emit canonical text (sorted entries, canonical scalar strings,
trailing newline), so fixed inputs always produce identical bytes.  The
JSON writers build the layout of ``json.dumps(doc, indent=2)`` directly
in ``_json_blocks``, byte for byte, without the pure-Python encoder that
``indent`` selects.

``json`` is imported on the first JSON read or write, and ``oracle``
only to check that a basis read from a file is independent, so reading
and writing Matrix Market matrices loads neither.  A coordinate file
over GF(p) builds no rational field, so it loads no ``fractions``
either: the rational default is taken only after the size line, when
no ``% field:`` comment came before it.
"""

from __future__ import annotations

import io
from array import array
from itertools import chain

from .errors import ParseError, ValidationError
from .fields import Field, RationalField, parse_field_spec
from .matrix import MAX_VERTICES, AcyclicMatrix, Basis, SparseVector, _row_offsets

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
    qualifier = "rational" if isinstance(field, RationalField) else "integer"
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
        quote = _quoter()
        entries = _json_blocks("[]", (("%d" % (u + 1), "%d" % (v + 1), quote(fmt_scalar(x)))
                                      for u, v, x in _row_major(m)), 2)
        return _json_document(m.n, m.field,
                              '"entries": ' + _json_blocks("[]", [entries], 1)[0])
    raise ParseError("unknown format %r (use 'mm' or 'json')" % fmt)


def _quoter():
    """``json``'s ASCII string quoter, imported on first use; each JSON
    writer binds it once per call."""
    from json.encoder import encode_basestring_ascii
    return encode_basestring_ascii


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
    head = ('"n": %d' % n, '"field": ' + _quoter()(field.name))
    return _json_blocks("{}", [head + members], 0)[0] + "\n"


def _row_major(m: AcyclicMatrix):
    for u in range(m.n):
        yield from ((u, v, x) for v, x in m.row_items(u))


def _ids_as_written(parse):
    """``parse``, with the vertex ids its validation errors name counted
    from 1, as the files write them; the library counts from 0."""
    def read(source, *pattern):
        try:
            return parse(source, *pattern)
        except ValidationError as exc:
            raise exc.one_based() from None
    read.__name__, read.__qualname__ = parse.__name__, parse.__qualname__
    read.__doc__, read.__wrapped__ = parse.__doc__, parse
    return read


@_ids_as_written
def parse_matrix(source, pattern=None) -> AcyclicMatrix:
    """Read a matrix from a string or an open text file.

    Matrix Market text is consumed line by line as it is read; only the
    JSON layout is read in full first.  A row-major file on the layout of
    the forest ``pattern`` shares it (``AcyclicMatrix._from_csr``).
    """
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    first = next(lines, "")
    if first.startswith("%%MatrixMarket"):
        return _parse_matrix_mm(first, lines, pattern)
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
    field = None  # rational unless a field comment names another
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
        return field or parse_field_spec("rational"), rows, cols, nnz, idx
    raise ParseError("missing size line")


def _coordinate_entries(lines, idx: int, parse) -> list:
    """The 0-based (row, col, value) triples of the lines after line
    ``idx``, their values read by ``parse``."""
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


def _parse_matrix_mm(banner: str, lines, pattern) -> AcyclicMatrix:
    """Entries in row-major order, as ``format_matrix`` writes them, go
    straight into the CSR arrays: an entry in the row of the one before
    has a larger column, one in a new row a larger row, so the columns
    are the neighbor array and each row records its first slot, for
    ``_row_offsets``.  Blank and comment lines are skipped; a line that
    is no entry at all is refused, as in ``_coordinate_entries``.  At the
    first entry out of that order, out of range, on the diagonal, zero or
    unreadable, the entries so far join the triples ``_coordinate_entries``
    reads from that line on, and ``from_entries`` sorts them and raises
    every error as for any other order.  Nothing is allocated per vertex
    until the last line is read."""
    field, n, cols, nnz, idx = _coordinate_header(banner, lines)
    if n != cols:
        raise ParseError("matrix must be square, got %d x %d" % (n, cols), line=idx)
    if n > MAX_VERTICES:
        raise ParseError("matrix size %d exceeds the limit of %d vertices"
                         % (n, MAX_VERTICES), line=idx)
    parse = field.reader()
    neighbors, row_flat = [], []
    column, value = neighbors.append, row_flat.append
    heads, starts = [], []  # the rows with entries, ascending, and their first slots
    head, prev = -1, n  # row -1 takes no column: row 0 of a file is out of range
    for raw in lines:  # idx + len(neighbors) + 1 is the number of this line
        try:
            a, b, c = raw.split()
            u = int(a) - 1
            v = int(b) - 1
        except ValueError:
            idx += 1
            _check_non_entry_line(raw, idx + len(neighbors))
            continue
        x = None
        if (prev < v < n if u == head else head < u < n and 0 <= v < n) and u != v:
            try:
                x = parse(c)
            except Exception:  # _coordinate_entries reports it
                pass
        if not x:
            ends = starts[1:] + [len(neighbors)]
            triples = [(r, neighbors[j], row_flat[j])
                       for r, lo, hi in zip(heads, starts, ends) for j in range(lo, hi)]
            triples += _coordinate_entries(chain([raw], lines), idx + len(neighbors), parse)
            return _sorted_matrix(n, nnz, field, triples)
        if u != head:
            heads.append(u)
            starts.append(len(neighbors))
            head = u
        column(v)
        value(x)
        prev = v
    if n < 0:  # no entry fits a negative n
        return _sorted_matrix(n, nnz, field, [])
    _check_entry_count(nnz, len(neighbors))
    return AcyclicMatrix._from_csr(n, field, array("i", neighbors),
                                   _row_offsets(n, heads, starts, len(neighbors)), row_flat,
                                   pattern)


def _sorted_matrix(n: int, nnz: int, field: Field, triples: list) -> AcyclicMatrix:
    """The matrix of the triples of a whole file, in any order: its
    count is checked, then ``from_entries`` sorts and validates them."""
    _check_entry_count(nnz, len(triples))
    return AcyclicMatrix.from_entries(n, triples, field)


def _check_entry_count(announced: int, found: int):
    if found != announced:
        raise ParseError("size line announced %d entries, found %d" % (announced, found))


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
    import json
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
                raise ParseError("repeated key %s in a JSON object" % _quoter()(key))
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


def read_matrix(path, pattern=None) -> AcyclicMatrix:
    return _read_ascii(path, lambda handle: parse_matrix(handle, pattern))


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
        quote = _quoter()
        maps = _json_blocks("{}", (_vector_members(vec, quote) for vec in vectors), 2)
        return _json_document(n, field, '"dimension": %d' % len(vectors),
                              '"vectors": ' + _json_blocks("[]", [maps], 1)[0])
    raise ParseError("unknown format %r (use 'mm' or 'json')" % fmt)


@_ids_as_written
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
    triples = _coordinate_entries(lines, idx, field.reader())
    columns = {}
    for v, j, x in triples:
        if not 0 <= j < dim:
            raise ParseError("entry column %d out of range for %d columns" % (j + 1, dim))
        column = columns.setdefault(j, {})
        if v in column:
            raise ParseError("duplicate entry at (%d, %d)" % (v + 1, j + 1))
        column[v] = x
    _check_entry_count(nnz, len(triples))
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
    from .oracle import first_dependent
    j = first_dependent(field, vectors)
    if j >= 0:
        raise ParseError("basis vector %d depends on the vectors before it" % (j + 1))
    return Basis(vectors)


def _vector_members(vec: SparseVector, quote) -> list:
    """The rendered ``"vertex": "value"`` members of vec's JSON object,
    each value quoted by ``quote``."""
    fmt = vec.field.format
    return ['"%d": %s' % (v + 1, quote(fmt(x))) for v, x in sorted(vec.entries.items())]


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
    members = _vector_members(vec, _quoter())
    return _json_document(vec.n, vec.field, '"vector": ' + _json_blocks("{}", [members], 1)[0])


@_ids_as_written
def parse_vector(text: str) -> SparseVector:
    doc = _load_json(text, "vector", ("n", "vector"))
    field = parse_field_spec(doc.get("field", "rational"))
    return _vector_from_map(_parse_count(doc["n"], "n"), field,
                            _json_scalar_reader(field), doc["vector"])


def read_vector(path) -> SparseVector:
    return _read_ascii(path, lambda handle: parse_vector(handle.read()))

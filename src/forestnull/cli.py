"""Command line front end.

Subcommands: validate, support, null-basis, rank-basis, transfer, gen,
oracle.  Exit codes: 0 success, 1 validation/computation failure,
2 usage error.  All output is deterministic byte for byte for fixed
inputs and flags.

A handler imports what it runs when it runs, so each command loads
only its own modules: ``validate`` reads and checks the file and no
more.  ``oracle`` loads only for ``--check`` and the ``oracle``
command, ``json`` only for ``support --json`` and JSON input or output
(through ``matrixio``), and ``random`` only for ``gen`` and the
above-bound ``rank-basis --check``.
"""

from __future__ import annotations

import argparse
import sys
from itertools import count

from . import matrixio
from .errors import ForestNullError, ValidationError
from .fields import PrimeField, parse_field_spec
from .matrix import SparseVector


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of all seven subcommands, or of ``command`` alone,
    whose top-level usage still names all seven."""
    parser = argparse.ArgumentParser(
        prog="forestnull",
        description="Sparsest null bases and row-space bases of zero-diagonal "
                    "matrices whose nonzero pattern is a forest.")
    metavar = None if command is None else "{%s}" % ",".join(_SUBCOMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _SUBCOMMANDS if command is None else (command,):
        what, add_arguments = _SUBCOMMANDS[name]
        add_arguments(sub.add_parser(name, help=what))
    return parser


def _file_arguments(p):
    p.add_argument("file")


def _support_arguments(p):
    p.add_argument("file")
    p.add_argument("--json", action="store_true")


def _basis_arguments(p):
    p.add_argument("file")
    p.add_argument("-o", "--out")
    p.add_argument("--format", choices=("mm", "json"), default="mm")
    p.add_argument("--check", action="store_true",
                   help="verify the result: up to n = 512 a rank certificate "
                        "(matched rows and a null basis that peel), with an exact "
                        "elimination only when it is inconclusive; cheaper checks above")


def _transfer_arguments(p):
    p.add_argument("--space", choices=("null", "rank"), required=True)
    p.add_argument("--from", dest="source", required=True, metavar="M")
    p.add_argument("--to", dest="target", required=True, metavar="N")
    p.add_argument("--vector", required=True, metavar="X_JSON")
    p.add_argument("-o", "--out")


def _gen_arguments(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", default="rational")
    p.add_argument("--components", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--format", choices=("mm", "json"), default="mm")


def _oracle_arguments(p):
    p.add_argument("operation", choices=("null-basis", "rank", "min-support"))
    p.add_argument("file")
    p.add_argument("-o", "--out")
    p.add_argument("--format", choices=("mm", "json"), default="mm")


# command -> (help line, what adds its arguments)
_SUBCOMMANDS = {
    "validate": ("check that a file holds a valid matrix", _file_arguments),
    "support": ("print support, core, S-set and dimensions", _support_arguments),
    "null-basis": ("compute the sparsest null-space basis", _basis_arguments),
    "rank-basis": ("compute the row-space basis", _basis_arguments),
    "transfer": ("move a vector between matrices sharing a pattern", _transfer_arguments),
    "gen": ("generate a seeded random instance", _gen_arguments),
    "oracle": ("brute-force cross checks", _oracle_arguments),
}


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    m = matrixio.read_matrix(args.file)
    print("ok: n=%d nnz=%d components=%d field=%s"
          % (m.n, m.nnz(), m.pattern.component_count, m.field.name))
    return 0


def _cmd_support(args) -> int:
    from .kernel import analyze
    m = matrixio.read_matrix(args.file)
    analysis = analyze(m.pattern)
    nu, supp, core = analysis.matching.nu, analysis.support.supp, analysis.support.core
    rows = [("n", m.n), ("components", m.pattern.component_count),
            ("matching-number", nu), ("null-dimension", m.n - 2 * nu), ("rank", 2 * nu)]
    rows += [(key, sorted(v + 1 for v in ids))
             for key, ids in (("supp", supp), ("core", core), ("s-set", supp | core))]
    if args.json:
        import json
        print(json.dumps({key.replace("-", "_"): value for key, value in rows}, indent=2))
    else:
        for key, value in rows:
            print("%s: %s" % (key, " ".join(map(str, value))
                              if isinstance(value, list) else value))
    return 0


def _cmd_basis(args) -> int:
    m = matrixio.read_matrix(args.file)
    null = args.command == "null-basis"
    if null:
        from .scaling import null_basis as produce
    else:
        from .rank import rank_basis as produce
    basis = produce(m)
    verified = None
    if args.check:  # before the output, so that a refused run writes nothing
        from . import oracle
        if null:
            _check_annihilated(m, basis)
        if m.n <= oracle.ORACLE_BOUND:
            _check_span_certificate(m, basis, null)
            verified = "oracle span verified"
        elif null:
            verified = "oracle skipped for n > bound"
        else:
            draws = _check_rank_basis_without_oracle(m, basis)
            verified = ("equal to 2 * matching number by tree DP, independent by peeling, "
                        "orthogonal to a random null combination in each of %d independent "
                        "draws (miss probability at most 2^-40), oracle skipped for n > bound"
                        % draws)
    _emit(matrixio.format_basis(basis, m.n, m.field, args.format), args.out)
    if verified:
        print("check: ok (dimension %d, %s)" % (basis.dimension, verified), file=sys.stderr)
    return 0


def _check_span_certificate(m, basis, null):
    """span(basis) is the target space S, the null space (null) or the
    row space of m.  A certificate needs no elimination
    (``oracle.certifies_span``): m's rows at the vertices that
    ``kernel.maximum_matching`` matches, and a null witness, fix the
    rank.  The witness is the output (M x = 0 is checked before) or,
    for the row space, ``kernel.sparsest_null_basis``, annihilated here.
    Only when it is inconclusive does one exact elimination of m decide:
    dim S vectors, independent (``oracle.first_dependent``), each in S
    (M x = 0, or reduction to zero against the elimination's rows)."""
    from . import oracle
    from .kernel import maximum_matching, sparsest_null_basis
    matching = maximum_matching(m.pattern)
    matched = [v for v, p in enumerate(matching.partner) if p >= 0]
    witness = basis if null else sparsest_null_basis(m, matching)
    if ((null or _annihilated(m, witness))
            and oracle.certifies_span(m, matched, witness, None if null else basis)):
        return
    echelon = oracle.row_echelon(m)
    rank = len(echelon.rows)
    if (basis.dimension != (m.n - rank if null else rank)
            or not (null or all(map(echelon.contains, basis.vectors)))
            or oracle.first_dependent(m.field, basis.vectors) >= 0):
        raise ValidationError("check failed: span differs from the oracle")


def _check_annihilated(m, basis):
    if not _annihilated(m, basis):
        raise ValidationError("check failed: output vector is not annihilated")


def _annihilated(m, basis) -> bool:
    """M x = 0 for every vector x of the basis, in one loop over M's CSR
    arrays and column-side values: nothing the fast path derived from M
    is read."""
    add, mul, zero = m.field.add, m.field.mul, m.field.zero
    neighbors, offsets, col_flat = m.pattern.neighbors, m.pattern.offsets, m.col_flat
    for vec in basis.vectors:
        product = {}
        get = product.get
        for v, x in vec.entries.items():
            for j in range(offsets[v], offsets[v + 1]):
                u = neighbors[j]
                product[u] = add(get(u, zero), mul(col_flat[j], x))
        if any(product.values()):
            return False
    return True


def _check_rank_basis_without_oracle(m, basis) -> int:
    """Checks that stay cheap at any n: the dimension is 2 nu, with nu
    from the oracle's tree DP; the vectors peel completely
    (``oracle._peel``), which proves them independent, as a row basis
    of m always does; and every vector is orthogonal to seeded
    random combinations of the null basis, as row-space vectors are
    orthogonal to the whole null space.  The coefficients are uniform
    over a set of q values, the field for GF(p) and [1, 2^31) for Q, so
    a vector not orthogonal to the null space is orthogonal to one
    combination with probability at most 1/q (Schwartz-Zippel); the
    smallest number k of independent combinations with q^k >= 2^40
    misses it with probability at most 2^-40.  Returns k."""
    import random
    from . import oracle
    from .scaling import null_basis
    nu = oracle._dp_matching_number(m.pattern)
    if basis.dimension != 2 * nu:
        raise ValidationError("check failed: dimension %d, expected 2 * %d"
                              % (basis.dimension, nu))
    if oracle._peel([vec.entries for vec in basis.vectors], m.n):
        raise ValidationError("check failed: basis vectors do not peel "
                              "(independence unproven)")
    field = m.field
    add, mul, zero = field.add, field.mul, field.zero
    low, high = (0, field.p) if isinstance(field, PrimeField) else (1, 2 ** 31)
    draws = next(k for k in count(1) if (high - low) ** k >= 2 ** 40)
    rng = random.Random(0)
    null_vectors = null_basis(m).vectors
    for _ in range(draws):
        combination = {}
        for vec in null_vectors:
            c = field.coerce(rng.randrange(low, high))
            for v, x in vec.entries.items():
                combination[v] = add(combination.get(v, zero), mul(c, x))
        probe = SparseVector(m.n, field, combination)
        for vec in basis.vectors:
            if vec.dot(probe):
                raise ValidationError("check failed: a basis vector is not orthogonal "
                                      "to the null space")
    return draws


def _cmd_transfer(args) -> int:
    from .rank import transfer_rank
    from .scaling import transfer_null
    m = matrixio.read_matrix(args.source)
    n_mat = matrixio.read_matrix(args.target)
    x = matrixio.read_vector(args.vector)
    if args.space == "null":
        result = transfer_null(m, n_mat, x)
    else:
        result = transfer_rank(m, n_mat, x)
    _emit(matrixio.format_vector(result), args.out)
    return 0


def _cmd_gen(args) -> int:
    from .generate import random_matrix
    field = parse_field_spec(args.field)
    m = random_matrix(args.n, args.seed, field, args.components)
    _emit(matrixio.format_matrix(m, args.format), args.out)
    return 0


def _cmd_oracle(args) -> int:
    from . import oracle
    m = matrixio.read_matrix(args.file)
    if args.operation == "null-basis":
        basis = oracle.dense_null_space(m)
        _emit(matrixio.format_basis(basis, m.n, m.field, args.format), args.out)
    elif args.operation == "rank":
        rank = len(oracle.row_echelon(m).rows)
        _emit("rank: %d\nnull-dimension: %d\n" % (rank, m.n - rank), args.out)
    else:
        total = oracle.min_support_total(m)
        _emit("min-support-total: %d\n" % total, args.out)
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "support": _cmd_support,
    "null-basis": _cmd_basis,
    "rank-basis": _cmd_basis,
    "transfer": _cmd_transfer,
    "gen": _cmd_gen,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ForestNullError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

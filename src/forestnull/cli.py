"""Command line front end.

Subcommands: validate, support, null-basis, rank-basis, transfer, gen,
bench, oracle.  Exit codes: 0 success, 1 validation/computation failure,
2 usage error.  All output except bench timings is deterministic byte
for byte for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import bench as bench_mod
from . import matrixio, oracle
from .errors import ForestNullError, ValidationError
from .fields import parse_field_spec
from .generate import random_matrix
from .kernel import analyze
from .matrix import SparseVector
from .rank import rank_basis, transfer_rank
from .scaling import null_basis, transfer_null


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestnull",
        description="Sparsest null bases and row-space bases of zero-diagonal "
                    "matrices whose nonzero pattern is a forest.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check that a file holds a valid matrix")
    p.add_argument("file")

    p = sub.add_parser("support", help="print support, core, S-set and dimensions")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    for name, what in (("null-basis", "sparsest null-space basis"),
                       ("rank-basis", "row-space basis")):
        p = sub.add_parser(name, help="compute the " + what)
        p.add_argument("file")
        p.add_argument("-o", "--out")
        p.add_argument("--format", choices=("mm", "json"), default="mm")
        p.add_argument("--check", action="store_true",
                       help="verify the result (oracle cross-check for small n)")

    p = sub.add_parser("transfer", help="move a vector between matrices sharing a pattern")
    p.add_argument("--space", choices=("null", "rank"), required=True)
    p.add_argument("--from", dest="source", required=True, metavar="M")
    p.add_argument("--to", dest="target", required=True, metavar="N")
    p.add_argument("--vector", required=True, metavar="X_JSON")
    p.add_argument("-o", "--out")

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", default="rational")
    p.add_argument("--components", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--format", choices=("mm", "json"), default="mm")

    p = sub.add_parser("bench", help="time the null-basis pipeline, emit CSV")
    p.add_argument("--sizes", default="2^15,2^16,2^17,2^18")
    p.add_argument("--field", default="gf:1000003")
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("oracle", help="brute-force cross checks")
    p.add_argument("operation", choices=("null-basis", "rank", "min-support"))
    p.add_argument("file")
    p.add_argument("-o", "--out")
    p.add_argument("--format", choices=("mm", "json"), default="mm")

    return parser


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
    m = matrixio.read_matrix(args.file)
    analysis = analyze(m.pattern)
    nu, info = analysis.matching.nu, analysis.support
    rows = [("n", m.n), ("components", m.pattern.component_count),
            ("matching-number", nu), ("null-dimension", m.n - 2 * nu), ("rank", 2 * nu)]
    rows += [(key, sorted(v + 1 for v in ids))
             for key, ids in (("supp", info.supp), ("core", info.core), ("s-set", info.s_set))]
    if args.json:
        print(json.dumps({key.replace("-", "_"): value for key, value in rows}, indent=2))
    else:
        for key, value in rows:
            print("%s: %s" % (key, " ".join(map(str, value))
                              if isinstance(value, list) else value))
    return 0


def _cmd_basis(args) -> int:
    m = matrixio.read_matrix(args.file)
    null = args.command == "null-basis"
    basis = null_basis(m) if null else rank_basis(m)
    _emit(matrixio.format_basis(basis, m.n, m.field, args.format), args.out)
    if not args.check:
        return 0
    if null:
        for vec in basis.vectors:
            if not m.apply(vec).is_zero():
                raise ValidationError("check failed: output vector is not annihilated")
    if m.n <= oracle.ORACLE_BOUND:
        reference = oracle.dense_null_space(m) if null else oracle.dense_row_space(m)
        if not oracle.same_span(basis, reference):
            raise ValidationError("check failed: span differs from the oracle")
        verified = "oracle span verified"
    elif null:
        verified = "oracle skipped for n > bound"
    else:
        _check_rank_basis_without_oracle(m, basis)
        verified = ("equal to 2 * matching number by tree DP, orthogonal to a "
                    "random null combination, oracle skipped for n > bound")
    print("check: ok (dimension %d, %s)" % (basis.dimension, verified), file=sys.stderr)
    return 0


def _check_rank_basis_without_oracle(m, basis):
    """Checks that stay cheap at any n: the dimension is 2 nu, with nu
    from the oracle's tree DP, and every vector is orthogonal to one
    seeded random combination of the null basis, as row-space vectors
    are orthogonal to the whole null space."""
    nu = oracle._dp_matching_number(m.pattern.adjacency)
    if basis.dimension != 2 * nu:
        raise ValidationError("check failed: dimension %d, expected 2 * %d"
                              % (basis.dimension, nu))
    field = m.field
    add, mul, zero = field.add, field.mul, field.zero
    rng = random.Random(0)
    combination = {}
    for vec in null_basis(m).vectors:
        c = field.coerce(rng.randrange(1, 2 ** 31))
        for v, x in vec.entries.items():
            combination[v] = add(combination.get(v, zero), mul(c, x))
    probe = SparseVector(m.n, field, combination)
    for vec in basis.vectors:
        if vec.dot(probe):
            raise ValidationError("check failed: a basis vector is not orthogonal "
                                  "to the null space")


def _cmd_transfer(args) -> int:
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
    field = parse_field_spec(args.field)
    m = random_matrix(args.n, args.seed, field, args.components)
    _emit(matrixio.format_matrix(m, args.format), args.out)
    return 0


def _cmd_bench(args) -> int:
    sizes = bench_mod.parse_sizes(args.sizes)
    field = parse_field_spec(args.field)
    rows = bench_mod.run_bench(sizes, field, args.repeat, args.seed)
    sys.stdout.write(bench_mod.format_csv(rows))
    return 0


def _cmd_oracle(args) -> int:
    m = matrixio.read_matrix(args.file)
    if args.operation == "null-basis":
        basis = oracle.dense_null_space(m)
        _emit(matrixio.format_basis(basis, m.n, m.field, args.format), args.out)
    elif args.operation == "rank":
        analysis = oracle.dense_analysis(m)
        text = "rank: %d\nnull-dimension: %d\n" % (analysis.rank, m.n - analysis.rank)
        _emit(text, args.out)
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
    "bench": _cmd_bench,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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

"""Command line front end.

Subcommands: validate, support, null-basis, rank-basis, transfer, gen,
oracle.  Exit codes: 0 success, 1 validation/computation failure,
2 usage error.  All output is deterministic byte for byte for fixed
inputs and flags.

The options of every command are written once, in ``_SUBCOMMANDS``.
``_read_argv`` reads a well-formed argv from that table alone;
``_build_parser`` turns it into argparse actions for every other argv,
so help, usage errors and argparse's own forms (abbreviations,
``--x=v``, ``--``) are argparse's, and ``argparse`` and ``os`` load
only then.

A handler imports what it runs when it runs, so each command loads
only its own modules: ``validate`` reads and checks the file and no
more.  ``oracle`` loads only for ``--check`` and the ``oracle``
command, ``json`` only for ``support --json`` and JSON input or output
(through ``matrixio``), and ``random`` only for ``gen``.

``--check`` runs one certificate at every n, ``oracle.certifies_span``,
and no elimination: a run it does not certify is refused in one line.
"""

from __future__ import annotations

import sys

from . import matrixio
from .errors import ForestNullError, ValidationError
from .fields import parse_field_spec

_FILE = (("file",), {})
_OUT = (("-o", "--out"), {})
_FORMAT = (("--format",), {"choices": ("mm", "json"), "default": "mm"})
_BASIS = (_FILE, _OUT, _FORMAT, (("--check",), {"action": "store_true", "help":
          "verify the result: a rank certificate (matched pairs and an annihilated "
          "null basis that peels) at every n"}))

#: command -> (help line, its arguments: (option strings or the name of
#: a positional, ``add_argument`` keywords), in the order help lists them)
_SUBCOMMANDS = {
    "validate": ("check that a file holds a valid matrix", (_FILE,)),
    "support": ("print support, core, S-set and dimensions",
                (_FILE, (("--json",), {"action": "store_true"}))),
    "null-basis": ("compute the sparsest null-space basis", _BASIS),
    "rank-basis": ("compute the row-space basis", _BASIS),
    "transfer": ("move a vector between matrices sharing a pattern", (
        (("--space",), {"choices": ("null", "rank"), "required": True}),
        (("--from",), {"dest": "source", "required": True, "metavar": "M"}),
        (("--to",), {"dest": "target", "required": True, "metavar": "N"}),
        (("--vector",), {"required": True, "metavar": "X_JSON"}),
        _OUT)),
    "gen": ("generate a seeded random instance", (
        (("--n",), {"type": int, "required": True}),
        (("--seed",), {"type": int, "default": 0}),
        (("--field",), {"default": "rational"}),
        (("--components",), {"type": int, "default": 1}),
        (("--out",), {}),
        _FORMAT)),
    "oracle": ("brute-force cross checks", (
        (("operation",), {"choices": ("null-basis", "rank", "min-support")}),
        _FILE, _OUT, _FORMAT)),
}


def _parse_args(argv):
    """argv as ``_build_parser`` parses it."""
    return _read_argv(argv) or _build_parser().parse_args(argv)


def _read_argv(argv):
    """The attributes ``_build_parser().parse_args(argv)`` sets, read
    from ``_SUBCOMMANDS`` when argv is a command, then its exact option
    strings and positionals: every value option followed by a value
    that does not start with "-", as many positionals as the command
    has and none starting with "-", every value of its ``type`` and
    ``choices``, every required option given.  A repeated option keeps
    its last value.  None for any other argv, which argparse reads."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    values, options, positionals = {"command": argv[0]}, {}, []
    for names, spec in _SUBCOMMANDS[argv[0]][1]:
        dest = spec.get("dest", names[-1].lstrip("-").replace("-", "_"))
        values[dest] = False if "action" in spec else spec.get("default")
        if names[0][0] == "-":
            options.update(dict.fromkeys(names, (dest, spec)))
        else:
            positionals.append((dest, spec))
    required = {dest for dest, spec in options.values() if spec.get("required")}
    words, free = iter(argv[1:]), []
    try:
        for word in words:
            if word[:1] != "-":
                free.append(word)
                continue
            dest, spec = options[word]
            values[dest] = True if "action" in spec else _value(spec, next(words, "-"))
            required.discard(dest)
        for (dest, spec), word in zip(positionals, free, strict=True):
            values[dest] = _value(spec, word)
    except (KeyError, ValueError):  # an unknown option string, a bad value or count
        return None
    # type(sys.implementation) is types.SimpleNamespace, without importing types
    return None if required else type(sys.implementation)(**values)


def _value(spec: dict, word: str):
    """word as the argument ``spec`` reads it; ValueError when argparse
    would not take it as that value."""
    value = spec.get("type", str)(word)
    if word[:1] == "-" or value not in spec.get("choices", (value,)):
        raise ValueError(word)
    return value


def _build_parser():
    """The argparse parser of all seven subcommands, from ``_SUBCOMMANDS``."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="forestnull",
        description="Sparsest null bases and row-space bases of zero-diagonal "
                    "matrices whose nonzero pattern is a forest.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (what, arguments) in _SUBCOMMANDS.items():
        command = sub.add_parser(name, help=what)
        for names, spec in arguments:
            command.add_argument(*names, **spec)
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
    from .kernel import maximum_matching, support
    m = matrixio.read_matrix(args.file)
    matching = maximum_matching(m.pattern)
    nu, (supp, core) = matching.nu, support(m.pattern, matching)
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
    from .kernel import maximum_matching, sparsest_null_basis
    m = matrixio.read_matrix(args.file)
    null = args.command == "null-basis"
    matching = maximum_matching(m.pattern) if null or args.check else None  # shared
    if not null:
        from .rank import rank_basis
    basis = sparsest_null_basis(m, matching) if null else rank_basis(m)
    if args.check:  # before the output, so that a refused run writes nothing
        from .oracle import certifies_span
        witness = basis if null else sparsest_null_basis(m, matching)
        if not certifies_span(m, matching.partner, witness, None if null else basis):
            raise ValidationError("check failed: span not certified")
    _emit(matrixio.format_basis(basis, m.n, m.field, args.format), args.out)
    if args.check:
        print("check: ok (dimension %d, oracle span verified)" % basis.dimension,
              file=sys.stderr)
    return 0


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
    args = _parse_args(sys.argv[1:] if argv is None else argv)
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

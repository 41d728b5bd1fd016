"""Null-space and row-space structure of zero-diagonal matrices whose
nonzero pattern is a forest.

The null space of such a matrix is a diagonal rescaling of the null
space of the forest's adjacency matrix, and likewise for the row space.
This package computes the scalings, a sparsest null basis (one
alternating walk per exposed vertex of a maximum matching, 1 there and
0 at the other exposed vertices), a structured row-space basis, and
transfers of vectors between matrices sharing a pattern -- all in exact
arithmetic over the rationals or a prime field.

``import forestnull`` loads no submodule.  Each name of ``__all__``, and
each of its eight home modules (the keys of ``_EXPORTS``), is imported
on first access (PEP 562) and then kept in the module globals, so a
program pays only for the modules it uses.
"""

__version__ = "0.1.0"

# home module -> the names of __all__ it defines
_EXPORTS = {
    "errors": ("ForestNullError", "OracleBoundError", "ParseError", "ValidationError"),
    "fields": ("Field", "PrimeField", "QQ", "RationalField", "parse_field_spec"),
    "forest": ("Forest", "build_forest"),
    "generate": ("random_matrix",),
    "kernel": ("MatchingInfo", "SupportInfo", "maximum_matching", "sparsest_null_basis",
               "support"),
    "matrix": ("AcyclicMatrix", "Basis", "SparseVector", "adjacency_matrix"),
    "rank": ("rank_basis", "transfer_rank"),
    "scaling": ("DiagonalScaling", "transfer_null", "transversal_scaling"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """A name of ``__all__`` or a home module of one, imported on first
    access and kept in the module globals."""
    if name not in _EXPORTS and name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module
    module = import_module("." + _HOME.get(name, name), __name__)
    value = module if name in _EXPORTS else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))

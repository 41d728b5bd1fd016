"""Spans around the public functions of each forestnull layer.

The traced run still drives ``forestnull.cli.main``; before a traced job
every listed function is replaced, in each ``forestnull`` module that
holds a reference to it, by a wrapper that records a span (name, start,
end, parent span, job) in memory; the worker writes them out at the
end.  Spans therefore nest exactly as the handler's calls do, and a
layer's self time is its span minus the spans it encloses.  A function that a later version renames or removes is
reported in ``missing`` and its time falls to the caller's span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (span name, module, attribute).  Two functions may share a span name.
TRACED = (
    ("matrixio.parse_matrix", "matrixio", "parse_matrix"),
    ("matrix.from_entries", "matrix", "AcyclicMatrix.from_entries"),
    ("forest.build_forest", "forest", "build_forest"),
    ("kernel.maximum_matching", "kernel", "maximum_matching"),
    ("kernel.support", "kernel", "support"),
    ("kernel.sparsest_null_basis", "kernel", "sparsest_null_basis"),
    ("scaling.null_basis", "scaling", "null_basis"),
    ("scaling.transfer_null", "scaling", "transfer_null"),
    ("rank.rank_basis", "rank", "rank_basis"),
    ("rank.transfer_rank", "rank", "transfer_rank"),
    ("matrixio.format_basis", "matrixio", "format_basis"),
    ("matrixio.vector_io", "matrixio", "read_vector"),
    ("matrixio.vector_io", "matrixio", "format_vector"),
    ("matrix.apply", "matrix", "AcyclicMatrix.apply"),
    ("oracle.dense_space", "oracle", "dense_null_space"),
    ("oracle.dense_space", "oracle", "dense_row_space"),
    ("oracle.same_span", "oracle", "same_span"),
)
JOB_SPAN = "cli.self"
LAYERS = tuple(dict.fromkeys(name for name, _, _ in TRACED)) + (JOB_SPAN,)

# Structural counts read from the first result of a span in a job.
COUNTERS = {
    "kernel.maximum_matching": lambda r: {"nu": r.nu},
    "kernel.support": lambda r: {"supp": len(r.supp), "core": len(r.core)},
    "scaling.null_basis": lambda r: {
        "null_dim": len(r.vectors),
        "null_nnz": sum(len(v.entries) for v in r.vectors)},
    "rank.rank_basis": lambda r: {"rank_dim": len(r.vectors)},
}


class Tracer:
    """Records spans in flat arrays: no gc-tracked object per span, so
    tracing does not change how often the collector runs."""

    def __init__(self):
        self.names = []                # span names, in order of first use
        self._name_index = {}
        self.name = array("i")         # per span: index into names
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")       # index of the enclosing span, or -1
        self.job = array("i")
        self._stack = []
        self._patches = []   # (owner, attribute, previous value)
        self._kept = None    # span name -> first result, while counting
        self.current_job = -1
        self.missing = []

    def install(self):
        """Replace every traced function by its span-recording wrapper."""
        modules = [m for name, m in sys.modules.items()
                   if name == "forestnull" or name.startswith("forestnull.")]
        for span, module_name, attr in TRACED:
            module = importlib.import_module("forestnull." + module_name)
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(member) if owner is not None else None
                if raw is None:
                    self.missing.append(span)
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span, raw.__func__))
                else:
                    wrapped = self._wrap(span, raw)
                self._patch(owner, member, wrapped)
                continue
            original = getattr(module, member, None)
            if original is None:
                self.missing.append(span)
                continue
            wrapped = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, previous in reversed(self._patches):
            setattr(owner, attr, previous)
        self._patches = []

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _open(self, span):
        k = self._name_index.get(span)
        if k is None:
            k = self._name_index[span] = len(self.names)
            self.names.append(span)
        index = len(self.start)
        self.name.append(k)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, span, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self._open(span)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(index)
            kept = self._kept
            if kept is not None and span in COUNTERS and span not in kept:
                kept[span] = result
            return result

        return traced

    def run_job(self, job, body, count):
        """Run ``body()`` as job ``job`` under a root span; with ``count``
        also return the structural counts of the job's first results."""
        self.current_job = job
        self._kept = {} if count else None
        index = self._open(JOB_SPAN)
        try:
            value = body()
        finally:
            self._close(index)
        counts = {}
        for span, result in (self._kept or {}).items():
            try:
                counts.update(COUNTERS[span](result))
            except (AttributeError, TypeError):
                self.missing.append("count of " + span)
        self._kept = None
        return value, counts

    def spans(self):
        """(name, start, end, parent, job) for every recorded span."""
        names = self.names
        return [(names[k], s, e, p, j) for k, s, e, p, j
                in zip(self.name, self.start, self.end, self.parent, self.job)]

    def self_times(self):
        """{job: {span name: self seconds}} over every recorded span."""
        child = [0.0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        out = {}
        for i, (name, start, end, parent, job) in enumerate(self.spans()):
            per_job = out.setdefault(job, {})
            per_job[name] = per_job.get(name, 0.0) + (end - start - child[i])
        return out

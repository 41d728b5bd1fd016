"""Wall-clock scaling harness for the null-basis pipeline.

Times validation plus the complete null-basis computation on seeded
random trees, excluding file I/O and instance generation.  Emits CSV so
the doubling ratios can be read off directly; on a linear-time
implementation the ratio sits near 2.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

from .errors import ValidationError
from .fields import Field
from .generate import random_entry_triples
from .matrix import AcyclicMatrix
from .scaling import null_basis


@dataclass
class BenchRow:
    n: int
    nnz: int
    repeats: int
    times: list
    median_seconds: float


def parse_sizes(text: str):
    """Sizes like "2^15,2^16" or plain integers, comma separated."""
    sizes = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            if "^" in chunk:
                base, exp = chunk.split("^")
                sizes.append(int(base) ** int(exp))
            else:
                sizes.append(int(chunk))
        except ValueError:
            raise ValidationError("bad size %r" % chunk)
    if not sizes:
        raise ValidationError("no sizes given")
    return sizes


def _one_run(n, triples, field) -> float:
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        m = AcyclicMatrix.from_entries(n, triples, field)
        null_basis(m)
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def run_bench(sizes, field: Field, repeat: int = 3, seed: int = 42):
    """Times validation plus the null-basis computation.

    Repetitions are interleaved across the sizes so a slow spell on a
    shared machine inflates every size about equally and the doubling
    ratios stay meaningful.  Each size gets one untimed warmup run, and
    collector pauses are suspended inside the timed region.
    """
    import statistics  # here, not at the top: every CLI command imports this module
    repeat = max(1, repeat)
    all_triples = {n: random_entry_triples(n, seed, field) for n in sizes}
    times = {n: [] for n in sizes}
    for n in sizes:
        _one_run(n, all_triples[n], field)  # warmup: fault pages in
    for _ in range(repeat):
        for n in sizes:
            times[n].append(_one_run(n, all_triples[n], field))
    return [BenchRow(n, len(all_triples[n]), repeat, times[n], statistics.median(times[n]))
            for n in sizes]


def format_csv(rows) -> str:
    lines = ["n,nnz,repeats,median_seconds,ratio_vs_prev"]
    prev = None
    for row in rows:
        ratio = "" if prev is None else "%.3f" % (row.median_seconds / prev)
        lines.append("%d,%d,%d,%.6f,%s"
                     % (row.n, row.nnz, row.repeats, row.median_seconds, ratio))
        prev = row.median_seconds
    return "\n".join(lines) + "\n"

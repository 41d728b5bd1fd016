"""Set-up probe: one fresh process, timed from before ``import forestnull.cli``
to the end of a first ``validate`` call, between two runs of the
reference loop.

    python3 -S setup_probe.py MATRIX

Run it with ``-S`` and only ``sys`` and ``time`` imported before the
timer starts, so every module the CLI needs, standard library included,
is loaded inside the timed region.  The last stdout line is
``<set-up seconds> <mean of the two reference seconds>``.  worker.py
also imports ``reference_seconds`` from here, so both time the same loop.
"""

import sys
import time


def reference_seconds():
    """Time of a fixed pure-Python loop (dict, sort, str; about 8 ms).

    The host's speed drifts by tens of percent between and within runs;
    a time divided by the reference timed next to it on the same core
    removes most of that drift.  The loop allocates well under a
    megabyte at a time, so it does not raise the worker's peak RSS.
    """
    start = time.perf_counter()
    for _ in range(8):
        table = {}
        for i in range(2500):
            table[i] = (i * 7919) % 1000003
        ordered = sorted(table.items(), key=lambda kv: kv[1])
        " ".join(str(v) for _, v in ordered[:625])
    return time.perf_counter() - start


def main():
    before = reference_seconds()
    start = time.perf_counter()
    from forestnull import cli
    code = cli.main(["validate", sys.argv[1]])
    elapsed = time.perf_counter() - start
    if code != 0:
        sys.exit("setup probe: validate exited with %r" % code)
    print(repr(elapsed), repr((before + reference_seconds()) / 2))


if __name__ == "__main__":
    main()

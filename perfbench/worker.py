"""Runs one workload's jobs in this process through ``forestnull.cli.main``.

A closed loop with one caller: a job starts when the previous one has
returned.  gc stays enabled, as for a user of the CLI, and
``gc.collect()`` runs before every job, outside the timed region, as
does a short reference loop at most every REFERENCE_INTERVAL seconds
and once after the last job.
Every job reads its inputs from disk, so no memoized state carries over
from one job to the next.  Untraced jobs touch nothing but ``cli.main``;
only ``--trace 1`` imports the layer modules (through tracing.py).

    python3 worker.py --plan PLAN.json --result OUT.json --seconds S \
                      [--trace 1 --spans SPANS.jsonl]
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import time

from setup_probe import reference_seconds


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _call(cli, commands):
    """Run the job's CLI calls; return (exit codes, captured stderr)."""
    codes = []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for argv in commands:
            try:
                code = cli.main(argv)
            except SystemExit as exc:       # argparse usage errors
                code = exc.code
            except Exception as exc:        # a traceback is a failed job
                code = "%s: %s" % (type(exc).__name__, exc)
            codes.append(code)
            if code != 0:
                break
    return codes, err.getvalue()


REFERENCE_INTERVAL = 0.5   # seconds a reference reading stays current


def _oracle_state(stderr):
    if "oracle span verified" in stderr:
        return "verified"
    if "oracle skipped" in stderr:
        return "skipped"
    return None


def run(plan, seconds, trace, spans_path):
    from forestnull import cli

    jobs = plan["jobs"]
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    inputs = {job["id"]: {"sha256": None, "oracle": None, "counts": None,
                          "runs": 0, "failed": 0, "failures": []} for job in jobs}
    timed = []        # {"id", "n", "seconds", "reference", "traced"}
    warmup_job = {}
    # Reference readings, retimed before a job when the last one is older
    # than REFERENCE_INTERVAL; a job's reference is the mean of the last
    # reading before it and the first one after it.
    readings = []
    last_reading = [-REFERENCE_INTERVAL]

    def read_reference():
        gc.collect()
        readings.append(reference_seconds())
        last_reading[0] = time.perf_counter()
    # Every input runs at least once; with tracing, untraced and traced
    # passes alternate and each input must also run traced once.
    min_jobs = len(jobs) * (2 if trace else 1)

    def one_job(k, warmup):
        job = jobs[k % len(jobs)]
        state = inputs[job["id"]]
        traced = bool(trace) and not warmup and (k // len(jobs)) % 2 == 1
        count = traced and state["counts"] is None
        if time.perf_counter() - last_reading[0] >= REFERENCE_INTERVAL:
            read_reference()
        before = len(readings) - 1
        gc.collect()
        if traced:
            tracer.install()
            try:
                start = time.perf_counter()
                (codes, stderr), counts = tracer.run_job(
                    len(timed), lambda: _call(cli, job["commands"]), count)
                elapsed = time.perf_counter() - start
            finally:
                tracer.uninstall()
            if count:
                state["counts"] = counts
        else:
            start = time.perf_counter()
            codes, stderr = _call(cli, job["commands"])
            elapsed = time.perf_counter() - start
        state["runs"] += 1
        ok = all(code == 0 for code in codes)
        if ok:
            digests = [_sha256(path) for path in job["outputs"]]
            if state["sha256"] is None:
                state["sha256"] = digests
                state["oracle"] = _oracle_state(stderr)
            elif state["sha256"] != digests:
                ok = False
                state["failures"].append("output bytes differ between repeated jobs")
        else:
            state["failures"].append("exit codes %r: %s" % (codes, stderr.strip()[-300:]))
        if not ok:
            state["failed"] += 1
        entry = {"id": job["id"], "n": job["n"], "seconds": elapsed,
                 "reading": before, "traced": traced}
        if warmup:
            warmup_job.update(entry)
        else:
            timed.append(entry)

    loop_start = time.perf_counter()   # the window includes the warm-up job
    one_job(0, warmup=True)
    k = 0
    while True:
        elapsed = time.perf_counter() - loop_start
        if k >= min_jobs:
            typical = statistics.median(t["seconds"] for t in timed)
            if elapsed + typical > seconds:
                break
        one_job(k, warmup=False)
        k += 1
    read_reference()
    for entry in [warmup_job] + timed:
        before = entry.pop("reading")
        entry["reference"] = (readings[before] + readings[before + 1]) / 2

    result = {"timed": timed, "warmup": warmup_job, "inputs": inputs,
              "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["self_times"] = tracer.self_times()
        result["missing"] = sorted(set(tracer.missing))
        with open(spans_path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job in tracer.spans():
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "job": job}) + "\n")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan")
    parser.add_argument("--result")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args()
    if not (args.plan and args.result) or (args.trace and not args.spans):
        parser.error("--plan and --result (and --spans with --trace 1) are required")
    with open(args.plan, encoding="utf-8") as handle:
        plan = json.load(handle)
    result = run(plan, args.seconds, args.trace, args.spans)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()

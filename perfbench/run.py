"""The forestnull benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload null-gf --seed 1 --seconds 25 --trace 0

Run from the repository root (it imports the package from ./src).  The
run generates the workload's inputs from the seed, times the set-up of
fresh processes, runs the jobs in a separate worker process (so the
generator's memory is not part of the peak), checks every output with
the benchmark's own code, prints one line per metric and, last, one
JSON object.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  Exits 1 if a job or a check
failed, 2 if the package sources are missing.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import inputs as gen
import verify
from tracing import LAYERS

SETUP_PROBES = 20
# setup_s is given in seconds at a fixed machine speed: each probe's time
# over the reference loop timed in the same process, times this many
# seconds of reference.  The raw median is printed as setup_raw_s.
REFERENCE_NOMINAL_S = 0.008
# A run fails when later jobs on an input take less than this share of
# its first job's time (both over the reference): a cache that carries
# results from one job to the next would give CLI users, who start one
# process per call, nothing.
REUSE_LIMIT = 0.5
WORKER_TIMEOUT_EXTRA = 100   # seconds beyond --seconds before the worker is killed
WORKDIR = ".perfbench-work"

# The bounded end-to-end metrics (BENCHMARK.json), then those printed
# but not bounded: on a host whose speed drifts, raw job times spread
# past any useful bound across runs; job_p95_s is also the slowest job or
# nearly so on every workload but small-check.
END_TO_END_UNITS = {"setup_s": "s", "job_p50_ref": "ref", "peak_rss_mib": "MiB"}
REPORTED_UNITS = {"job_p50_s": "s", "job_p95_s": "s", "vertices_per_s": "1/s",
                  "reference_ms": "ms", "setup_raw_s": "s", "reuse_ratio": "ratio"}
COUNTS = ("n", "nnz", "components", "nu", "supp", "core", "null_dim", "null_nnz",
          "rank_dim", "out_bytes", "oracle_verified", "oracle_skipped")


def _worker_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("FORESTNULL_ORACLE_BOUND", None)   # --check uses the default bound
    return env


class WorkerError(Exception):
    pass


def _worker(args, env, timeout, script="worker.py", flags=()):
    """Run a script of this directory to completion; its stdout, or WorkerError."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), script)
    try:
        return subprocess.run([sys.executable, *flags, path] + args, env=env,
                              timeout=timeout, check=True, stdout=subprocess.PIPE,
                              text=True).stdout
    except subprocess.TimeoutExpired:
        raise WorkerError("%s exceeded %d s and was killed" % (script, timeout))
    except subprocess.CalledProcessError as exc:
        raise WorkerError("%s exited with code %d" % (script, exc.returncode))


def _p95(values):
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def check_outputs(workload, inputs, jobs, seed, src):
    """Errors per input id of ``jobs``, from the benchmark's own checks."""
    rng = random.Random("check:%s:%d" % (workload, seed))
    errors = {}
    for job in jobs:
        try:
            errors[job["id"]] = _check_job(workload, inputs, job, rng, src)
        except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            errors[job["id"]] = ["unreadable output: %s: %s" % (type(exc).__name__, exc)]
    return errors


def _check_job(workload, inputs, job, rng, src):
    inst = inputs.instances[job["id"]]
    arith = verify.Arith(inst.prime)
    found = []
    if workload == "transfer-gf":
        _, x = verify.read_vector(job["outputs"][0], arith)
        source_x = inputs.vectors["x_null.json"][2]
        target = inputs.instances["b.mtx"]
        if verify.apply(verify.rows_of(inst), source_x, arith):
            found.append("generated null vector is not annihilated by the source")
        found += verify.check_null_transfer(target, source_x, x)
        _, z = verify.read_vector(job["outputs"][1], arith)
        found += verify.check_rank_transfer(target, z)
        return found
    nu = verify.matching_number(inst)
    solver = verify.NullSolver(inst)
    for command, path in zip(job["commands"], job["outputs"]):
        n, vectors = verify.read_basis(path, arith)
        if command[0] == "null-basis":
            found += verify.check_null_basis(inst, n, vectors, nu)
        elif workload == "small-check":
            found += verify.check_rank_basis(inst, n, vectors, nu,
                                             verify.null_basis_of(solver))
        else:
            found += verify.check_rank_basis(
                inst, n, vectors, nu, verify.random_null_vectors(solver, rng, 2))
        if workload == "small-check":
            found += _oracle_span_errors(command[0], job["id"], inputs, vectors,
                                         arith, src)
    return found


def _oracle_span_errors(command, name, inputs, vectors, arith, src):
    if src not in sys.path:
        sys.path.insert(0, src)
    from forestnull import matrixio, oracle
    m = matrixio.read_matrix(inputs.path(name))
    dense = oracle.dense_null_space if command == "null-basis" else oracle.dense_row_space
    reference = [dict(vec.entries) for vec in dense(m).vectors]
    if verify.same_span(vectors, reference, arith):
        return []
    return ["%s span differs from the dense oracle" % command]


def reuse_ratio(result):
    """Median over inputs of (median of later untraced jobs on the input
    over its first job), each job's time taken over its reference; None
    when no input ran untraced twice."""
    runs = {}
    for t in [result["warmup"]] + result["timed"]:
        if not t["traced"]:
            runs.setdefault(t["id"], []).append(t["seconds"] / t["reference"])
    ratios = [statistics.median(r[1:]) / r[0] for r in runs.values() if len(r) > 1]
    return statistics.median(ratios) if ratios else None


def end_to_end(result, setup_probes):
    jobs = [t for t in result["timed"] if not t["traced"]]
    times = [t["seconds"] for t in jobs]
    return {
        "setup_s": REFERENCE_NOMINAL_S * statistics.median(
            probe / reference for probe, reference in setup_probes),
        "job_p50_ref": statistics.median(t["seconds"] / t["reference"] for t in jobs),
        "job_p50_s": statistics.median(times),
        "job_p95_s": _p95(times),
        "vertices_per_s": sum(t["n"] for t in jobs) / sum(times),
        "reference_ms": 1000.0 * statistics.median(t["reference"] for t in jobs),
        "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
        "setup_raw_s": statistics.median(probe for probe, _ in setup_probes),
    }, {"job_p50_ref": "%d jobs, each over the mean of the reference readings around it"
        % len(times),
        "job_p50_s": "%d jobs" % len(times),
        "job_p95_s": "%d jobs, %d beyond p95" % (
            len(times), sum(1 for t in times if t > _p95(times))),
        "setup_s": "median of %d fresh processes, each over its reference, x %g s"
                   % (len(setup_probes), REFERENCE_NOMINAL_S),
        "setup_raw_s": "median of %d fresh processes" % len(setup_probes)}


def per_layer(result, inputs):
    traced = [t["seconds"] for t in result["timed"] if t["traced"]]
    untraced = [t["seconds"] for t in result["timed"] if not t["traced"]]
    per_job = result["self_times"].values()
    metrics = {}
    units = {}
    for layer in LAYERS:
        metrics[layer + "_s"] = sum(j.get(layer, 0.0) for j in per_job) / len(per_job)
        units[layer + "_s"] = "s"
    metrics["trace.job_p50_s"] = statistics.median(traced)
    metrics["trace.untraced_job_p50_s"] = statistics.median(untraced)
    metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.job_p50_s"]
                                             / metrics["trace.untraced_job_p50_s"] - 1.0)
    units.update({"trace.job_p50_s": "s", "trace.untraced_job_p50_s": "s",
                  "trace.overhead_pct": "%"})
    counts = dict.fromkeys(COUNTS, 0)
    for job in inputs.jobs:
        inst = inputs.instances[job["id"]]
        state = result["inputs"][job["id"]]
        counts["n"] += inst.n
        counts["nnz"] += inst.nnz
        counts["components"] += inst.components
        for key, value in (state["counts"] or {}).items():
            counts[key] += value
        counts["out_bytes"] += sum(os.path.getsize(p) for p in job["outputs"])
        if state["oracle"]:
            counts["oracle_" + state["oracle"]] += 1
    for key, value in counts.items():
        metrics["count." + key] = value
        units["count." + key] = "count"
    return metrics, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "forestnull", "cli.py")):
        print("error: ./src/forestnull not found; run from the repository root",
              file=sys.stderr)
        return 2
    marks = [("start", time.perf_counter())]
    workdir = os.path.join(root, WORKDIR, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = gen.build(args.workload, args.seed, workdir)
    inputs.add_matrix("setup.mtx", gen.random_instance(
        random.Random("setup:%d" % args.seed), 64, "gf 7", 1))
    plan_path = inputs.path("plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(inputs.manifest(), handle, indent=1)
    marks.append(("generate", time.perf_counter()))

    env = _worker_env(src)
    result_path = inputs.path("result.json")
    worker_args = ["--plan", plan_path, "--result", result_path,
                   "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        worker_args += ["--spans", inputs.path("spans.jsonl")]
    try:
        setup_probes = [tuple(map(float, _worker(
            [inputs.path("setup.mtx")], env, 60, "setup_probe.py", ["-S"]
        ).splitlines()[-1].split())) for _ in range(SETUP_PROBES)]
        marks.append(("setup probes", time.perf_counter()))
        _worker(worker_args, env, args.seconds + WORKER_TIMEOUT_EXTRA)
        marks.append(("jobs", time.perf_counter()))
    except WorkerError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)

    # A job fails on a nonzero exit, differing bytes, or a failed check of
    # its input's output (repeated jobs wrote the same bytes).
    checked = [job for job in inputs.jobs if not result["inputs"][job["id"]]["failed"]]
    found = check_outputs(args.workload, inputs, checked, args.seed, src)
    problems, attempted, failed = [], 0, 0
    for name, state in result["inputs"].items():
        errors = state["failures"] + found.get(name, [])
        problems += ["%s: %s" % (name, error) for error in errors]
        attempted += state["runs"]
        failed += state["runs"] if found.get(name) else state["failed"]
    reuse = reuse_ratio(result)
    if reuse is not None and reuse < REUSE_LIMIT:
        problems.append("later jobs on an input took %.2f of its first job's time "
                        "(limit %.2f): results carried over between jobs" % (reuse, REUSE_LIMIT))
    correct = not problems
    marks.append(("checks", time.perf_counter()))

    if args.trace:
        metrics, units = per_layer(result, inputs)
        shown, notes = metrics, {}
        if result["missing"]:
            print("trace: not found in this version: " + ", ".join(result["missing"]))
    else:
        shown, notes = end_to_end(result, setup_probes)
        if reuse is not None:
            shown["reuse_ratio"] = reuse
            notes["reuse_ratio"] = ("later jobs on an input over its first job; "
                                    "fails below %g" % REUSE_LIMIT)
        units = dict(END_TO_END_UNITS, **REPORTED_UNITS)
        metrics = {name: shown[name] for name in END_TO_END_UNITS}
    print("workload %s seed %d: attempted %d, failed %d, fail_ratio %.4f, correct %s"
          % (args.workload, args.seed, attempted, failed, failed / attempted, correct))
    print("  phases: " + ", ".join("%s %.1f s" % (name, t - marks[i][1])
                                   for i, (name, t) in enumerate(marks[1:])))
    for problem in problems[:20]:
        print("  FAILED " + problem)
    for name, value in shown.items():
        note = notes.get(name, "") + ("" if name in metrics else " (not bounded)")
        print("  %-32s %14.6g %-6s %s" % (name, value, units[name], note))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs for the benchmark workloads.

Everything here is the benchmark's own code: trees come from decoding a
uniformly random attachment sequence, values from a ``random.Random``
seeded by (workload, seed), and files are written by a few-line Matrix
Market / JSON writer.  Nothing is imported from ``forestnull``, so a
change to the package's generator or writers cannot change the inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

from verify import NullSolver, rows_of

GF_P = 1000003

# Workload sizes: large enough that the linear layers dominate, small
# enough for 20-60 jobs per 25 s run, since the run median over many
# jobs is what keeps the figures steady on a noisy shared host.
# transfer-gf is quadratic at this commit.
NULL_GF_N = 2 ** 15
SPACES_N = 2 ** 14
SPACES_COMPONENTS = 64
TRANSFER_N = 2 ** 10
TRANSFER_COMPONENTS = 4
TRANSFER_COMBINATION = 40
# small-check is stratified: every (size, field, components, command)
# cell appears once, so the job mix, and hence p50 and p95, does not
# depend on the seed; the seed picks trees and values.
SMALL_SIZES = (32, 64, 128, 256, 384, 512)
SMALL_FIELDS = ("gf 7", "gf %d" % GF_P, "rational")
SMALL_COMPONENTS = (1, 2, 3, 4)

WORKLOADS = ("null-gf", "spaces-rational", "transfer-gf", "small-check")


class Instance:
    """One generated matrix: pattern, values and field."""

    def __init__(self, n, field, edges, values):
        self.n = n
        self.field = field          # "rational" or "gf <p>"
        self.edges = edges          # canonical (u, v), u < v
        self.values = values        # (row, col) -> value, both orientations

    @property
    def prime(self):
        return None if self.field == "rational" else int(self.field.split()[1])

    @property
    def nnz(self):
        return len(self.values)

    @property
    def components(self):
        return self.n - len(self.edges)


def decode_attachment_sequence(seq, n):
    """Edges of the labeled tree on n >= 2 vertices coded by ``seq``.

    Linear-time decoding: the smallest current leaf is attached to the
    next sequence entry; a pointer only moves forward except when the
    entry itself just became the smallest leaf.
    """
    if n == 2:
        return [(0, 1)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    ptr = degree.index(1)
    leaf = ptr
    for x in seq:
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((min(leaf, n - 1), max(leaf, n - 1)))
    return edges


def random_forest(rng, n, components):
    """``components`` uniform labeled trees of near-equal size, with the
    vertex labels shuffled across them.  Equal sizes keep the cost of
    per-component work (quadratic in transfer_rank today) from varying
    with the seed."""
    labels = list(range(n))
    rng.shuffle(labels)
    edges = []
    start = 0
    for c in range(components):
        size = n // components + (1 if c < n % components else 0)
        block = labels[start:start + size]
        start += size
        if size < 2:
            continue
        seq = [rng.randrange(size) for _ in range(size - 2)]
        for a, b in decode_attachment_sequence(seq, size):
            u, v = block[a], block[b]
            edges.append((min(u, v), max(u, v)))
    edges.sort()
    return edges


def random_value(rng, field):
    if field == "rational":
        nums = (-9, -8, -7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7, 8, 9)
        return Fraction(rng.choice(nums), rng.choice(nums))
    return rng.randrange(1, int(field.split()[1]))


def random_values(rng, edges, field):
    values = {}
    for u, v in edges:
        values[(u, v)] = random_value(rng, field)
        values[(v, u)] = random_value(rng, field)
    return values


def random_instance(rng, n, field, components):
    edges = random_forest(rng, n, components)
    return Instance(n, field, edges, random_values(rng, edges, field))


def format_mm(inst):
    banner = "rational" if inst.field == "rational" else "integer"
    lines = ["%%MatrixMarket matrix coordinate " + banner + " general",
             "% field: " + inst.field,
             "%d %d %d" % (inst.n, inst.n, inst.nnz)]
    lines.extend("%d %d %s" % (u + 1, v + 1, x)
                 for (u, v), x in sorted(inst.values.items()))
    return "\n".join(lines) + "\n"


def format_vector_json(n, field, entries):
    doc = {"n": n, "field": field,
           "vector": {str(v + 1): str(x) for v, x in sorted(entries.items())}}
    return json.dumps(doc) + "\n"


class InputSet:
    """The files of one workload plus the plan the worker runs.

    ``jobs`` is a list of dicts: ``id`` (input id), ``n``, ``commands``
    (one argv list per CLI call) and ``outputs`` (files the calls write).
    """

    def __init__(self, workdir):
        self.workdir = workdir
        self.instances = {}   # name -> Instance
        self.vectors = {}     # name -> (n, field, entries)
        self.jobs = []
        self.sha256 = {}      # relative path -> hex digest

    def path(self, name):
        return os.path.join(self.workdir, name)

    def write(self, name, text):
        data = text.encode("ascii")
        with open(self.path(name), "wb") as handle:
            handle.write(data)
        self.sha256[name] = hashlib.sha256(data).hexdigest()

    def add_matrix(self, name, inst):
        self.instances[name] = inst
        self.write(name, format_mm(inst))

    def add_vector(self, name, n, field, entries):
        self.vectors[name] = (n, field, entries)
        self.write(name, format_vector_json(n, field, entries))

    def manifest(self):
        return {"jobs": self.jobs, "sha256": self.sha256}


def build(workload, seed, workdir):
    """Generate the inputs of ``workload`` for ``seed`` into ``workdir``."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    inputs = InputSet(workdir)
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    p = inputs.path
    if workload == "null-gf":
        inputs.add_matrix("m.mtx", random_instance(rng, NULL_GF_N, "gf %d" % GF_P, 1))
        inputs.jobs.append({
            "id": "m.mtx", "n": NULL_GF_N, "outputs": [p("out/null.mtx")],
            "commands": [["null-basis", p("m.mtx"), "-o", p("out/null.mtx"), "--check"]]})
    elif workload == "spaces-rational":
        inputs.add_matrix("m.mtx", random_instance(rng, SPACES_N, "rational",
                                                   SPACES_COMPONENTS))
        inputs.jobs.append({
            "id": "m.mtx", "n": SPACES_N,
            "outputs": [p("out/null.mtx"), p("out/rank.json")],
            "commands": [["null-basis", p("m.mtx"), "-o", p("out/null.mtx")],
                         ["rank-basis", p("m.mtx"), "--format", "json",
                          "-o", p("out/rank.json")]]})
    elif workload == "transfer-gf":
        _build_transfer(rng, inputs)
    else:
        _build_small(rng, inputs)
    return inputs


def _build_transfer(rng, inputs):
    field = "gf %d" % GF_P
    source = random_instance(rng, TRANSFER_N, field, TRANSFER_COMPONENTS)
    target = Instance(source.n, field, source.edges,
                      random_values(rng, source.edges, field))
    inputs.add_matrix("a.mtx", source)
    inputs.add_matrix("b.mtx", target)
    solver = NullSolver(source)
    chosen = rng.sample(solver.free, min(TRANSFER_COMBINATION, len(solver.free)))
    x = solver.solve({f: random_value(rng, field) for f in chosen})
    inputs.add_vector("x_null.json", source.n, field, x)
    rows = rows_of(source)
    y = {}
    for u in rng.sample(range(source.n), TRANSFER_COMBINATION):
        c = random_value(rng, field)
        for v, val in rows[u].items():
            y[v] = (y.get(v, 0) + c * val) % GF_P
    inputs.add_vector("y_rank.json", source.n, field,
                      {v: val for v, val in y.items() if val})
    p = inputs.path
    common = ["--from", p("a.mtx"), "--to", p("b.mtx")]
    inputs.jobs.append({
        "id": "a.mtx", "n": TRANSFER_N,
        "outputs": [p("out/x_null.json"), p("out/y_rank.json")],
        "commands": [["transfer", "--space", "null"] + common
                     + ["--vector", p("x_null.json"), "-o", p("out/x_null.json")],
                     ["transfer", "--space", "rank"] + common
                     + ["--vector", p("y_rank.json"), "-o", p("out/y_rank.json")]]})


def _build_small(rng, inputs):
    cells = [(n, field, k, cmd)
             for n in SMALL_SIZES for field in SMALL_FIELDS
             for k in SMALL_COMPONENTS for cmd in ("null-basis", "rank-basis")]
    rng.shuffle(cells)
    p = inputs.path
    for i, (n, field, k, cmd) in enumerate(cells):
        name = "m%03d.mtx" % i
        out = p("out/%s.%s" % (name, cmd))
        inputs.add_matrix(name, random_instance(rng, n, field, k))
        inputs.jobs.append({"id": name, "n": n, "outputs": [out],
                            "commands": [[cmd, p(name), "-o", out, "--check"]]})

"""``--check`` on null-basis and rank-basis.

At every n one certificate decides, with no elimination
(``oracle.certifies_span``): the r vertices that the matching of
``kernel.maximum_matching`` pairs, each pair a stored entry of M,
prove rank >= r; a null witness of n - r vectors that M annihilates
and that peel proves rank = r and spans the null space.  The witness
is the output for null-basis and ``kernel.sparsest_null_basis`` on the
same matching for rank-basis, whose r vectors must then peel and be
orthogonal to it.  A run the certificate does not certify is refused
in one line, ``error: check failed: span not certified``, and writes
nothing.  The differential tests here hold the verdict to mutual span
reduction against a reference basis, on the right basis and on
spoiled ones, at small n and at n = 650, with every elimination of the
oracle made to raise; others hold that the CLI's own bases pass, that
a bad witness or a matching that is not maximum is refused, that
forged pairings and a witness M does not annihilate prove nothing,
and that a refused run writes no output.
"""

import random
from collections import Counter

import pytest

from forestnull import Basis, PrimeField, QQ, SparseVector, ValidationError
from forestnull import build_forest, cli, kernel, matrixio, oracle
from forestnull.generate import random_matrix
from forestnull.rank import rank_basis
from forestnull.scaling import null_basis
from conftest import sv
from forest_helpers import same_span
from test_acceptance import matrix_on
from treegen import free_forests

FIELDS = (QQ, PrimeField(7), PrimeField(1000003))
SPAN_ERROR = "error: check failed: span not certified\n"


def random_instances():
    """Random matrices over every field with 1-4 components, n <= 60."""
    rng = random.Random(16)
    for field in FIELDS:
        for components in range(1, 5):
            for _ in range(4):
                n = rng.randint(components, 60)
                yield random_matrix(n, rng.randrange(10 ** 6), field, components)


def small_forest_instances():
    """Every forest up to 8 vertices, with random values, the field
    cycling through FIELDS."""
    k = 0
    for n in range(1, 9):
        for edges in free_forests(n):
            yield matrix_on(build_forest(n, list(edges)), k, FIELDS[k % 3])
            k += 1


def spoiled_bases(m, basis, null, outside):
    """The right basis, then spoiled ones: one vector dropped, one
    repeated in place of another, one replaced by the sum of two (of
    itself and another, which keeps the span, or of two others), and
    for the row space one moved outside it, count and independence
    kept, by adding e_w for a vertex w of ``outside``, ascending
    vertices where some null vector is nonzero."""
    vectors = basis.vectors
    d = len(vectors)
    yield basis
    for k in sorted({0, d - 1}) if d else ():
        yield Basis(vectors[:k] + vectors[k + 1:])
        if d < 2:
            continue
        i = (k + 1) % d
        yield Basis(vectors[:k] + [vectors[i]] + vectors[k + 1:])
        yield Basis(vectors[:k] + [vectors[k].add(vectors[i])] + vectors[k + 1:])
        if d >= 3:
            j = (k + 2) % d
            yield Basis(vectors[:k] + [vectors[i].add(vectors[j])] + vectors[k + 1:])
    if not null and d:
        for k, w in zip((0, d - 1), outside):
            # e_w is outside the row space, so vectors[k] + e_w is too,
            # and it is independent of the other vectors
            moved = vectors[k].add(sv(m.n, {w: m.field.one}, m.field))
            yield Basis(vectors[:k] + [moved] + vectors[k + 1:])


def certificate_verdict(m, basis, null):
    """The verdict of ``--check`` on basis: the certificate, on the
    maximum matching and, for the row space, the kernel's witness."""
    matching = kernel.maximum_matching(m.pattern)
    witness = basis if null else kernel.sparsest_null_basis(m, matching)
    return oracle.certifies_span(m, matching.partner, witness, None if null else basis)


def forbid_elimination(monkeypatch):
    """Make every elimination of the oracle raise."""
    def no_elimination(*args):
        raise AssertionError("--check ran an elimination")

    for name in ("row_echelon", "dense_analysis", "first_dependent"):
        monkeypatch.setattr(oracle, name, no_elimination)


def cases(m):
    """(null, basis, same_span verdict against the dense reference)."""
    analysis = oracle.dense_analysis(m)
    outside = sorted(analysis.null_support)
    for null, fast, reference in ((True, null_basis(m), analysis.null_basis),
                                  (False, rank_basis(m), analysis.row_basis)):
        for basis in spoiled_bases(m, fast, null, outside):
            yield null, basis, same_span(basis, reference)


def test_certificate_agrees_with_same_span_on_random_matrices_and_small_forests():
    instances = list(random_instances()) + list(small_forest_instances())
    verdicts = {True: 0, False: 0}
    for m in instances:
        for null, basis, want in cases(m):
            assert certificate_verdict(m, basis, null) == want, (m, null, basis.vectors)
            verdicts[want] += 1
    assert {m.field for m in instances} == set(FIELDS)
    assert len(instances) == 48 + 155
    # both verdicts are common: the sums with the vector itself keep the span
    assert min(verdicts.values()) > 300, verdicts


@pytest.mark.parametrize("command", ["null-basis", "rank-basis"])
def test_cli_check_verdict_agrees_with_same_span_on_small_forests(tmp_path, capsys,
                                                                  monkeypatch, command):
    path, out = tmp_path / "m.mtx", str(tmp_path / "b")
    instances = [(m, [case for case in cases(m) if case[0] == (command == "null-basis")])
                 for m in small_forest_instances()]
    forbid_elimination(monkeypatch)
    refused = 0
    witness = kernel.sparsest_null_basis  # the rank-basis check's witness stays right
    for m, verdicts in instances:
        matrixio.write_matrix(m, path)
        for null, basis, want in verdicts:
            monkeypatch.setattr(kernel, "sparsest_null_basis",
                                (lambda m, matching, basis=basis: basis) if null else witness)
            monkeypatch.setattr("forestnull.rank.rank_basis", lambda m, basis=basis: basis)
            code = cli.main([command, str(path), "--check", "-o", out])
            err = capsys.readouterr().err
            assert code == (0 if want else 1), (m, command, basis.vectors)
            if want:
                assert err.startswith("check: ok") and "oracle span verified" in err
            else:
                refused += 1
                assert err == SPAN_ERROR
    assert refused > 600


def test_row_echelon_rows_are_an_echelon_form_of_the_dense_row_basis():
    # insertion only, with no back substitution: the rows are not the
    # reduced ones, but they have the same pivots, the form's invariant,
    # and the same span
    for m in random_instances():
        echelon = oracle.row_echelon(m)
        rows = oracle.dense_analysis(m).row_basis
        assert list(echelon.rows) == [min(vec.entries) for vec in rows.vectors]
        for p, row in echelon.rows.items():
            assert row[p] == m.field.one and min(row) == p
        forward = Basis([sv(m.n, row, m.field) for row in echelon.rows.values()])
        assert same_span(forward, rows)
        assert all(map(echelon.contains, rows.vectors))
        assert all(map(echelon.contains, rank_basis(m).vectors))


def test_fast_bases_peel_completely_on_forests_up_to_10_vertices_and_random_matrices():
    # what the certificate relies on above the bound: unit vectors
    # sit on non-support vertices, and Gallai-Edmonds leaves some support
    # vertex with one remaining holder; a null vector is 1 at its own
    # exposed vertex and 0 at the others
    instances = list(random_instances())
    k = 0
    for n in range(1, 11):
        for edges in free_forests(n):
            instances.append(matrix_on(build_forest(n, list(edges)), k, FIELDS[k % 3]))
            k += 1
    for field in FIELDS:
        for components in (1, 3):
            instances.append(random_matrix(600, components, field, components))
    for m in instances:
        for basis in (null_basis(m), rank_basis(m)):
            supports = [vec.entries for vec in basis.vectors]
            assert oracle._peel(supports, m.n) == [], (m, basis.vectors)
    assert k == 637  # unlabeled forests on 1 to 10 vertices


@pytest.mark.parametrize("field, components", [(QQ, 1), (QQ, 3), (PrimeField(7), 1),
                                               (PrimeField(7), 3)],
                         ids=["Q-1", "Q-3", "GF7-1", "GF7-3"])
def test_cli_check_above_the_bound_agrees_with_same_span(tmp_path, capsys, monkeypatch,
                                                         field, components):
    # a real n above ORACLE_BOUND: the right basis and the span-keeping
    # sums pass and every other spoil is refused in one line, with
    # nothing written, as below it
    m = random_matrix(650, 23 + components, field, components)
    assert m.n > oracle.ORACLE_BOUND
    path = write_instance(m, tmp_path)
    forbid_elimination(monkeypatch)
    outside = sorted(kernel.support(m.pattern, kernel.maximum_matching(m.pattern)).supp)
    witness = kernel.sparsest_null_basis  # the rank-basis check's witness stays right
    verdicts = Counter()
    for null, fast in ((True, null_basis(m)), (False, rank_basis(m))):
        command = "null-basis" if null else "rank-basis"
        for k, basis in enumerate(spoiled_bases(m, fast, null, outside)):
            monkeypatch.setattr(kernel, "sparsest_null_basis",
                                (lambda m, matching, basis=basis: basis) if null else witness)
            monkeypatch.setattr("forestnull.rank.rank_basis", lambda m, basis=basis: basis)
            out = tmp_path / ("%s-%d" % (command, k))
            code = cli.main([command, path, "--check", "-o", str(out)])
            want = same_span(basis, fast)
            assert capsys.readouterr() == ("", (
                "check: ok (dimension %d, oracle span verified)\n" % basis.dimension
                if want else SPAN_ERROR))
            assert (code, out.exists()) == ((0, True) if want else (1, False))
            verdicts[command, want] += 1
    # the right basis and two sums with the vector itself keep the span;
    # two each of dropped, repeated and sum of two others, and for the
    # row space two moved outside it, do not
    assert verdicts == {("null-basis", True): 3, ("null-basis", False): 6,
                        ("rank-basis", True): 3, ("rank-basis", False): 8}


def write_instance(m, tmp_path):
    path = tmp_path / "m.mtx"
    matrixio.write_matrix(m, path)
    return str(path)


@pytest.mark.parametrize("command, producer",
                         [("null-basis", "forestnull.kernel.sparsest_null_basis"),
                          ("rank-basis", "forestnull.rank.rank_basis")])
def test_refused_check_writes_no_output(tmp_path, capsys, monkeypatch, command, producer):
    m = random_matrix(20, 5, QQ)
    path = write_instance(m, tmp_path)
    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    kept.write_text("earlier output\n")
    produce = {"null-basis": null_basis, "rank-basis": rank_basis}[command]
    right = produce(m).vectors
    assert len(right) >= 2
    monkeypatch.setattr(producer, lambda m, *matching: Basis(right[:-1]))
    for out in ([], ["-o", str(fresh)], ["-o", str(kept)]):
        assert cli.main([command, path, "--check"] + out) == 1
        assert capsys.readouterr() == ("", SPAN_ERROR)
    assert not fresh.exists() and kept.read_text() == "earlier output\n"
    # a run that passes still writes its output
    monkeypatch.setattr(producer, lambda m, *matching: Basis(right))
    assert cli.main([command, path, "--check", "-o", str(kept)]) == 0
    assert kept.read_text() == matrixio.format_basis(Basis(right), m.n, m.field, "mm")


def certificate_instances():
    """Every forest up to 8 vertices, then random matrices with n up to
    512 and 512 itself, over every field with 1-4 components."""
    yield from small_forest_instances()
    rng = random.Random(20)
    for field in FIELDS:
        for components in range(1, 5):
            for n in (rng.randint(components, 511), 512):
                yield random_matrix(n, rng.randrange(10 ** 6), field, components)


def test_cli_bases_are_certified_without_the_elimination(tmp_path, capsys, monkeypatch):
    forbid_elimination(monkeypatch)
    sizes = []
    for m in certificate_instances():
        path = write_instance(m, tmp_path)
        for command in ("null-basis", "rank-basis"):
            assert cli.main([command, path, "--check", "-o", str(tmp_path / "b")]) == 0
            assert "oracle span verified" in capsys.readouterr().err
        sizes.append(m.n)
    assert len(sizes) == 155 + 24 and sizes.count(512) == 12


def test_rank_basis_check_refuses_a_bad_witness(tmp_path, capsys, monkeypatch):
    # a witness that is short, repeats a vector or is not annihilated
    # proves nothing, so even the right row basis is refused
    witness = kernel.sparsest_null_basis
    for j, field in enumerate(FIELDS):
        m = random_matrix(40, 9, field, components=2)
        path = write_instance(m, tmp_path)
        right = rank_basis(m)
        vectors = witness(m, kernel.maximum_matching(m.pattern)).vectors
        k, w = next((k, min(vec.entries)) for k, vec in enumerate(vectors)
                    if len(vec.entries) >= 2)
        doubled = vectors[k].add(sv(m.n, {w: vectors[k].entries[w]}, field))
        spoils = (vectors[1:], vectors[:-1] + vectors[:1],
                  vectors[:k] + [doubled] + vectors[k + 1:])
        monkeypatch.setattr("forestnull.rank.rank_basis", lambda m: right)
        for i, spoiled in enumerate((vectors,) + spoils):
            monkeypatch.setattr(kernel, "sparsest_null_basis",
                                lambda m, matching, spoiled=spoiled: Basis(spoiled))
            out = tmp_path / ("b%d-%d" % (j, i))
            code = cli.main(["rank-basis", path, "--check", "-o", str(out)])
            assert capsys.readouterr().err == (
                SPAN_ERROR if i else
                "check: ok (dimension %d, oracle span verified)\n" % right.dimension)
            assert (code, out.exists()) == ((1, False) if i else (0, True))


def without_pair(partner, u):
    """partner with u and its partner unmatched."""
    forged = list(partner)
    forged[u] = forged[partner[u]] = -1
    return forged


def forged_pairings(m, partner):
    """(name, forged partner array): each is refused by one of the
    pairing checks."""
    n, neighbors, offsets = m.n, m.pattern.neighbors, m.pattern.offsets
    matched = [u for u in range(n) if partner[u] >= 0]
    exposed = [u for u in range(n) if partner[u] < 0]
    if matched:
        yield "one pair dropped", without_pair(partner, matched[0])
    # b - c a pair, a another neighbor of b, paired elsewhere or exposed:
    # a -> b makes partner no involution, every pair still stored
    for b in matched:
        c = partner[b]
        a = next((a for a in neighbors[offsets[b]:offsets[b + 1]] if a != c), None)
        if a is not None:
            forged = list(partner)
            forged[a] = b
            yield "not an involution", forged
            break
    # two pairs u - p and a - b exchange partners: an involution, but
    # the forest does not hold both u - b and a - p
    for u, a in zip(matched, matched[1:]):
        p, b = partner[u], partner[a]
        if len({u, p, a, b}) == 4:
            forged = list(partner)
            forged[u], forged[b], forged[a], forged[p] = b, u, p, a
            yield "pairs not stored", forged
            break
    if exposed:
        forged = list(partner)
        forged[exposed[0]] = exposed[0]
        yield "paired with itself", forged
        forged = list(partner)
        forged[exposed[0]] = n
        yield "partner out of range", forged


def mistyped(m, vectors):
    """(name, vectors) with the first vector made n + 7 long, with its
    entries or with one more at n + 3, or re-typed to another field."""
    if not vectors:
        return
    n, field, entries = m.n, m.field, vectors[0].entries
    other = next(f for f in FIELDS if f != field)
    for name, vec in (("too long", sv(n + 7, entries, field)),
                      ("entry past n", sv(n + 7, {**entries, n + 3: field.one}, field)),
                      ("other field", SparseVector._trusted(n, other, entries))):
        yield name, Basis([vec] + vectors[1:])


def test_certificate_refuses_forged_claims():
    # every prefix of the witness peels, so whatever rank a forged
    # pairing claims, one prefix has the matching length; the pairing
    # checks must refuse it.  A witness of the right count that peels
    # but holds one vector M does not annihilate (one entry doubled,
    # the support kept) must be refused by the certificate itself, and
    # so must a witness or row basis with a vector of the wrong length
    # or field, whose entries would otherwise prove the claim
    seen = set()
    for m in random_instances():
        matching = kernel.maximum_matching(m.pattern)
        partner = matching.partner
        witness = kernel.sparsest_null_basis(m, matching)
        rows = rank_basis(m)
        prefixes = [Basis(witness.vectors[:k]) for k in range(witness.dimension + 1)]
        assert oracle.certifies_span(m, partner, witness, rows)
        for name, forged in mistyped(m, witness.vectors):
            assert not oracle.certifies_span(m, partner, forged), (name, m)
            seen.add("witness " + name)
        for name, forged in mistyped(m, rows.vectors):
            assert not oracle.certifies_span(m, partner, witness, forged), (name, m)
            seen.add("row basis " + name)
        if m.field != QQ:  # an equal field that is another object is the same field
            same = PrimeField(m.field.p)
            retyped = [SparseVector._trusted(m.n, same, v.entries) for v in witness.vectors]
            assert oracle.certifies_span(m, partner, Basis(retyped), rows)
        assert not any(oracle.certifies_span(m, partner[:-1], w) for w in prefixes)
        for name, forged in forged_pairings(m, partner):
            assert not any(oracle.certifies_span(m, forged, w) for w in prefixes), (name, m)
            seen.add(name)
        vectors = witness.vectors
        for k, vec in enumerate(vectors):
            if len(vec.entries) >= 2:
                w = min(vec.entries)
                doubled = vec.add(sv(m.n, {w: vec.entries[w]}, m.field))
                forged = Basis(vectors[:k] + [doubled] + vectors[k + 1:])
                assert oracle._peel([v.entries for v in forged.vectors], m.n) == []
                assert not oracle.certifies_span(m, partner, forged), m
                assert not oracle.certifies_span(m, partner, forged, rank_basis(m)), m
                seen.add("not annihilated")
                break
    assert len(seen) == 12, seen


@pytest.mark.parametrize("command, producer",
                         [("null-basis", "forestnull.kernel.sparsest_null_basis"),
                          ("rank-basis", "forestnull.rank.rank_basis")])
def test_check_refuses_a_matching_that_is_not_maximum(tmp_path, capsys, monkeypatch,
                                                      command, producer):
    # a valid matching one pair short of maximum claims rank 2 nu - 2:
    # no witness of n - 2 nu + 2 annihilated vectors peels, so the
    # certificate proves nothing, and even the right basis is refused
    maximum = kernel.maximum_matching
    for j, field in enumerate(FIELDS):
        monkeypatch.setattr(kernel, "maximum_matching", maximum)  # rank_basis calls it
        m = random_matrix(40, 13, field, components=2)
        path = write_instance(m, tmp_path)
        right = (null_basis if command == "null-basis" else rank_basis)(m).vectors
        best = maximum(m.pattern)
        partner = without_pair(best.partner, best.partner.index(max(best.partner)))
        short = kernel.MatchingInfo(partner, best.nu - 1,
                                    tuple(v for v, p in enumerate(partner) if p < 0))
        monkeypatch.setattr(kernel, "maximum_matching", lambda f, short=short: short)
        for i, vectors in enumerate((right, right[1:], right[:-1] + right[:1])):
            monkeypatch.setattr(producer, lambda m, *matching, vectors=vectors: Basis(vectors))
            out = tmp_path / ("b%d-%d" % (j, i))
            assert cli.main([command, path, "--check", "-o", str(out)]) == 1
            assert capsys.readouterr().err == SPAN_ERROR
            assert not out.exists()

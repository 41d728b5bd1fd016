"""``--check`` on null-basis and rank-basis.

At every n the check first tries a certificate that needs no
elimination (``oracle.certifies_span``): the r vertices that the
matching of ``kernel.maximum_matching`` pairs, each pair a stored entry
of M, prove rank >= r; a null witness of n - r annihilated vectors
peels, so rank = r and it spans the null space.  The witness is the
output for null-basis and ``kernel.sparsest_null_basis`` on the same
matching for rank-basis, whose r vectors must then peel and be
orthogonal to it.  Only when that is inconclusive, and only up to
``ORACLE_BOUND`` vertices, does one forward elimination of M
(``oracle.row_echelon``) decide: the basis has as many vectors as the
target space's dimension, they are independent
(``oracle.first_dependent``: a peel, then one echelon form for the
vectors it leaves), and each lies in the space (M x = 0 for the null
space, reduction to zero against the elimination's rows for the row
space); above the bound an inconclusive certificate is refused.  The
differential tests here hold the verdict to mutual span reduction
against a reference basis, on the right basis and on spoiled ones,
below the bound and at a real n above it; others hold that the CLI's
own bases never need the elimination, that a bad witness or a matching
that is not maximum falls back to it, that forged pairings prove
nothing, and that a refused run writes no output.
"""

import random
from collections import Counter

import pytest

from forestnull import Basis, PrimeField, QQ, ValidationError
from forestnull import build_forest, cli, kernel, matrixio, oracle
from forestnull.generate import random_matrix
from forestnull.rank import rank_basis
from forestnull.scaling import null_basis
from conftest import sv
from forest_helpers import same_span
from test_acceptance import matrix_on
from treegen import free_forests

FIELDS = (QQ, PrimeField(7), PrimeField(1000003))
SPAN_ERROR = "error: check failed: span differs from the oracle\n"
ANNIHILATION_ERROR = "error: check failed: output vector is not annihilated\n"
BOUND_ERROR = ("error: check failed: span not certified, and no elimination runs "
               "above n = 512\n")


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
    try:
        if null and not cli._annihilated(m, basis):
            return False
        matching = kernel.maximum_matching(m.pattern)
        witness = basis if null else kernel.sparsest_null_basis(m, matching)
        cli._check_span_certificate(m, basis, null, matching.partner, witness)
    except ValidationError:
        return False
    return True


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


@pytest.mark.parametrize("bound", [None, 8])
def test_cli_check_verdict_agrees_with_same_span_on_small_forests(tmp_path, capsys,
                                                                  monkeypatch, bound):
    # n <= 8, so even the lowered bound runs the certificate
    if bound is not None:
        monkeypatch.setattr(oracle, "ORACLE_BOUND", bound)
    path, out = tmp_path / "m.mtx", str(tmp_path / "b")
    refused = 0
    witness = kernel.sparsest_null_basis  # the rank-basis check's witness stays right
    for m in small_forest_instances():
        matrixio.write_matrix(m, path)
        for null, basis, want in cases(m):
            command = "null-basis" if null else "rank-basis"
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
                assert err == SPAN_ERROR or (null and err == ANNIHILATION_ERROR)
    assert refused > 300


def test_row_echelon_rows_are_an_echelon_form_of_the_dense_row_basis():
    # forward elimination only: the rows are not the reduced ones, but
    # they have the same pivots, the form's invariant, and the same span
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
    # a real n above ORACLE_BOUND: the certificate alone decides, so the
    # right basis and the span-keeping sums pass and every other spoil
    # is refused in one line, with nothing written
    m = random_matrix(650, 23 + components, field, components)
    assert m.n > oracle.ORACLE_BOUND
    path = write_instance(m, tmp_path)
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
                if want else BOUND_ERROR))
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
    def no_elimination(m):
        raise AssertionError("the certificate was inconclusive")

    monkeypatch.setattr(oracle, "row_echelon", no_elimination)
    sizes = []
    for m in certificate_instances():
        path = write_instance(m, tmp_path)
        for command in ("null-basis", "rank-basis"):
            assert cli.main([command, path, "--check", "-o", str(tmp_path / "b")]) == 0
            assert "oracle span verified" in capsys.readouterr().err
        sizes.append(m.n)
    assert len(sizes) == 155 + 24 and sizes.count(512) == 12


def test_rank_basis_check_falls_back_to_the_elimination_on_a_bad_witness(tmp_path, capsys,
                                                                        monkeypatch):
    # a witness that is short, repeats a vector or is not annihilated
    # proves nothing, so the elimination decides, as it would have alone
    calls = []
    row_echelon = oracle.row_echelon
    monkeypatch.setattr(oracle, "row_echelon", lambda m: calls.append(m.n) or row_echelon(m))
    witness = kernel.sparsest_null_basis
    for field in FIELDS:
        m = random_matrix(40, 9, field, components=2)
        path, out = write_instance(m, tmp_path), str(tmp_path / "b")
        right = rank_basis(m).vectors
        vectors = witness(m, kernel.maximum_matching(m.pattern)).vectors
        k, w = next((k, min(vec.entries)) for k, vec in enumerate(vectors)
                    if len(vec.entries) >= 2)
        doubled = vectors[k].add(sv(m.n, {w: vectors[k].entries[w]}, field))
        spoils = (vectors[1:], vectors[:-1] + vectors[:1],
                  vectors[:k] + [doubled] + vectors[k + 1:])
        for spoiled in (vectors,) + spoils:
            monkeypatch.setattr(kernel, "sparsest_null_basis",
                                lambda m, matching, spoiled=spoiled: Basis(spoiled))
            del calls[:]
            monkeypatch.setattr("forestnull.rank.rank_basis", lambda m: Basis(right))
            assert cli.main(["rank-basis", path, "--check", "-o", out]) == 0
            assert "oracle span verified" in capsys.readouterr().err
            assert calls == ([] if spoiled is vectors else [m.n])
            monkeypatch.setattr("forestnull.rank.rank_basis", lambda m: Basis(right[1:]))
            assert cli.main(["rank-basis", path, "--check", "-o", out]) == 1
            assert capsys.readouterr().err == SPAN_ERROR


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


def test_certificate_refuses_forged_claims():
    # every prefix of the witness peels, so whatever rank a forged
    # pairing claims, one prefix has the matching length; the pairing
    # checks must refuse it
    seen = set()
    for m in random_instances():
        matching = kernel.maximum_matching(m.pattern)
        partner = matching.partner
        witness = kernel.sparsest_null_basis(m, matching)
        prefixes = [Basis(witness.vectors[:k]) for k in range(witness.dimension + 1)]
        assert oracle.certifies_span(m, partner, witness, rank_basis(m))
        assert not any(oracle.certifies_span(m, partner[:-1], w) for w in prefixes)
        for name, forged in forged_pairings(m, partner):
            assert not any(oracle.certifies_span(m, forged, w) for w in prefixes), (name, m)
            seen.add(name)
    assert len(seen) == 5, seen


@pytest.mark.parametrize("command, producer",
                         [("null-basis", "forestnull.kernel.sparsest_null_basis"),
                          ("rank-basis", "forestnull.rank.rank_basis")])
def test_check_reaches_its_verdict_by_elimination_on_a_matching_that_is_not_maximum(
        tmp_path, capsys, monkeypatch, command, producer):
    # a valid matching one pair short of maximum claims rank 2 nu - 2:
    # no witness of n - 2 nu + 2 annihilated vectors peels, so the
    # certificate is inconclusive and the elimination gives the verdict
    # it gives on the maximum matching
    calls = []
    row_echelon = oracle.row_echelon
    monkeypatch.setattr(oracle, "row_echelon", lambda m: calls.append(m.n) or row_echelon(m))
    maximum = kernel.maximum_matching
    for field in FIELDS:
        monkeypatch.setattr(kernel, "maximum_matching", maximum)  # rank_basis calls it
        m = random_matrix(40, 13, field, components=2)
        path, out = write_instance(m, tmp_path), str(tmp_path / "b")
        right = (null_basis if command == "null-basis" else rank_basis)(m).vectors
        best = maximum(m.pattern)
        partner = without_pair(best.partner, best.partner.index(max(best.partner)))
        short = kernel.MatchingInfo(partner, best.nu - 1,
                                    tuple(v for v, p in enumerate(partner) if p < 0))
        monkeypatch.setattr(kernel, "maximum_matching", lambda f, short=short: short)
        for vectors, code in ((right, 0), (right[1:], 1), (right[:-1] + right[:1], 1)):
            monkeypatch.setattr(producer, lambda m, *matching, vectors=vectors: Basis(vectors))
            del calls[:]
            assert cli.main([command, path, "--check", "-o", out]) == code
            assert calls == [m.n]
            assert capsys.readouterr().err == (
                SPAN_ERROR if code else
                "check: ok (dimension %d, oracle span verified)\n" % len(right))

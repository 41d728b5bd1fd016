import random
from itertools import combinations

import pytest

from forestnull import QQ, adjacency_matrix, build_forest, maximum_matching, support
from forestnull.generate import random_forest_edges
from forestnull import oracle
from forest_helpers import neighbors_of, pattern_basis
from treegen import free_forests, free_trees


def brute_matching_number(n, edges):
    """Maximum matching by trying every edge subset (tiny n only)."""
    best = 0
    for k in range(len(edges), 0, -1):
        if k <= best:
            break
        for sub in combinations(edges, k):
            used = set()
            ok = True
            for u, v in sub:
                if u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
            if ok:
                best = max(best, k)
                break
    return best


def path_forest(n):
    return build_forest(n, [(i, i + 1) for i in range(n - 1)])


def test_matching_p3(p3):
    mi = maximum_matching(p3)
    assert mi.nu == 1
    assert len(mi.exposed) == 1


def test_matching_p5_vs_brute():
    f = path_forest(5)
    mi = maximum_matching(f)
    assert mi.nu == brute_matching_number(5, f.edges) == 2
    assert len(mi.exposed) == 1


def test_matching_star():
    f = build_forest(4, [(0, 1), (0, 2), (0, 3)])
    mi = maximum_matching(f)
    assert mi.nu == 1
    # post-order from vertex 0 matches the first leaf, leaving two exposed
    assert mi.partner[0] == 1 and mi.partner[1] == 0
    assert sorted(mi.exposed) == [2, 3]


def test_matching_partner_is_involution_on_edges():
    for trial in range(40):
        rng = random.Random(trial)
        n = rng.randint(1, 40)
        f = build_forest(n, random_forest_edges(n, rng, rng.randint(1, min(4, n))))
        mi = maximum_matching(f)
        for v, p in enumerate(mi.partner):
            if p >= 0:
                assert mi.partner[p] == v
                assert p in neighbors_of(f, v)
        assert len(mi.exposed) == n - 2 * mi.nu
        assert mi.nu == brute_matching_number(n, f.edges) if n <= 12 else True


def test_matching_is_maximum_exhaustive():
    for n in range(1, 9):
        for edges in free_trees(n):
            f = build_forest(n, list(edges))
            assert maximum_matching(f).nu == brute_matching_number(n, f.edges)


def test_support_examples(p3):
    info = support(p3, maximum_matching(p3))
    assert sorted(info.supp) == [0, 2]
    assert sorted(info.core) == [1]

    p4 = path_forest(4)
    info4 = support(p4, maximum_matching(p4))
    assert info4.supp == frozenset() and info4.core == frozenset()

    star = build_forest(4, [(0, 1), (0, 2), (0, 3)])
    info_s = support(star, maximum_matching(star))
    assert sorted(info_s.supp) == [1, 2, 3]
    assert sorted(info_s.core) == [0]


def test_support_is_independent_and_sized():
    # no two support vertices adjacent; size identity with the core
    for n in range(1, 10):
        for edges in free_forests(n):
            f = build_forest(n, list(edges))
            mi = maximum_matching(f)
            info = support(f, mi)
            for u, v in f.edges:
                assert not (u in info.supp and v in info.supp)
            assert len(info.supp) - len(info.core) == n - 2 * mi.nu
            assert info.core.isdisjoint(info.supp)


def test_support_matches_deletion_oracle():
    for n in range(1, 10):
        for edges in free_forests(n):
            f = build_forest(n, list(edges))
            assert support(f, maximum_matching(f)).supp == oracle.support_by_matching(f)


def test_support_matches_mis_intersection_small():
    for n in range(1, 9):
        for edges in free_forests(n):
            f = build_forest(n, list(edges))
            assert support(f, maximum_matching(f)).supp == oracle.support_by_mis(f)


def test_sparsest_basis_examples():
    b5 = pattern_basis(path_forest(5))
    assert [v.entries for v in b5.vectors] == [{0: 1, 2: -1, 4: 1}]

    star = build_forest(4, [(0, 1), (0, 2), (0, 3)])
    bs = pattern_basis(star)
    assert [v.entries for v in bs.vectors] == [{2: 1, 1: -1}, {3: 1, 1: -1}]
    assert sum(v.nnz() for v in bs.vectors) == 4

    assert pattern_basis(path_forest(4)).dimension == 0


def test_basis_vectors_annihilated_and_structured():
    for trial in range(30):
        rng = random.Random(100 + trial)
        n = rng.randint(1, 50)
        f = build_forest(n, random_forest_edges(n, rng, rng.randint(1, min(3, n))))
        mi = maximum_matching(f)
        info = support(f, mi)
        basis = pattern_basis(f)
        a = adjacency_matrix(f)
        assert basis.dimension == n - 2 * mi.nu
        exposed = sorted(mi.exposed)
        union = set()
        for i, vec in enumerate(basis.vectors):
            assert a.apply(vec).is_zero()
            assert set(vec.entries) <= info.supp
            assert all(x in (QQ.one, -QQ.one) for x in vec.entries.values())
            # identity pattern on the exposed vertices
            for j, u in enumerate(exposed):
                assert (vec.get(u) != 0) == (i == j)
            union |= set(vec.entries)
        assert union == set(info.supp)


def test_isolated_vertices_give_unit_vectors():
    f = build_forest(3, [(1, 2)])
    basis = pattern_basis(f)
    assert basis.vectors[0].entries == {0: 1}


def test_records_are_immutable_named_tuples():
    f = build_forest(3, [(0, 1), (1, 2)])
    matching = maximum_matching(f)
    info = support(f, matching)
    dense = oracle.dense_analysis(adjacency_matrix(f))
    for record in (matching, info, dense):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
    partner, nu, exposed = matching
    assert (partner, nu, exposed) == ([-1, 2, 1], 1, (0,))
    supp, core = info
    assert info == (frozenset({0, 2}), frozenset({1})) and (supp, core) == info
    assert hash(info) == hash(support(f, matching))

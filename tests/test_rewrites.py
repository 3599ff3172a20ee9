from fractions import Fraction

import pytest

from qmn.mn import mn_expansion
from qmn.posets import PosetError, from_covers, is_naturally_labeled
from qmn.qsym import QsymExpr
from qmn.rewrites import (
    add_edge_pair,
    chain_from_marks,
    reduce_to_natural_chains,
    split_weight,
)
from qmn.surjections import monomial_expansion
from tests.conftest import budgeted_random_poset


def incomparable_pairs(p):
    return [
        (i, j)
        for i in range(p.n)
        for j in range(i + 1, p.n)
        if (i, j) not in p.less and (j, i) not in p.less
    ]


def test_add_edge_pair_on_antichain():
    p = from_covers(2, [], [1, 2], [1, 1])
    weak, strict = add_edge_pair(p, 0, 1)
    assert weak.covers == [(0, 1)] and not weak.edge_is_strict(0, 1)
    assert strict.covers == [(1, 0)] and strict.edge_is_strict(1, 0)
    assert monomial_expansion(p) == monomial_expansion(weak) + monomial_expansion(strict)


def test_add_edge_orientation_normalized():
    p = from_covers(2, [], [2, 1], [1, 1])
    # argument order should not matter; the weak result relates the
    # smaller label below the larger one
    weak, strict = add_edge_pair(p, 0, 1)
    weak2, strict2 = add_edge_pair(p, 1, 0)
    assert (weak, strict) == (weak2, strict2)
    a, b = weak.covers[0]
    assert weak.omega[a] < weak.omega[b]


def test_add_edge_identity_random():
    for seed in range(80):
        p = budgeted_random_poset(6, 8, seed)
        pairs = incomparable_pairs(p)
        if not pairs:
            continue
        a, b = pairs[seed % len(pairs)]
        weak, strict = add_edge_pair(p, a, b)
        total = monomial_expansion(weak) + monomial_expansion(strict)
        assert total == monomial_expansion(p)
        assert mn_expansion(weak) + mn_expansion(strict) == mn_expansion(p)


def test_split_weight_shapes():
    p = from_covers(2, [(0, 1)], [1, 2], [3, 1])
    weak, strict = split_weight(p, 0, 1, 2)
    for q in (weak, strict):
        assert q.n == 3
        assert q.d == (1, 1, 2)
        assert (0, 2) in q.less and (2, 1) in q.less
    assert not weak.edge_is_strict(0, 2)
    assert strict.edge_is_strict(0, 2)


def test_split_weight_identity_random():
    for seed in range(80):
        p = budgeted_random_poset(5, 8, seed)
        heavy = [x for x in range(p.n) if p.d[x] >= 2]
        if not heavy:
            continue
        a = heavy[seed % len(heavy)]
        d1 = 1 + seed % (p.d[a] - 1)
        weak, strict = split_weight(p, a, d1, p.d[a] - d1)
        diff = monomial_expansion(weak) - monomial_expansion(strict)
        assert diff == monomial_expansion(p)
        assert mn_expansion(weak) - mn_expansion(strict) == mn_expansion(p)


def _down_up(p, lo, hi):
    """Pair-based reference: p.less with down(lo) x up(hi) added."""
    down = {x for x in range(p.n) if (x, lo) in p.less} | {lo}
    up = {y for y in range(p.n) if (hi, y) in p.less} | {hi}
    return p.less | {(x, y) for x in down for y in up}


def _split_relation(p, a):
    """Pair-based reference: the new vertex n sits just above a, below every
    element above a and above every element below a."""
    n = p.n
    return (
        p.less
        | {(a, n)}
        | {(x, n) for x, y in p.less if y == a}
        | {(n, y) for x, y in p.less if x == a}
    )


def _split_labels(p, a):
    """The weak and strict labelings of a split at a: labels above omega(a)
    move up one, and a and the new vertex take omega(a) and omega(a) + 1."""
    i = p.omega[a]
    shifted = tuple(lab + (lab > i) for lab in p.omega)
    return shifted + (i + 1,), shifted[:a] + (i + 1,) + shifted[a + 1:] + (i,)


def test_rewrites_match_pair_based_references(cross_check_posets):
    for p in cross_check_posets:
        for a, b in incomparable_pairs(p):
            lo, hi = (a, b) if p.omega[a] < p.omega[b] else (b, a)
            weak, strict = add_edge_pair(p, a, b)
            assert (weak.less, weak.omega, weak.d) == (_down_up(p, lo, hi), p.omega, p.d)
            assert (strict.less, strict.omega, strict.d) == (_down_up(p, hi, lo), p.omega, p.d)
        for a in range(p.n):
            for d1 in range(1, p.d[a]):
                d = p.d[:a] + (d1,) + p.d[a + 1:] + (p.d[a] - d1,)
                weak, strict = split_weight(p, a, d1, p.d[a] - d1)
                omega_weak, omega_strict = _split_labels(p, a)
                less = _split_relation(p, a)
                assert (weak.n, weak.less, weak.omega, weak.d) == (p.n + 1, less, omega_weak, d)
                assert (strict.n, strict.less, strict.omega, strict.d) == (
                    p.n + 1, less, omega_strict, d
                )


def test_chain_from_marks_relates_every_pair_in_order():
    for n in range(1, 7):
        for pattern in range(1 << (n - 1)):
            marks = [bool(pattern >> k & 1) for k in range(n - 1)]
            chain = chain_from_marks(marks, [1] * n)
            assert chain.less == {(i, j) for i in range(n) for j in range(i + 1, n)}
            assert [chain.edge_is_strict(k, k + 1) for k in range(n - 1)] == marks


def test_split_weight_rejects_bad_parts():
    p = from_covers(1, [], [1], [3])
    with pytest.raises(PosetError):
        split_weight(p, 0, 2, 2)
    with pytest.raises(PosetError):
        split_weight(p, 0, 3, 0)


def test_chain_from_marks():
    c = chain_from_marks([True, False], [1, 1, 1])
    assert c.edge_is_strict(0, 1) and not c.edge_is_strict(1, 2)
    assert is_naturally_labeled(chain_from_marks([False, False], [2, 1, 3]))
    all_strict = chain_from_marks([True] * 4, [1] * 5)
    assert all(all_strict.edge_is_strict(k, k + 1) for k in range(4))
    assert all_strict.omega == (5, 4, 3, 2, 1)
    with pytest.raises(PosetError):
        chain_from_marks([True], [1, 1, 1])


def test_reduction_output_is_natural_chains():
    for seed in range(30):
        p = budgeted_random_poset(5, 7, seed)
        for sign, chain, weights in reduce_to_natural_chains(p):
            assert sign in (1, -1)
            assert is_naturally_labeled(chain)
            assert chain.omega == tuple(range(1, chain.n + 1))
            assert chain.d == weights
            assert sum(weights) == sum(p.d)


def test_reduction_reproduces_expansion():
    for seed in range(30):
        p = budgeted_random_poset(5, 7, seed)
        total = QsymExpr("M", {})
        for sign, chain, _ in reduce_to_natural_chains(p):
            total = total + monomial_expansion(chain).scaled(Fraction(sign))
        assert total == monomial_expansion(p)


def test_reduction_of_natural_chain_is_itself():
    chain = chain_from_marks([False, False], [2, 1, 3])
    out = reduce_to_natural_chains(chain)
    assert out == [(1, chain, (2, 1, 3))]

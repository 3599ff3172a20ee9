import math
from itertools import accumulate, permutations

import pytest
from hypothesis import given, strategies as st

from qmn.compositions import (
    blocks_pi,
    canonical_key,
    coarsening_blocks,
    coarsenings,
    compositions_of,
    format_composition,
    is_refinement,
    parse_composition,
    partitions_of,
    pi,
    rearrangements,
    refinement_blocks,
    z,
)

compositions = st.lists(st.integers(1, 5), min_size=1, max_size=6).map(tuple)


def test_coarsenings_examples():
    assert coarsenings((1, 1, 1)) == {(1, 1, 1), (1, 2), (2, 1), (3,)}
    assert coarsenings((5,)) == {(5,)}
    assert coarsenings((1, 5, 2)) == {(1, 5, 2), (6, 2), (1, 7), (8,)}


@given(compositions)
def test_coarsening_count(alpha):
    assert len(coarsenings(alpha)) == 2 ** (len(alpha) - 1)


def test_coarsening_blocks_against_refinement_blocks():
    for n in range(1, 9):
        for alpha in compositions_of(n):
            cuts = list(coarsening_blocks(alpha))
            assert len(cuts) == len(set(cuts)) == 2 ** (len(alpha) - 1)
            for blocks in cuts:
                assert sum(blocks, ()) == alpha
                beta = tuple(map(sum, blocks))
                assert list(blocks) == refinement_blocks(alpha, beta)
                prefix_sums = (s for block in blocks for s in accumulate(block))
                assert blocks_pi(blocks) == pi(alpha, beta) == math.prod(prefix_sums)


def test_is_refinement_examples():
    assert is_refinement((1, 1), (2,))
    assert not is_refinement((2,), (1, 1))
    assert is_refinement((1, 2, 1), (3, 1))


def test_refinement_is_partial_order():
    for n in range(1, 8):
        comps = compositions_of(n)
        for a in comps:
            assert is_refinement(a, a)
        rel = {(a, b) for a in comps for b in coarsenings(a)}
        for a, b in rel:
            assert is_refinement(a, b)
            if a != b:
                assert not is_refinement(b, a)
        for a, b in rel:
            for c in coarsenings(b):
                assert (a, c) in rel


def test_z_examples():
    assert z((1,)) == 1
    assert z((1, 1)) == 2
    assert z((2, 1, 2)) == 8


@given(compositions)
def test_z_permutation_invariant(alpha):
    assert z(alpha) == z(tuple(sorted(alpha)))


def test_pi_examples():
    assert pi((1, 1), (2,)) == 2
    assert pi((3,), (3,)) == 3
    assert pi((1, 2, 1), (3, 1)) == 3


def test_pi_rejects_non_refinement():
    with pytest.raises(ValueError):
        pi((2,), (1, 1))


@given(compositions)
def test_pi_identity_and_one_part(alpha):
    prod = 1
    for a in alpha:
        prod *= a
    assert pi(alpha, alpha) == prod
    acc, prefixes = 0, 1
    for a in alpha:
        acc += a
        prefixes *= acc
    assert pi(alpha, (sum(alpha),)) == prefixes


@given(compositions)
def test_pi_multiplicative_over_blocks(alpha):
    for beta in coarsenings(alpha):
        prod = 1
        pos = 0
        for b in beta:
            block = []
            while sum(block) < b:
                block.append(alpha[pos])
                pos += 1
            prod *= pi(tuple(block), (b,))
        assert pi(alpha, beta) == prod


def test_rearrangements():
    assert rearrangements((2, 1)) == {(2, 1), (1, 2)}
    assert rearrangements((1, 1, 1)) == {(1, 1, 1)}
    assert len(rearrangements((2, 2, 1))) == 3
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert rearrangements(mu) == set(permutations(mu))
    assert rearrangements((1,) * 12) == {(1,) * 12}


def test_parse_format_roundtrip():
    assert parse_composition("1,5,2") == (1, 5, 2)
    assert format_composition((1, 5, 2)) == "1,5,2"
    with pytest.raises(ValueError):
        parse_composition("1,0,2")
    with pytest.raises(ValueError):
        parse_composition("")


def test_canonical_order_is_graded_then_lex():
    comps = sorted([(2,), (1, 1), (3,), (1, 2)], key=canonical_key)
    assert comps == [(1, 1), (2,), (1, 2), (3,)]


def test_partitions_of():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

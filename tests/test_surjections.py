import math
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations
from operator import attrgetter

import pytest

from tests.conftest import budgeted_random_poset, terms_at_partitions
from qmn.compositions import coarsenings, compositions_of, partitions_of
from qmn.mn import (
    _block_contribution,
    _weakly_decreasing,
    mn_expansion,
    mn_monomial_expansion,
    mn_partition_expansions,
    natural_mn_expansion,
    rooted_surjections,
)
from qmn.posets import (
    LabeledPoset,
    from_covers,
    induced_subposet,
    mask_elements,
    natural_relabeling,
    random_poset,
)
from qmn.qsym import QsymExpr
from qmn.schur import SkewShape, shape_to_poset
from qmn.surjections import (
    ChainEngine,
    PosetTooLarge,
    _composition,
    _one_part,
    enumerate_order_surjections,
    enumerate_partition_surjections,
    monomial_expansion,
)

weak_chain = from_covers(2, [(0, 1)], [1, 2], [1, 1])
strict_chain = from_covers(2, [(0, 1)], [2, 1], [1, 1])
antichain2 = from_covers(2, [], [1, 2], [1, 1])


def test_order_surjection_counts():
    assert len(enumerate_order_surjections(weak_chain, 2)) == 1
    assert enumerate_order_surjections(weak_chain, 2)[0].levels == (1, 2)
    assert len(enumerate_order_surjections(antichain2, 2)) == 2
    assert len(enumerate_order_surjections(antichain2, 1)) == 1


def test_partition_surjections_respect_strict_edges():
    assert len(enumerate_partition_surjections(weak_chain, 1)) == 1
    assert len(enumerate_partition_surjections(strict_chain, 1)) == 0


def test_weighted_strip_has_no_constant_partition(weighted_strip):
    assert enumerate_partition_surjections(weighted_strip, 1) == []


def test_partition_subset_of_order():
    for seed in range(20):
        p = random_poset(seed % 7 + 1, Fraction(1, 2), seed=seed)
        for ell in range(1, p.n + 1):
            order = enumerate_order_surjections(p, ell)
            part = enumerate_partition_surjections(p, ell)
            assert set(part) <= set(order)


def test_wt_and_wtd():
    p = from_covers(2, [(0, 1)], [1, 2], [2, 3])
    (f,) = enumerate_order_surjections(p, 1)
    assert f.wt == (2,) and f.wtd == (5,)


def test_monomial_expansion_examples(weighted_strip):
    assert monomial_expansion(strict_chain) == QsymExpr("M", {(1, 1): 1})
    assert monomial_expansion(antichain2) == QsymExpr("M", {(1, 1): 2, (2,): 1})


def test_natural_chain_expansion():
    # naturally labeled chain of weights d expands as sum of M_beta over
    # all coarsenings beta of d, every coefficient 1
    d = (1, 2, 2)
    chain = from_covers(3, [(0, 1), (1, 2)], [1, 2, 3], list(d))
    expected = QsymExpr("M", {beta: 1 for beta in coarsenings(d)})
    assert monomial_expansion(chain) == expected


def test_natural_expansion_label_independent():
    for seed in range(10):
        p = natural_relabeling(random_poset(6, Fraction(1, 2), seed=seed))
        # a second natural labeling via a different (reversed-index) extension
        q = natural_relabeling(
            from_covers(p.n, [(b, a) for a, b in p.covers], p.omega, p.d)
        )
        relabeled = from_covers(p.n, p.covers, tuple(q.omega[::-1][i] for i in range(p.n)), p.d)
        if not all(
            relabeled.omega[a] < relabeled.omega[b] for a, b in relabeled.covers
        ):
            continue
        assert monomial_expansion(p) == monomial_expansion(relabeled)


def test_degree_is_total_weight():
    p = from_covers(3, [(0, 2)], [2, 3, 1], [2, 1, 3])
    assert monomial_expansion(p).degree == 6


_degree = attrgetter("degree")


# every walk of the ideal lattice, with a size of its answer on a natural 11-chain:
# its 2^10 compositions are all rooted, and it has one surjection onto [11]
@pytest.mark.parametrize(
    "walk, size, expected",
    [
        (monomial_expansion, _degree, 11),
        (mn_expansion, _degree, 11),
        (partial(mn_partition_expansions, total=11), lambda rows: rows[2**11 - 1].degree, 11),
        (mn_monomial_expansion, _degree, 11),
        (natural_mn_expansion, _degree, 11),
        (rooted_surjections, len, 2**10),
        (partial(enumerate_order_surjections, ell=11), len, 1),
    ],
    ids=[
        "monomial_expansion",
        "mn_expansion",
        "mn_partition_expansions",
        "mn_monomial_expansion",
        "natural_mn_expansion",
        "rooted_surjections",
        "enumerate_order_surjections",
    ],
)
def test_size_guard(walk, size, expected):
    big = from_covers(11, [(i, i + 1) for i in range(10)], list(range(1, 12)), [1] * 11)
    with pytest.raises(PosetTooLarge):
        walk(big)
    assert size(walk(big, max_n=11)) == expected


def test_fold_matches_explicit_enumeration(cross_check_posets):
    for p in cross_check_posets:
        explicit = Counter(
            f.wtd for ell in range(1, p.n + 1) for f in enumerate_partition_surjections(p, ell)
        )
        assert monomial_expansion(p) == QsymExpr("M", explicit), p.to_json_dict()


def _successors_by_pairs(p, ideal):
    """The sorted nonempty B outside the ideal with ideal | B closed under p.less."""
    inside = {x for x in range(p.n) if ideal >> x & 1}
    rest = [x for x in range(p.n) if x not in inside]
    out = []
    for k in range(1, len(rest) + 1):
        for block in combinations(rest, k):
            union = inside | set(block)
            if all(a in union for a, b in p.less if b in union):
                out.append(sum(1 << x for x in block))
    return sorted(out)


def test_successors_match_the_definition(cross_check_posets):
    """The blocks listed above each ideal are the definition's, sorted."""
    shapes = [shape_to_poset(SkewShape(lam)) for k in range(1, 8) for lam in partitions_of(k)]
    chain = from_covers(10, [(i, i + 1) for i in range(9)], list(range(1, 11)), [1] * 10)
    antichain = from_covers(8, [], list(range(1, 9)), [1] * 8)
    for p in cross_check_posets + shapes + [chain, antichain]:
        engine = ChainEngine(p)
        # every ideal is a successor block of the empty ideal
        for ideal in [0] + _successors_by_pairs(p, 0):
            expected = _successors_by_pairs(p, ideal)
            blocks = [block for block, _ in engine.weighted_successors(ideal)]
            assert blocks == expected, (p.to_json_dict(), ideal)


def _weight(p, block):
    return sum(p.d[x] for x in mask_elements(block))


def test_weighted_successors_carry_each_block_weight(cross_check_posets):
    assert any(max(p.d) > 1 for p in cross_check_posets)
    for p in cross_check_posets:
        engine = ChainEngine(p)
        for ideal in [0] + _successors_by_pairs(p, 0):
            expected = [(block, _weight(p, block)) for block in _successors_by_pairs(p, ideal)]
            assert engine.weighted_successors(ideal) == expected, (p.to_json_dict(), ideal)


def _forward_fold(p, block_value, step, calls):
    """The fold pushed forward in increasing weight, with each ideal's blocks
    listed by the definition, prefixes kept as tuples and every step call
    recorded: the map at the full ideal and the states pushed below it."""
    total, values, pushed = sum(p.d), {}, set()
    layers = {0: {0: {0: {(): 1}}}}  # weight -> ideal -> carry -> {prefix: coeff}
    while layers and min(layers) < total:
        weight = min(layers)
        for ideal, states in layers.pop(weight).items():
            pushed.update((ideal, s) for s in states)
            for block in _successors_by_pairs(p, ideal):
                w = _weight(p, block)
                for s, prefixes in states.items():
                    if values.get(block) == 0:
                        break  # a block known to be 0 is skipped by the remaining states
                    calls.append((s, w, total - weight - w))
                    moves = step(s, w, total - weight - w)
                    if moves and block not in values:
                        values[block] = block_value(block)
                    for carry, factor, head in moves if values.get(block) else ():
                        part = (head,) if head else ()
                        out = layers.setdefault(weight + w, {}).setdefault(ideal | block, {})
                        out = out.setdefault(carry, {})
                        for prefix, coeff in prefixes.items():
                            term = values[block] * factor * coeff
                            out[prefix + part] = out.get(prefix + part, 0) + term
    return layers.get(total, {}).get((1 << p.n) - 1, {}).get(0, {}), pushed


def _open_run(s, w, rest):
    """A step that carries the open run's sum, so an ideal holds many states."""
    return ((0, 1, s + w), (s + w, 1, 0))


@pytest.mark.parametrize("step", [_one_part, _weakly_decreasing, _open_run])
def test_fold_lists_each_ideal_once(cross_check_posets, step):
    shapes = [shape_to_poset(SkewShape(lam)) for lam in partitions_of(6)]
    several = 0
    for p in cross_check_posets + shapes:
        engine = ChainEngine(p)
        listed, calls, expected_calls = [], [], []

        def spy(ideal, builder=engine.weighted_successors):
            listed.append(ideal)
            return builder(ideal)

        def recorded(s, w, rest):
            calls.append((s, w, rest))
            return step(s, w, rest)

        engine.weighted_successors = spy
        value = partial(_block_contribution, p)
        terms = engine.fold(value, recorded)
        expected, states = _forward_fold(p, value, step, expected_calls)
        assert terms == expected, p.to_json_dict()
        assert Counter(calls) == Counter(expected_calls), p.to_json_dict()
        # each ideal below the top is listed once, and the top never
        assert sorted(listed) == sorted({ideal for ideal, _ in states}), p.to_json_dict()
        several += len(states) > len(listed)
    assert several or step is _one_part


def test_a_bounded_fold_reads_every_ideal_of_its_weight(cross_check_posets):
    """The fold bounded by t yields, at each ideal of weight t, the fold of
    the ideal's own subposet; every ideal of weight t is reached."""
    shapes = [shape_to_poset(SkewShape(lam)) for lam in partitions_of(6)]
    for p in cross_check_posets + shapes:
        ideals = [0] + _successors_by_pairs(p, 0)
        for total in range(1, sum(p.d) + 1):
            engine = ChainEngine(p, total=total)
            for step in (_one_part, _weakly_decreasing):
                got = dict(engine.folds(lambda block: 1, step))
                expected = {}
                for ideal in ideals:
                    if ideal and _weight(p, ideal) == total:
                        sub = induced_subposet(p, mask_elements(ideal))
                        terms = ChainEngine(sub).fold(lambda block: 1, step)
                        if terms:
                            expected[ideal] = terms
                assert got == expected, (p.to_json_dict(), total)
            assert all(_weight(p, b) <= total for b, _ in engine.weighted_successors(0))
            rule = {
                ideal: terms_at_partitions(mn_expansion(induced_subposet(p, mask_elements(ideal))))
                for ideal in ideals
                if ideal and _weight(p, ideal) == total
            }
            got = {ideal: expr.terms for ideal, expr in mn_partition_expansions(p, total).items()}
            assert set(got) <= set(rule), (p.to_json_dict(), total)
            assert {ideal: rule[ideal] for ideal in got} == got, (p.to_json_dict(), total)
            assert all(rule[ideal] == {} for ideal in set(rule) - set(got))


def test_a_bounded_engine_guards_its_largest_ideal():
    """The guard reads the largest ideal a walk can reach: min(n, total)."""
    chain = from_covers(12, [(i, i + 1) for i in range(11)], list(range(1, 13)), [1] * 12)
    assert ChainEngine(chain, total=10).total == 10
    with pytest.raises(PosetTooLarge):
        ChainEngine(chain, total=11)
    with pytest.raises(PosetTooLarge):
        ChainEngine(chain, max_n=9, total=10)
    heavy = from_covers(3, [], [1, 2, 3], [9, 9, 9])
    assert ChainEngine(heavy, max_n=3).total == 27


def _dual(p):
    """Every relation reversed and every label omega replaced by n + 1 - omega."""
    return LabeledPoset(p.n, {(b, a) for a, b in p.less}, [p.n + 1 - w for w in p.omega], p.d)


def test_the_dual_poset_reverses_every_composition(cross_check_posets):
    """A partition surjection f of p read as l + 1 - f is one of the dual,
    so the dual's M expansion is p's with each composition reversed; both
    the fused rule and the oracle must show it."""
    randoms = [budgeted_random_poset(8, 12, seed) for seed in range(100, 130)]
    asymmetric = 0
    for p in cross_check_posets + randoms:
        for expand in (mn_monomial_expansion, monomial_expansion):
            terms, dual = expand(p).terms, expand(_dual(p)).terms
            assert dual == {alpha[::-1]: c for alpha, c in terms.items()}, p.to_json_dict()
            asymmetric += dual != terms
    assert asymmetric  # so a check that drops the reversal fails


def test_prepended_keys_decode_to_their_compositions():
    """A suffix key puts the part h in front of the key T as T << h | 1 << (h - 1),
    with 0 for the empty suffix; decoding gives back the composition."""
    for n in range(9):
        for alpha in compositions_of(n):
            key = 0
            for h in reversed(alpha):
                key = key << h | 1 << (h - 1)
            assert key.bit_length() == n and _composition(key) == alpha, alpha


def test_fold_output_wraps_as_the_checked_constructor(cross_check_posets):
    """Fold output wrapped without the key check has the terms the checked
    constructor builds: zeros dropped, every coefficient a Fraction."""
    shapes = [shape_to_poset(SkewShape(lam)) for n in range(1, 8) for lam in partitions_of(n)]
    zeros = 0
    for p in cross_check_posets + shapes:
        engine = ChainEngine(p)
        value = partial(_block_contribution, p)
        denominator = math.factorial(sum(p.d))
        for raw in (engine.fold(value), engine.fold(value, _weakly_decreasing)):
            zeros += 0 in raw.values()
            for basis in ("M", "PsiHat"):
                wrapped = QsymExpr._from_fold(basis, raw).terms
                assert wrapped == QsymExpr(basis, raw).terms, p.to_json_dict()
                scaled = {alpha: Fraction(c, denominator) for alpha, c in raw.items()}
                divided = QsymExpr._from_fold(basis, raw, denominator).terms
                assert divided == QsymExpr(basis, scaled).terms, p.to_json_dict()
                for terms in (wrapped, divided):
                    assert all(type(c) is Fraction and c for c in terms.values())
    assert zeros

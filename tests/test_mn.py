import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from qmn.cli import main

from qmn.compositions import partitions_of
from qmn.mn import (
    TAG_MINUS,
    TAG_PLUS,
    TAG_STAR,
    _block_contribution,
    _tag_masks,
    block_strip_data,
    is_generalized_border_strip,
    is_gbs_via_hasse,
    mn_expansion,
    mn_monomial_expansion,
    mn_partition_expansions,
    natural_mn_expansion,
    rooted_surjections,
    strip_data,
)
from qmn.posets import (
    LabeledPoset,
    from_covers,
    is_naturally_labeled,
    natural_relabeling,
    random_poset,
)
from qmn.qsym import QsymExpr, equals, psi_to_monomial
from qmn.schur import SkewShape, shape_to_poset
from qmn.surjections import ChainEngine, mask_elements, monomial_expansion
from tests.conftest import DATA, budgeted_random_poset, terms_at_partitions
from tests.reference import induced_subposet


def test_weighted_strip_tags_and_sign(weighted_strip):
    sd = strip_data(weighted_strip)
    assert sd.is_gbs and sd.is_rooted
    assert sd.tags == (TAG_MINUS, TAG_MINUS, TAG_STAR, TAG_PLUS, TAG_PLUS, TAG_PLUS)
    assert weighted_strip.omega[sd.root] == 1
    assert sd.sign == 1


def test_weak_then_strict_chain_is_not_a_strip():
    p = from_covers(3, [(0, 1), (1, 2)], [1, 3, 2], [1, 1, 1])
    sd = strip_data(p)
    assert not sd.is_gbs and not sd.is_rooted
    assert not is_generalized_border_strip(p)
    assert not is_gbs_via_hasse(p)


def test_strict_then_weak_chain_is_a_rooted_strip():
    p = from_covers(3, [(0, 1), (1, 2)], [3, 1, 2], [1, 1, 1])
    sd = strip_data(p)
    assert sd.tags == (TAG_MINUS, TAG_STAR, TAG_PLUS)
    assert sd.sign == -1 and sd.root == 1


def test_antichain_has_many_stars():
    p = from_covers(2, [], [1, 2], [1, 1])
    sd = strip_data(p)
    assert sd.is_gbs and not sd.is_rooted
    assert sd.tags == (TAG_STAR, TAG_STAR)


def test_non_strip_poset(non_strip_poset):
    assert not is_generalized_border_strip(non_strip_poset)
    assert not is_gbs_via_hasse(non_strip_poset)


def test_gbs_criteria_agree_on_random_posets():
    hits = 0
    for seed in range(300):
        p = budgeted_random_poset(6, 9, seed)
        a = is_generalized_border_strip(p)
        assert a == is_gbs_via_hasse(p)
        hits += a
    assert 0 < hits < 300


def test_singleton():
    p = from_covers(1, [], [1], [4])
    assert mn_expansion(p) == QsymExpr("PsiHat", {(4,): 4})


def test_cancellation_example(cancellation_poset):
    expansion = mn_expansion(cancellation_poset)
    assert expansion.coefficient((2, 2)) == 0
    pairs = [
        (f, data)
        for f, data in rooted_surjections(cancellation_poset)
        if f.wtd == (2, 2)
    ]
    assert len(pairs) == 2
    signs = sorted(
        data[0].sign * data[1].sign for _, data in pairs
    )
    assert signs == [-1, 1]


def _weighted_nine(seed) -> LabeledPoset:
    """A random 9-element poset of density 1/2 with weights 1..3."""
    rng = random.Random(seed)
    p = random_poset(9, Fraction(1, 2), seed=seed)
    return LabeledPoset(p.n, p.less, p.omega, tuple(rng.randint(1, 3) for _ in range(9)))


def test_expansion_matches_monomial_oracle(cross_check_posets):
    """The rule converted term by term, the rule converted inside the fold,
    and the oracle all agree."""
    for p in cross_check_posets + [_weighted_nine(seed) for seed in (0, 1, 4, 5)]:
        fused = mn_monomial_expansion(p)
        assert fused.basis == "M"
        assert fused == psi_to_monomial(mn_expansion(p)) == monomial_expansion(p), p.to_json_dict()


def test_the_fused_rule_keeps_no_table_of_factorials():
    """One element of weight 10000 expands as M_(10000) with coefficient 1;
    a list of every factorial up to the weight would take tens of MiB."""
    heavy = from_covers(1, [], [1], [10000])
    tracemalloc.start()
    try:
        expansion = mn_monomial_expansion(heavy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert expansion == QsymExpr("M", {(10000,): 1})
    assert peak < 2**20, peak


def test_rooted_surjection_data_is_consistent(cancellation_poset):
    for f, data in rooted_surjections(cancellation_poset):
        assert len(data) == f.ell
        for sd in data:
            assert sd.is_rooted and sd.root is not None
            assert sd.sign == (-1) ** sd.tags.count(TAG_MINUS)


def test_natural_specialization():
    for seed in range(60):
        p = natural_relabeling(budgeted_random_poset(6, 8, seed))
        expansion = natural_mn_expansion(p)
        assert expansion == mn_expansion(p)
        for coeff in expansion.terms.values():
            assert coeff == int(coeff) and coeff > 0


def test_natural_expansion_rejects_other_labelings(weighted_strip):
    with pytest.raises(ValueError):
        natural_mn_expansion(weighted_strip)


def test_expansion_equals_oracle_as_functions(weighted_strip):
    assert equals(mn_expansion(weighted_strip), monomial_expansion(weighted_strip))


def test_rule_fold_matches_rooted_surjections(cross_check_posets):
    for p in cross_check_posets:
        explicit = Counter()
        for f, data in rooted_surjections(p):
            explicit[f.wtd] += math.prod(
                sd.sign * p.d[block[sd.root]] for block, sd in zip(f.blocks, data)
            )
        assert mn_expansion(p) == QsymExpr("PsiHat", explicit), p.to_json_dict()


def test_partition_expansion_is_the_rule_at_partitions(cross_check_posets):
    """Folding only chains of weakly decreasing block weights gives exactly
    the terms of the full rule whose composition is a partition."""
    shapes = [shape_to_poset(SkewShape(lam)) for n in range(1, 9) for lam in partitions_of(n)]
    randoms = [
        random_poset(seed % 8 + 1, density, seed=seed)
        for density in (Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
        for seed in range(12)
    ]
    for p in shapes + cross_check_posets + randoms:
        expansions = mn_partition_expansions(p, sum(p.d))
        assert set(expansions) <= {(1 << p.n) - 1}, p.to_json_dict()
        got = {ideal: expr.terms for ideal, expr in expansions.items()}
        assert got.get((1 << p.n) - 1, {}) == terms_at_partitions(mn_expansion(p)), p.to_json_dict()


def test_fold_values_only_the_blocks_a_step_admits():
    """A step that refuses every block of weight above 1 leaves every larger
    block unvalued, and still counts the chains of singletons."""
    for density, n in ((Fraction(0), 6), (Fraction(1, 5), 7)):
        p = random_poset(n, density, seed=3)
        p = LabeledPoset(n, p.less, p.omega, (1,) * n)
        valued = []

        def value(block):
            valued.append(block)
            return 1

        def singletons_only(s, w, rest):
            return ((0, 1, w),) if w == 1 else ()

        terms = ChainEngine(p).fold(value, singletons_only)
        assert valued and all(block.bit_count() == 1 for block in valued)
        assert terms == {(1,) * p.n: ChainEngine(p).fold(lambda block: 1)[(1,) * p.n]}


def test_block_tagger_matches_induced_subposet(cross_check_posets):
    for p in cross_check_posets:
        blocks = {block for chain in ChainEngine(p).chains() for block in chain}
        via_mask = {m: block_strip_data(p, m) for m in blocks}
        via_subposet = {m: strip_data(induced_subposet(p, mask_elements(m))) for m in blocks}
        assert via_mask == via_subposet, p.to_json_dict()


def _tag_masks_by_pairs(p, mask):
    """(minus, plus) of the block on `mask`, read pair by pair: for each a
    covered by b inside the block, a is in minus when omega(a) > omega(b),
    else b is in plus."""
    inside = mask_elements(mask)
    minus = plus = 0
    for a in inside:
        for b in inside:
            covered = (a, b) in p.less and not any(
                (a, c) in p.less and (c, b) in p.less for c in inside
            )
            if covered and p.omega[a] > p.omega[b]:
                minus |= 1 << a
            elif covered:
                plus |= 1 << b
    return minus, plus


def test_tag_masks_and_block_values_match_the_definitions(cross_check_posets):
    shapes = [shape_to_poset(SkewShape(lam)) for n in range(1, 8) for lam in partitions_of(n)]
    rooted = unrooted = 0
    for p in cross_check_posets + shapes:
        blocks = {block for chain in ChainEngine(p).chains() for block in chain}
        for m in sorted(blocks):
            assert _tag_masks(p, m) == _tag_masks_by_pairs(p, m), (p.to_json_dict(), m)
            sd = block_strip_data(p, m)
            expected = sd.sign * p.d[mask_elements(m)[sd.root]] if sd.is_rooted else 0
            assert _block_contribution(p, m) == expected, (p.to_json_dict(), m)
            rooted += sd.is_rooted
            unrooted += not sd.is_rooted
    assert rooted and unrooted


def _is_convex(p, mask):
    """No c outside the mask lies between two elements a < c < b of it."""
    return not any(
        p.below[c] & mask and any(p.below[b] >> c & 1 for b in mask_elements(mask))
        for c in range(p.n)
        if not mask >> c & 1
    )


def _tag_masks_by_lower_covers(p, mask):
    """(minus, plus) of the block on `mask`, from the covers of the subposet
    on the mask itself, as `LabeledPoset.lower_covers` gives them."""
    minus = plus = 0
    for b, lower in p.lower_covers(mask):
        minus |= lower & p.strict_below[b]
        if lower & ~p.strict_below[b]:
            plus |= 1 << b
    return minus, plus


def test_chain_blocks_are_convex_and_tagged_from_the_cover_masks(cross_check_posets):
    """Every block of a chain of ideals is convex, so its Hasse edges are the
    poset's edges inside it, and the cover-mask tagger reads the same tags
    as one that derives the block's own covers."""
    assert not _is_convex(from_covers(3, [(0, 1), (1, 2)], [1, 2, 3], [1] * 3), 0b101)
    for p in cross_check_posets:
        blocks = {block for chain in ChainEngine(p).chains() for block in chain}
        for m in sorted(blocks | {(1 << p.n) - 1}):
            assert _is_convex(p, m), (p.to_json_dict(), m)
            assert _tag_masks(p, m) == _tag_masks_by_lower_covers(p, m), (p.to_json_dict(), m)


@pytest.mark.parametrize("name", ["weighted_strip.json", "cancellation.json"])
@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_expand_in_m_basis_prints_the_oracle(capsys, name, as_json):
    path = str(DATA / name)
    assert main(["expand", "--poset", path, "--basis", "M", *as_json]) == 0
    via_rule = capsys.readouterr().out
    assert main(["oracle", "--poset", path, *as_json]) == 0
    assert via_rule == capsys.readouterr().out
    if as_json:
        assert json.loads(via_rule)["basis"] == "M"


def _renumbered(p, perm) -> LabeledPoset:
    """p with vertex x renamed perm[x]; labels and weights move with their vertices."""
    omega, d = [0] * p.n, [0] * p.n
    for x, y in enumerate(perm):
        omega[y], d[y] = p.omega[x], p.d[x]
    less = frozenset((perm[a], perm[b]) for a, b in p.less)
    return LabeledPoset(p.n, less, tuple(omega), tuple(d))


EXPANSIONS = (mn_expansion, mn_monomial_expansion, monomial_expansion)


def test_renumbering_the_vertices_leaves_every_expansion_unchanged(cross_check_posets):
    rng = random.Random(2026)
    for p in cross_check_posets:
        perm = list(range(p.n))
        rng.shuffle(perm)
        if perm == sorted(perm):
            perm.reverse()  # a shuffle that moved nothing would test nothing
        renumbered = _renumbered(p, perm)
        for expand in EXPANSIONS:
            assert expand(renumbered) == expand(p), (expand.__name__, perm, p.to_json_dict())


def test_every_composition_sums_to_the_total_weight(cross_check_posets):
    for p in cross_check_posets:
        for expand in EXPANSIONS:
            terms = expand(p).terms
            assert terms and all(sum(alpha) == sum(p.d) for alpha in terms), p.to_json_dict()


def _largest_first_labeling(p) -> tuple:
    """The natural labeling read off the linear extension that takes the
    largest available element first (topological_order takes the smallest)."""
    done, omega = 0, [0] * p.n
    for rank in range(1, p.n + 1):
        x = max(x for x in range(p.n) if not done >> x & 1 and not p.below[x] & ~done)
        done |= 1 << x
        omega[x] = rank
    return tuple(omega)


def test_a_second_natural_labeling_leaves_the_expansions_unchanged(cross_check_posets):
    changed = 0
    for p in cross_check_posets:
        natural = natural_relabeling(p)
        other = LabeledPoset(p.n, p.less, _largest_first_labeling(p), p.d)
        assert is_naturally_labeled(other)
        changed += other.omega != natural.omega
        for expand in (natural_mn_expansion, monomial_expansion):
            assert expand(other) == expand(natural), (expand.__name__, p.to_json_dict())
    assert changed > len(cross_check_posets) // 2

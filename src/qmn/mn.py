"""Generalized border strips, tagging, and the weighted power sum expansion.

A labeled poset is a generalized border strip when no chain a < b < c has
omega(a) < omega(b) > omega(c).  On such a poset every element gets a tag:
-1 if it is the bottom of a strict Hasse edge, +1 if it is the top of a
natural Hasse edge, and a star otherwise.  A strip with a unique starred
element is rooted; its sign is (-1)^(number of -1 tags).

The main expansion sums, over surjections whose preimage blocks are all
rooted, the product of block signs times root weights, indexed by the
weighted level composition.  It runs on `ChainEngine.fold`, the single
traversal of the ideal lattice, with the block value sign * d(root); the
oracle in `surjections` runs on the same fold with another block value.
`mn_monomial_expansion` gives the rule in the monomial basis from the same
fold, carrying the sum of the open run of parts, so no PsiHat term is
ever converted on its own.  `mn_partition_expansions` keeps only the terms
indexed by partitions, which is all a character value reads: its fold
carries the previous block's weight and walks only the chains whose block
weights weakly decrease, so a heavier block is refused before it is tagged.
It runs up to a weight bound and reads these terms for every order ideal
of that weight at once; bounded by the weight of the poset, it reads the
whole poset.
`_tag_masks` is the single tagger: it gives the masks of the -1 and +1
elements of the block of a poset on an element mask, and every strip
query goes through it.  Every mask it tags is convex, a block of a chain
of order ideals or the whole poset, so the block's Hasse edges are the
poset's own edges inside it: it reads them from the strict and natural
lower covers of each element, `LabeledPoset.cover_masks`, derived once
per poset.  The rule's block value reads sign and root straight off the
two masks; `block_strip_data` builds the full `StripData` from them.  Both
call a block rooted when exactly one of its elements is in neither mask.
Each expansion passes its `max_n` to `ChainEngine`, which checks the
size guard when it is built, and wraps the fold's output with
`QsymExpr._from_fold`.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb, factorial, perm

from .posets import LabeledPoset, _bits, is_naturally_labeled
from .qsym import QsymExpr
from .surjections import ChainEngine, _surjection_from_chain

TAG_MINUS = -1
TAG_PLUS = 1
TAG_STAR = 0


StripData = namedtuple(
    "StripData", "is_gbs tags is_rooted sign root", defaults=(None, False, None, None)
)
StripData.__doc__ = "Tagging, rootedness, sign and root of a generalized border strip."


def is_generalized_border_strip(p: LabeledPoset) -> bool:
    """Chain criterion: no a < b < c with omega(a) < omega(b) > omega(c)."""
    for a, b in p.less:
        if p.omega[a] < p.omega[b]:
            for c in range(p.n):
                if (b, c) in p.less and p.omega[b] > p.omega[c]:
                    return False
    return True


def is_gbs_via_hasse(p: LabeledPoset) -> bool:
    """Hasse criterion: no element is both top of a natural edge and
    bottom of a strict edge."""
    return strip_data(p).is_gbs


def _tag_masks(p: LabeledPoset, mask):
    """The masks (minus, plus) of the block of p on the elements of `mask`.

    `mask` must be convex: a block of a chain of order ideals, which is the
    difference of two ideals, or the whole poset.  For each Hasse edge a
    covered by b inside the block, a is tagged -1 when the edge is strict,
    and b is tagged +1 when it is natural.  In a convex block every element
    between a and b lies in the block, so the block's Hasse edges are the
    poset's edges with both ends in it: per element b, its strict and
    natural lower covers are its masks in `LabeledPoset.cover_masks`
    restricted to the block.
    """
    strict, natural = p.cover_masks
    minus = plus = 0
    for b in _bits(mask):
        minus |= strict[b]
        if natural[b] & mask:
            plus |= 1 << b
    return minus & mask, plus


def block_strip_data(p: LabeledPoset, mask) -> StripData:
    """Strip data of the sub-poset that p induces on the elements of `mask`.

    `mask` must be convex, as for `_tag_masks`: a block of a chain of order
    ideals, or the whole poset.  Equals
    strip_data(induced_subposet(p, mask_elements(mask))): the tags and the
    root index the block's elements in sorted order.  Hasse edges are those
    of the block, classified by the ambient labels, since only their
    relative order matters.
    """
    minus, plus = _tag_masks(p, mask)
    if minus & plus:
        return StripData(is_gbs=False)
    tags = tuple(
        TAG_MINUS if minus >> x & 1 else TAG_PLUS if plus >> x & 1 else TAG_STAR
        for x in _bits(mask)
    )
    star = mask & ~(minus | plus)
    if star.bit_count() != 1:
        return StripData(True, tags)
    root = (mask & (star - 1)).bit_count()  # the elements of the block below the star
    return StripData(True, tags, True, (-1) ** minus.bit_count(), root)


def strip_data(p: LabeledPoset) -> StripData:
    """Full tagging of p when it is a generalized border strip."""
    return block_strip_data(p, (1 << p.n) - 1)


def _block_contribution(p: LabeledPoset, block_mask):
    """sign * d(root) of an induced block, or 0 if the block is not rooted:
    the block is a strip when no element is tagged both -1 and +1, and
    rooted when exactly one element, the root, is tagged neither."""
    minus, plus = _tag_masks(p, block_mask)
    star = block_mask & ~(minus | plus)
    if minus & plus or star.bit_count() != 1:
        return 0
    return (-1) ** minus.bit_count() * p.d[star.bit_length() - 1]


def mn_expansion(p: LabeledPoset, max_n=None) -> QsymExpr:
    """Weighted power sum expansion via rooted order-preserving surjections.

    For each surjection whose blocks are all rooted border strips, the
    product of block signs times root weights lands on PsiHat indexed by
    the weighted level composition.
    """
    engine = ChainEngine(p, max_n)
    return QsymExpr._from_fold("PsiHat", engine.fold(lambda block: _block_contribution(p, block)))


def _weakly_decreasing(s, w, rest):
    """Fold step admitting a block only if its weight w is at most the
    previous block's weight s (0 before the first block and after the last)."""
    if s and w > s:
        return ()
    return ((w if rest else 0, 1, w),)


def mn_partition_expansions(p: LabeledPoset, total, max_n=None):
    """The map from each order ideal I of p of weight `total` that some chain
    reaches to the terms of mn_expansion of the subposet of p on I whose
    composition is a partition.

    The fold's coefficient of alpha sums over the chains whose block
    weights spell alpha, so folding only the chains whose weights weakly
    decrease drops exactly the compositions that are not partitions.  The
    part of a chain that ends at I is a chain of I's own subposet, and its
    blocks are convex in I as in p, so `_tag_masks` gives them the same tags
    in both.  So one fold bounded by `total` reads every such I.
    """
    engine = ChainEngine(p, max_n, total)
    folds = engine.folds(lambda block: _block_contribution(p, block), _weakly_decreasing)
    return {ideal: QsymExpr._from_fold("PsiHat", terms) for ideal, terms in folds}


def mn_monomial_expansion(p: LabeledPoset, max_n=None) -> QsymExpr:
    """psi_to_monomial(mn_expansion(p)), converted inside the fold.

    PsiHat_alpha is the sum over cuts of alpha into runs of M_beta / pi,
    with beta the run sums and pi the product of the running sums inside
    each run.  So the fold carries the open run's sum s: a block of weight
    w divides by t = s + w and either closes the run as the part t or
    keeps it open.  Scaled by (s + rest)! / s!, with rest the weight not
    yet placed, every step is an integer: closing multiplies by
    C(t + rest, t) * (t-1)! / s!, keeping open by (t-1)! / s!, which is
    perm(t - 1, w - 1).  The sum is divided by (sum of d)! once, at the end,
    so no table of factorials is kept.
    """
    engine = ChainEngine(p, max_n)

    def run_step(s, w, rest):
        t = s + w
        keep = perm(t - 1, w - 1)
        return ((0, keep * comb(t + rest, t), t), (t, keep, 0))

    terms = engine.fold(lambda block: _block_contribution(p, block), run_step)
    return QsymExpr._from_fold("M", terms, factorial(sum(p.d)))


def natural_mn_expansion(p: LabeledPoset, max_n=None) -> QsymExpr:
    """Independent expansion for naturally labeled posets.

    Uses pointed surjections (every block has a unique minimum) with
    coefficient the product of minimum weights; no signs appear.
    """
    if not is_naturally_labeled(p):
        raise ValueError("poset is not naturally labeled")
    engine = ChainEngine(p, max_n)

    def minimum_weight(block):
        """d(min) if the block has a unique minimum, else 0."""
        minima = [x for x in _bits(block) if p.below[x] & block == 0]
        return p.d[minima[0]] if len(minima) == 1 else 0

    return QsymExpr._from_fold("PsiHat", engine.fold(minimum_weight))


def rooted_surjections(p: LabeledPoset, max_n=None):
    """All surjections whose blocks are rooted strips, with per-block data.

    Returns a list of (OrderSurjection, tuple of StripData) over all
    numbers of levels.  Roots in each StripData are indices into the
    induced sub-poset, whose elements are the sorted block elements.
    """
    out = []
    for chain in ChainEngine(p, max_n).chains():
        data = tuple(block_strip_data(p, block) for block in chain)
        if all(sd.is_rooted for sd in data):
            out.append((_surjection_from_chain(p, chain), data))
    out.sort(key=lambda pair: (pair[0].ell, pair[0].levels))
    return out

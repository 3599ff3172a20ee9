"""Order-preserving surjections P -> [ell] and the brute-force expansion.

Two families are distinguished: plain order-preserving surjections (weak
order only, strict edges impose nothing) and partition surjections, which
additionally satisfy f(a) < f(b) across every strict relation.  The
latter read off the monomial coefficients of the generating function.

Internally a surjection is a chain of order ideals: the union of the
first k preimage blocks is always an order ideal.  `ChainEngine.folds` is
the single traversal of the ideal lattice behind every expansion: the
oracle here, and the power sum rules in `mn`, which differ only in the
value they give each block.  Every walk takes one path: a step lists
each block's moves, and the plain step adds the block's weight as one
part.  Other steps carry a small value per ideal along the chain; `mn`
uses one to write the rule in the monomial basis while it walks.  A
move's head is a part size, 0 for no part.  The traversal pushes forward
from the empty ideal, taking the ideals in increasing weight and freeing
each weight layer once it is pushed.  Inside it a prefix composition is
the integer whose bits are its partial sums less one, so a part that
closes at weight top just sets bit top - 1; the keys are decoded once,
when a map is yielded, and the expansions wrap it with
`QsymExpr._from_fold`, which checks no key.  The traversal takes a weight
bound, the weight of P by default: it then yields the map at every
ideal of that weight, and `ChainEngine.fold` reads the full ideal.
Since the part of a chain that ends at an ideal I is a chain of I's own
subposet, one bounded pass reads the expansions of every ideal of a
weight; the character table in `schur` reads every partition of n from
one shape this way.
`ChainEngine.chains` lists the chains one by one for the explicit
enumerators, which tests compare the fold against.  Bitmasks
over elements keep this fast; the blocks above an ideal are built along
one linear extension, each with its weight, in time proportional to n
times their number, and the traversal builds them once per ideal.
Every walk starts by building a `ChainEngine`, the one place that checks
the size guard for it, against the largest ideal the walk can reach.
`OrderSurjection` is a plain named tuple, built only from a chain of the
walk; the poset it reads was validated by its constructor
`posets.LabeledPoset`.
"""

from __future__ import annotations

from collections import namedtuple

from .posets import (  # DEFAULT_MAX_N and PosetTooLarge are re-exported
    DEFAULT_MAX_N,
    LabeledPoset,
    PosetTooLarge,
    check_size_guard,
    mask_elements,
    topological_order,
)
from .qsym import QsymExpr


OrderSurjection = namedtuple("OrderSurjection", "levels ell blocks wt wtd")
OrderSurjection.__doc__ = """A level assignment P -> {1..ell} with derived block data:
wt counts elements per level, wtd totals the element weights per level."""


def _surjection_from_chain(p: LabeledPoset, chain) -> OrderSurjection:
    blocks = tuple(mask_elements(block) for block in chain)
    levels = [0] * p.n
    for lvl, block in enumerate(blocks, start=1):
        for x in block:
            levels[x] = lvl
    wt = tuple(len(b) for b in blocks)
    wtd = tuple(sum(p.d[x] for x in b) for b in blocks)
    return OrderSurjection(tuple(levels), len(blocks), blocks, wt, wtd)


def _one_part(s, w, rest):
    """The plain fold step: a block adds its weight w as one part."""
    return ((0, 1, w),)


class ChainEngine:
    """The lattice of order ideals of one poset, up to a weight bound.

    A surjection is a chain of ideals, so every expansion is a sum over
    chains of a product of block values; `folds` computes it per ideal.
    The engine walks the ideals of weight at most `total`, which defaults
    to the weight of the whole poset.  `weighted_successors` lists the
    blocks above an ideal with their weights along one linear extension,
    in time proportional to n times their number; every walk reads that
    list.  Building an engine checks the size guard `max_n` against the
    largest ideal its walk can reach, of at most min(n, total) elements,
    so every walk refuses an oversized poset first.
    """

    def __init__(self, p: LabeledPoset, max_n=None, total=None):
        self.total = sum(p.d) if total is None else total
        check_size_guard(min(p.n, self.total), max_n)
        self.p = p
        self.full = (1 << p.n) - 1
        self._order = topological_order(p)

    def weighted_successors(self, ideal):
        """The pairs (B, wtd(B)) for the nonempty blocks B with ideal | B again
        an ideal and wtd(ideal | B) at most `total`, sorted by B.  Along a
        linear extension, x joins each block b so far when all below x is in
        ideal | b and the weight stays in bounds, and adds d[x] to its weight."""
        below, d = self.p.below, self.p.d
        room = self.total - sum(d[x] for x in self._order if ideal >> x & 1)
        out = [(0, 0)]
        for x in self._order:
            if not ideal >> x & 1:
                bit, dx = 1 << x, d[x]
                out += [
                    (b | bit, w + dx)
                    for b, w in out
                    if w + dx <= room and not below[x] & ~(ideal | b)
                ]
        out.sort()
        return out[1:]

    def chains(self):
        """Yield all chains of blocks partitioning P (as mask tuples)."""

        def walk(ideal, blocks):
            if ideal == self.full:
                yield blocks
            for block, _ in self.weighted_successors(ideal):
                yield from walk(ideal | block, blocks + (block,))

        yield from walk(0, ())

    def folds(self, block_value, step=_one_part):
        """Yield (I, map) for every ideal I of weight `total` that a chain
        reaches: the sum over the chains from the empty ideal to I of the
        product of their block values, as a map from composition to
        coefficient.

        The walk runs over states (ideal I, carried value s), from (0, 0) to
        (I, 0) with I of weight `total`; a state (I, s) with s != 0 there
        ends no chain.  A block B of weight w = wtd(B) above I reaches the
        weight top = wtd(I) + w and leaves rest = total - top, and
        `step(s, w, rest)` lists its moves as triples (s', factor, head): a
        move goes to the state (I | B, s'), multiplies by value(B) * factor
        and closes a part at top, or no part when head is 0 (a nonzero head
        is the size of that part).  The default step `_one_part` keeps s at 0
        and lets every block close the part wtd(B).  A step that lists no
        moves refuses the block.

        The walk is a forward push.  The states are grouped by the weight of
        their ideal and taken in increasing weight; each state's map of
        prefix compositions is pushed along every admitted move, and a
        weight layer is freed once it has been pushed.  Each ideal's blocks
        and their weights are listed once, by `weighted_successors`, which
        builds no block heavier than total - wtd(I), and shared by every
        state on it.  A block is valued once per mask, the first time one of
        its moves is admitted, so a block every step refuses is never valued;
        once a block's value is known to be 0, the remaining states skip it.

        Inside the walk a prefix is the integer whose bits are its partial
        sums less one, so closing a part at top is `key | 1 << (top - 1)`,
        and no tuple is built or hashed.  The keys are decoded once, when a
        map is yielded.
        """
        total, values = self.total, {}
        layers = {0: {0: {0: {0: 1}}}}  # weight -> ideal -> carry -> {prefix key: coeff}
        while layers:
            weight = min(layers)
            if weight == total:
                break
            for ideal, states in layers.pop(weight).items():
                for block, w in self.weighted_successors(ideal):
                    value = values.get(block)
                    if value == 0:
                        continue
                    top = weight + w
                    rest, bit = total - top, 1 << (top - 1)
                    target = None
                    for s, prefixes in states.items():
                        moves = step(s, w, rest)
                        if not moves:
                            continue
                        if value is None:
                            value = values[block] = block_value(block)
                            if value == 0:
                                break
                        if target is None:
                            target = layers.setdefault(top, {}).setdefault(ideal | block, {})
                        for carry, factor, head in moves:
                            scale, closed = value * factor, bit if head else 0
                            out = target.setdefault(carry, {})
                            for key, coeff in prefixes.items():
                                key |= closed
                                out[key] = out.get(key, 0) + scale * coeff
        for ideal, states in layers.get(total, {}).items():
            if 0 in states:
                yield ideal, {_composition(key): coeff for key, coeff in states[0].items()}

    def fold(self, block_value, step=_one_part):
        """Sum over all chains of the product of their block values.

        Returns a map from composition to coefficient: the map `folds` yields
        at the full ideal, so `total` must be the weight of P.  With the
        default step every block adds the part wtd(B), so the map takes each
        weighted level composition to its sum of products (Stanley, EC1 3.4
        and 4.7).
        """
        return dict(self.folds(block_value, step)).get(self.full, {})


def _composition(key):
    """The composition whose partial sums less one are the bits of key."""
    parts, done = [], 0
    while key:
        low = key & -key
        total = low.bit_length()
        parts.append(total - done)
        done = total
        key ^= low
    return tuple(parts)


def enumerate_order_surjections(p: LabeledPoset, ell, max_n=None):
    """All surjective maps P -> [ell] that weakly respect <_P.

    Strict edges impose no strict inequality here; deterministic order.
    """
    engine = ChainEngine(p, max_n)
    if not 1 <= ell <= p.n:
        raise ValueError(f"ell must be in 1..{p.n}")
    out = [
        _surjection_from_chain(p, chain)
        for chain in engine.chains()
        if len(chain) == ell
    ]
    out.sort(key=lambda f: f.levels)
    return out


def enumerate_partition_surjections(p: LabeledPoset, ell, max_n=None):
    """The order surjections with f(a) < f(b) across every strict relation."""
    return [
        f
        for f in enumerate_order_surjections(p, ell, max_n)
        if all(f.levels[a] < f.levels[b] for a, b in p.strict_pairs)
    ]


def monomial_expansion(p: LabeledPoset, max_n=None) -> QsymExpr:
    """Brute-force monomial expansion of the weighted generating function.

    The coefficient of M_beta counts partition surjections with weighted
    level composition beta; the result is homogeneous of degree sum(d).
    These are the chains whose blocks hold no strict pair, so the fold
    gives each block the value 1 if it holds none, else 0.
    """
    engine = ChainEngine(p, max_n)
    strict = [(1 << a) | (1 << b) for a, b in p.strict_pairs]

    def no_strict_pair(block):
        return 0 if any(block & pair == pair for pair in strict) else 1

    return QsymExpr._from_fold("M", engine.fold(no_strict_pair))

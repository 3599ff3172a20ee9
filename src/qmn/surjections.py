"""Order-preserving surjections P -> [ell] and the brute-force expansion.

Two families are distinguished: plain order-preserving surjections (weak
order only, strict edges impose nothing) and partition surjections, which
additionally satisfy f(a) < f(b) across every strict relation.  The
latter read off the monomial coefficients of the generating function.

Internally a surjection is a chain of order ideals: the union of the
first k preimage blocks is always an order ideal.  `ChainEngine.fold` is
the single traversal of the ideal lattice behind every expansion: the
oracle here, and the power sum rules in `mn`, which differ only in the
value they give each block.  Every walk takes one path: a step lists
each block's moves, and the plain step adds the block's weight as one
part.  Other steps carry a small value per ideal along the chain; `mn`
uses one to write the rule in the monomial basis while it walks.  A
move's head is a part size, 0 for no part.  Inside the fold a
composition is the integer whose bits are its partial sums less one, so
a part is put in front by a shift and an or; the keys are decoded once, when the
fold returns, and the expansions wrap that map with
`QsymExpr._from_fold`, which checks no key.
`ChainEngine.chains` lists the chains one by one for the explicit
enumerators, which tests compare the fold against.  Bitmasks
over elements keep this fast; the blocks above an ideal are built along
one linear extension, each with its weight, in time proportional to n
times their number, and `fold` builds them once per ideal.
Every walk starts by building a `ChainEngine`, the one place that checks
the size guard for it.  `OrderSurjection` is a plain named tuple, built
only from a chain of the walk; the poset it reads was validated by its
constructor `posets.LabeledPoset`.
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
    """The lattice of order ideals of one poset.

    A surjection is a chain of ideals, so every expansion is a sum over
    chains of a product of block values; `fold` computes it per ideal.
    The successors of an ideal and their weights are built along one
    linear extension, in time proportional to n times their number.
    Building an engine checks the size guard `max_n`, so every walk
    refuses an oversized poset first.
    """

    def __init__(self, p: LabeledPoset, max_n=None):
        check_size_guard(p.n, max_n)
        self.p = p
        self.full = (1 << p.n) - 1
        self._order = topological_order(p)

    def weighted_successors(self, ideal):
        """The pairs (B, wtd(B)) for the nonempty blocks B with ideal | B again
        an ideal, sorted by B.  Along a linear extension, x joins each block b
        so far when all below x is in ideal | b, and adds d[x] to its weight."""
        below, d = self.p.below, self.p.d
        out = [(0, 0)]
        for x in self._order:
            if not ideal >> x & 1:
                bit, dx = 1 << x, d[x]
                out += [(b | bit, w + dx) for b, w in out if not below[x] & ~(ideal | b)]
        out.sort()
        return out[1:]

    def successors(self, ideal):
        """The sorted nonempty blocks B with ideal | B again an ideal."""
        return [block for block, _ in self.weighted_successors(ideal)]

    def chains(self):
        """Yield all chains of blocks partitioning P (as mask tuples)."""

        def walk(ideal, blocks):
            if ideal == self.full:
                yield blocks
            for block in self.successors(ideal):
                yield from walk(ideal | block, blocks + (block,))

        yield from walk(0, ())

    def fold(self, block_value, step=_one_part):
        """Sum over all chains of the product of their block values.

        Returns a map from composition to coefficient.  The walk runs over
        states (ideal I, carried value s), from (0, 0) to (P, 0); a state
        (P, s) with s != 0 ends no chain.  A block B
        of weight w = wtd(B) leaves the weight `rest` of P outside I | B, and
        `step(s, w, rest)` lists its moves as triples (s', factor, head): a
        move goes to the state (I | B, s'), multiplies by value(B) * factor
        and puts the part head in front of the suffix, or no part when head
        is 0.  The map F(I, s) of suffix compositions is built once per state,
        F(I, s) = sum over B and moves of value(B) * factor * (head + F(I | B, s')),
        and F(0, 0) is the answer.  The default step `_one_part` keeps s at 0
        and lets every block add the part wtd(B), so F(0, 0) maps each
        weighted level composition to its sum of products (Stanley, EC1 3.4
        and 4.7).  A step that lists no moves refuses the block.  Each ideal's
        blocks and their weights are listed once per call, by
        `weighted_successors`, and shared by every state on that ideal.  A
        block is valued once per mask, the first time one of its moves is
        used, so a block every step refuses is never valued; blocks valued 0
        are pruned.  Both caches are freed when the call returns.

        Inside the walk a suffix is the integer whose bits are its partial
        sums less one, so putting the part h in front of the key T
        is `T << h | 1 << (h - 1)`, and no tuple is built or hashed.  The
        keys of F(0, 0) are decoded once, on return.
        """
        listed, values = {}, {}
        states = {(self.full, 0): {0: 1}}

        def build(ideal, s, rest):
            out = states.get((ideal, s))
            if out is not None:
                return out
            out = {}
            blocks = listed.get(ideal)
            if blocks is None:
                blocks = listed[ideal] = self.weighted_successors(ideal)
            for block, w in blocks:
                after = rest - w
                moves = step(s, w, after)
                if not moves:
                    continue
                value = values.get(block)
                if value is None:
                    value = values[block] = block_value(block)
                if value == 0:
                    continue
                for carry, factor, head in moves:
                    scale = value * factor
                    bit = 1 << head >> 1  # the bit of the part head, none for 0
                    for tail, coeff in build(ideal | block, carry, after).items():
                        key = tail << head | bit
                        out[key] = out.get(key, 0) + scale * coeff
            states[ideal, s] = out
            return out

        return {_composition(key): coeff for key, coeff in build(0, 0, sum(self.p.d)).items()}


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

"""Coarsening identities for weighted chains, beta-trees, and hook counts.

For a composition d, summing over all coarsenings alpha the product of
leading block weights divided by prefix sums equals 1; the module checks
this exactly, its q-analog as a polynomial identity, the hook-length
count of linear extensions of the associated trees, and the resulting
factorial identity.  A seeded Monte Carlo sampler of the staircase
probability space matches the exact terms empirically.  Every sum over
coarsenings reads the cuts of d from compositions.coarsening_blocks.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .compositions import check_composition, coarsening_blocks


# --- exact integer polynomials in q ----------------------------------------


@dataclass(frozen=True)
class QPolynomial:
    """Dense integer polynomial in q; index = power."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = list(self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return QPolynomial(
            tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))
        )

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return QPolynomial(tuple(out))

    def shifted(self, power):
        """Multiply by q^power."""
        if not self.coeffs:
            return self
        return QPolynomial((0,) * power + self.coeffs)

    def __call__(self, value):
        return sum(c * Fraction(value) ** i for i, c in enumerate(self.coeffs))


ONE = QPolynomial((1,))


def q_integer(m: int) -> QPolynomial:
    """[m]_q = 1 + q + ... + q^(m-1)."""
    return QPolynomial((1,) * m)


# --- coarsening bookkeeping -------------------------------------------------


def _block_layout(d):
    """Per coarsening: (block sizes, roots d_{i_j}, block-end prefix weights)."""
    out = []
    for blocks in coarsening_blocks(d):
        sizes = tuple([len(run) for run in blocks])
        ends = list(accumulate([sum(run) for run in blocks]))
        out.append((sizes, [run[0] for run in blocks], ends))
    return out


def omega_probability(d, beta) -> Fraction:
    """Exact probability of the staircase event indexed by beta."""
    d = check_composition(d)
    beta = check_composition(beta)
    if sum(beta) != len(d):
        raise ValueError("beta must be a composition of len(d)")
    return next(
        math.prod(map(Fraction, roots, ends)) for b, roots, ends in _block_layout(d) if b == beta
    )


def probabilistic_sum(d) -> Fraction:
    """Sum over coarsenings of prod d_{i_j} / (alpha_1 + ... + alpha_j).

    Computed without assuming the identity; the value is always 1.
    """
    return sum(math.prod(map(Fraction, roots, ends)) for _, roots, ends in _block_layout(d))


def q_probabilistic_sum(d) -> QPolynomial:
    """q-analog of the coarsening sum as a cleared polynomial identity.

    Each term is prod_j q^(prefix before block j) [d_{i_j}]_q / [prefix
    through block j]_q.  Denominators are cleared against the product of
    all staircase column totals [d_1 + ... + d_i]_q, avoiding rational
    function arithmetic; the constant polynomial 1 signals the identity.
    """
    d = check_composition(d)
    prefix = []
    acc = 0
    for w in d:
        acc += w
        prefix.append(acc)
    full = ONE
    for value in prefix:
        full = full * q_integer(value)
    total = QPolynomial(())
    for _, roots, ends in _block_layout(d):
        term = ONE
        shift = 0
        for r, e in zip(roots, ends):
            term = term * q_integer(r).shifted(shift)
            shift = e
        # multiply by the column totals absent from this term's denominator
        for value in prefix:
            if value not in ends:
                term = term * q_integer(value)
        total = total + term
    if total == full:
        return ONE
    raise ArithmeticError("q-identity numerator does not match the cleared denominator")


# --- beta-trees and linear extensions ---------------------------------------


@dataclass(frozen=True)
class BetaTree:
    """Caterpillar tree encoding a coarsening event.

    Internal vertex j (1-based, bottom to top) carries the leaf groups in
    leaf_blocks[j-1]; its hook equals the prefix sum of the coarsening.
    """

    internal_count: int
    leaf_blocks: tuple
    hooks: tuple
    total: int


def beta_tree(d, beta) -> BetaTree:
    """Build the tree for composition d and block pattern beta of len(d)."""
    d = check_composition(d)
    beta = check_composition(beta)
    if sum(beta) != len(d):
        raise ValueError("beta must be a composition of len(d)")
    blocks = []
    hooks = []
    pos = 0
    acc = 0
    for size in beta:
        group = [d[pos] - 1] + list(d[pos + 1 : pos + size])
        blocks.append(tuple(group))
        acc += sum(d[pos : pos + size])
        hooks.append(acc)
        pos += size
    return BetaTree(len(beta), tuple(blocks), tuple(hooks), sum(d))


def linear_extension_count(tree: BetaTree) -> int:
    """Hook formula: total! / product of internal hooks (leaves have hook 1)."""
    denom = 1
    for h in tree.hooks:
        denom *= h
    count, rem = divmod(math.factorial(tree.total), denom)
    if rem:
        raise ArithmeticError("hook product does not divide the factorial")
    return count


def brute_force_linear_extensions(tree: BetaTree) -> int:
    """Direct count of orders placing every vertex after its descendants."""
    children = {}
    counter = 0

    def new_vertex():
        nonlocal counter
        counter += 1
        return counter - 1

    prev_internal = None
    for j in range(tree.internal_count):
        v = new_vertex()
        kids = []
        if prev_internal is not None:
            kids.append(prev_internal)
        for count in tree.leaf_blocks[j]:
            for _ in range(count):
                kids.append(new_vertex())
        children[v] = kids
        prev_internal = v
    n = counter
    parents = [None] * n
    for v, kids in children.items():
        for k in kids:
            parents[k] = v
    remaining_children = [len(children.get(v, [])) for v in range(n)]

    def count_orders(available, left):
        if left == 0:
            return 1
        total = 0
        for v in list(available):
            available.remove(v)
            parent = parents[v]
            if parent is not None:
                remaining_children[parent] -= 1
                if remaining_children[parent] == 0:
                    available.add(parent)
            total += count_orders(available, left - 1)
            if parent is not None:
                if remaining_children[parent] == 0:
                    available.remove(parent)
                remaining_children[parent] += 1
            available.add(v)
        return total

    start = {v for v in range(n) if remaining_children[v] == 0}
    return count_orders(start, n)


def linext_identity_check(d):
    """Both sides of: sum over beta of |LinExt| * prod roots = (sum d)!."""
    d = check_composition(d)
    lhs = 0
    for beta, roots, _ in _block_layout(d):
        lhs += linear_extension_count(beta_tree(d, beta)) * math.prod(roots)
    return lhs, math.factorial(sum(d))


# --- staircase Monte Carlo --------------------------------------------------


def classify_staircase_vector(d, vector):
    """The block pattern beta of a staircase selection vector.

    vector[i] picks a value in 1..(d_1 + ... + d_{i+1}); the selected row
    of the last column gives the final part, those columns are removed,
    and the procedure repeats.
    """
    d = check_composition(d)
    prefix = [0]
    for w in d:
        prefix.append(prefix[-1] + w)
    if len(vector) != len(d) or any(not 1 <= vector[i] <= prefix[i + 1] for i in range(len(d))):
        raise ValueError("vector is not a staircase selection")
    beta_rev = []
    remaining = len(d)
    while remaining > 0:
        a = vector[remaining - 1]
        row = next(i for i in range(1, remaining + 1) if prefix[i - 1] < a <= prefix[i])
        part = remaining - row + 1
        beta_rev.append(part)
        remaining -= part
    return tuple(reversed(beta_rev))


def staircase_monte_carlo(d, samples, seed):
    """Empirical frequency of each block pattern under uniform sampling."""
    d = check_composition(d)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    prefix = []
    acc = 0
    for w in d:
        acc += w
        prefix.append(acc)
    rng = random.Random(seed)
    counts = Counter()
    for _ in range(samples):
        vector = [rng.randint(1, bound) for bound in prefix]
        counts[classify_staircase_vector(d, vector)] += 1
    return {beta: Fraction(c, samples) for beta, c in counts.items()}

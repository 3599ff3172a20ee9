"""Coarsening identities for weighted chains, beta-trees, and hook counts.

For a composition d, summing over all coarsenings alpha the product of
leading block weights divided by prefix sums equals 1; the module checks
this exactly, its q-analog as a polynomial identity, the hook-length
count of linear extensions of the associated trees, and the resulting
factorial identity.  A seeded Monte Carlo sampler of the staircase
probability space matches the exact terms empirically.

Every function reads one object, a cut of d into consecutive runs: the
first part of each run (its root) and the block-end prefix sums are the
numerators and denominators of a staircase probability and the leaf
weights and hooks of a beta-tree.  A term of either coarsening sum is a
product of one weight per run, and a run's weight is its root's factor
times one link factor per further part, so both sums come from one
recursion over the first cut point in 2 len(d) - 1 products instead of
2^(len(d)-1) terms.  The q-sum runs it twice in plain integers: at q = 1,
for a bound on every coefficient, then at one packed q wide enough that
no coefficient carries, and unpacks each sum once.  The hook-length
check tests each hook quotient for integrality, so it streams the cuts
by first cut point, one (hook product, root product) pair per cut;
omega_probability and beta_tree cut d once by the block sizes beta.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import accumulate

from .compositions import check_composition


# --- exact integer polynomials in q ----------------------------------------


class QPolynomial:
    """Dense integer polynomial in q with nonnegative coefficients; index = power.
    The constructor drops trailing zero coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def __eq__(self, other):
        return self.coeffs == other.coeffs if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.coeffs,))

    def __repr__(self):
        return f"QPolynomial(coeffs={self.coeffs!r})"

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return QPolynomial(
            tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))
        )

    def __mul__(self, other):
        """Product as one integer product (Kronecker substitution
        q = 256^width, wide enough that no coefficient of the product
        carries into the next)."""
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPolynomial(())
        width = (min(len(a), len(b)) * max(a) * max(b)).bit_length() // 8 + 1
        product = _pack(a, width) * _pack(b, width)
        return QPolynomial(_unpack(product, width, len(a) + len(b) - 1))

    def shifted(self, power):
        """Multiply by q^power."""
        if not self.coeffs:
            return self
        return QPolynomial((0,) * power + self.coeffs)


def _pack(coeffs, width):
    """The value at q = 256^width of nonnegative coefficients below 256^width."""
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def _unpack(value, width, length):
    """The `length` coefficients that _pack(coeffs, width) turned into value."""
    raw = value.to_bytes(length * width, "little")
    return tuple(int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width))


ONE = QPolynomial((1,))


def q_integer(m: int) -> QPolynomial:
    """[m]_q = 1 + q + ... + q^(m-1)."""
    return QPolynomial((1,) * m)


# --- cuts of d into runs ---------------------------------------------------


def _cut_terms(runs):
    """Roots d_{i_j} and block-end prefix sums of a cut of d into runs."""
    return [run[0] for run in runs], list(accumulate(map(sum, runs)))


def _cut(d, beta):
    """Cut d into consecutive runs of the sizes beta, validating both once."""
    d = check_composition(d)
    beta = check_composition(beta)
    if sum(beta) != len(d):
        raise ValueError("beta must be a composition of len(d)")
    return tuple(d[end - size : end] for size, end in zip(beta, accumulate(beta)))


def omega_probability(d, beta) -> Fraction:
    """Exact probability of the staircase event indexed by beta:
    prod_j d_{i_j} / (alpha_1 + ... + alpha_j) for the cut of d by beta."""
    roots, ends = _cut_terms(_cut(d, beta))
    return Fraction(math.prod(roots), math.prod(ends))


def _suffix_sums(roots, links, one) -> list:
    """[S(0), ..., S(k)] for S(k) = one and S(i) = sum_{j>i} R(i, j) S(j),
    where a run d[i:j] weighs R(i, j) = roots[i] * links[i+1] * ... * links[j-1]
    (links[0] is never read).

    S(i) sums, over the cuts of positions i..k-1 into runs, the product of
    their weights.  Taking out the first run's root, S(i) = roots[i] T(i)
    with T(k-1) = S(k) and T(i-1) = S(i) + links[i] T(i), so the recursion
    takes 2k - 1 products and lists no cut.
    """
    k = len(roots)
    sums = [one] * (k + 1)
    tail = one
    for i in range(k - 1, 0, -1):
        sums[i] = roots[i] * tail
        tail = sums[i] + links[i] * tail
    sums[0] = roots[0] * tail
    return sums


def _probability_suffix_sums(d) -> list:
    """_suffix_sums with R(i, j) = d[i] / (d[0] + ... + d[j-1]) for the run
    d[i:j]: the root d[i] / P_{i+1} times the links P_m / P_{m+1}, where P_m
    = d[0] + ... + d[m-1]."""
    prefix = (0, *accumulate(d))
    return _suffix_sums(
        [Fraction(part, end) for part, end in zip(d, prefix[1:])],
        [Fraction(m, end) for m, end in zip(prefix, prefix[1:])],
        Fraction(1),
    )


def probabilistic_sum(d) -> Fraction:
    """Sum over coarsenings of prod d_{i_j} / (alpha_1 + ... + alpha_j).

    Computed without assuming the identity; the value is always 1.
    """
    return _probability_suffix_sums(check_composition(d))[0]


def _cleared_suffix_sums(d, bracket, shift) -> list:
    """_suffix_sums at q = 2^shift of the cleared q-term R(i, j) = q^{P_i}
    [d[i]]_q prod_{i<m<j} [P_m]_q of the run d[i:j], where P_m = d[0] + ...
    + d[m-1] and bracket(m) is the integer [m]_q."""
    prefix = (0, *accumulate(d))
    roots = [bracket(part) << shift * start for part, start in zip(d, prefix)]
    return _suffix_sums(roots, list(map(bracket, prefix)), 1)


def _q_suffix_sums(d) -> list:
    """The cleared q-polynomials S(i) of _cleared_suffix_sums.

    Every coefficient is nonnegative, so S(i) at q = 1 bounds each of its
    coefficients.  The sums are then taken once more at q = 256^width, for
    the fewest bytes `width` above the largest such bound: [m]_q is m
    `width`-byte ones, q^s a shift, and each product or sum one integer
    operation (Kronecker substitution), from which no coefficient carries.
    """
    width = max(_cleared_suffix_sums(d, int, 0)).bit_length() // 8 + 1
    one = (1).to_bytes(width, "little")
    packed = _cleared_suffix_sums(d, lambda m: int.from_bytes(one * m, "little"), 8 * width)
    return [QPolynomial(_unpack(s, width, -(-s.bit_length() // (8 * width)))) for s in packed]


def q_probabilistic_sum(d) -> QPolynomial:
    """q-analog of the coarsening sum as a cleared polynomial identity.

    Each term is prod_j q^(prefix before block j) [d_{i_j}]_q / [prefix
    through block j]_q.  Denominators are cleared against the product of
    all staircase column totals [d_1 + ... + d_i]_q, avoiding rational
    function arithmetic: a cleared term keeps the column totals that end
    no block.  The cleared total is summed by the recursion over the first
    cut point in packed integers, then compared with that product, built
    from QPolynomial products; the constant polynomial 1 signals the
    identity.
    """
    d = check_composition(d)
    full = math.prod(map(q_integer, accumulate(d)), start=ONE)
    if _q_suffix_sums(d)[0] == full:
        return ONE
    raise ArithmeticError("q-identity numerator does not match the cleared denominator")


# --- beta-trees and linear extensions ---------------------------------------


BetaTree = namedtuple("BetaTree", "internal_count leaf_blocks hooks total")
BetaTree.__doc__ = """Caterpillar tree encoding a coarsening event.  Internal vertex j
(1-based, bottom to top) carries the leaf groups in leaf_blocks[j-1]; its
hook equals the prefix sum of the coarsening."""


def beta_tree(d, beta) -> BetaTree:
    """Build the tree for composition d and block pattern beta of len(d):
    a leaf group and a hook per run of the cut of d by beta."""
    runs = _cut(d, beta)
    _, hooks = _cut_terms(runs)
    leaf_blocks = tuple((run[0] - 1,) + run[1:] for run in runs)
    return BetaTree(len(runs), leaf_blocks, tuple(hooks), hooks[-1])


def _hook_quotient(factorial, hook_product) -> int:
    """factorial / hook_product, which the hook formula requires to be whole."""
    count, rem = divmod(factorial, hook_product)
    if rem:
        raise ArithmeticError("hook product does not divide the factorial")
    return count


def linear_extension_count(tree: BetaTree) -> int:
    """Hook formula: total! / product of internal hooks (leaves have hook 1)."""
    return _hook_quotient(math.factorial(tree.total), math.prod(tree.hooks))


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


def _hook_root_products(d):
    """Yield (hook product, root product) for each cut of d into runs, in
    the order of compositions.coarsening_blocks.

    A run d[i:j] has the root d[i] and the hook d[0] + ... + d[j-1], as in
    beta_tree.  The walk goes by first cut point and extends the product
    pair once per run, so a partial cut's products are shared by every cut
    that extends it, and only one partial cut per run is held at a time.
    """
    prefix = (0, *accumulate(d))
    k = len(d)

    def cuts(i, hooks, roots):  # the cuts of d[i:], after a partial cut with these products
        roots *= d[i]
        for j in range(i + 1, k):
            yield from cuts(j, hooks * prefix[j], roots)
        yield hooks * prefix[k], roots

    return cuts(0, 1, 1)


def linext_identity_check(d):
    """Both sides of: sum over beta of |LinExt| * prod roots = (sum d)!."""
    d = check_composition(d)
    rhs = math.factorial(sum(d))
    lhs = sum(_hook_quotient(rhs, hooks) * roots for hooks, roots in _hook_root_products(d))
    return lhs, rhs


# --- staircase Monte Carlo --------------------------------------------------


def classify_staircase_vector(d, vector):
    """The block pattern beta of a staircase selection vector.

    vector[i] picks a value in 1..(d_1 + ... + d_{i+1}); the selected row
    of the last column gives the final part, those columns are removed,
    and the procedure repeats.
    """
    columns = tuple(accumulate(check_composition(d)))
    if len(vector) != len(columns) or any(not 1 <= a <= c for a, c in zip(vector, columns)):
        raise ValueError("vector is not a staircase selection")
    return _classify(columns, vector)


def _classify(columns, vector):
    """classify_staircase_vector on a checked vector, given the column totals."""
    parts = []
    remaining = len(columns)
    while remaining:
        row = bisect_left(columns, vector[remaining - 1], 0, remaining)
        parts.append(remaining - row)
        remaining = row
    return tuple(reversed(parts))


def staircase_monte_carlo(d, samples, seed):
    """Empirical frequency of each block pattern under uniform sampling."""
    columns = tuple(accumulate(check_composition(d)))
    if samples < 1:
        raise ValueError("samples must be >= 1")
    import random  # here, so that a report without samples never loads it

    rng = random.Random(seed)
    counts = Counter(
        _classify(columns, [rng.randrange(c) + 1 for c in columns]) for _ in range(samples)
    )
    return {beta: Fraction(c, samples) for beta, c in counts.items()}

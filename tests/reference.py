"""Plain references the tests compare the package against.

None of these runs in a command: each is the textbook definition of
something the package computes another way, or the code a faster one
replaced, kept here so that the check stays independent of the code under
test.
"""

import argparse
import os
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations

from qmn import DEFAULT_MAX_N, PosetTooLarge, cli, identities
from qmn.compositions import (
    blocks_pi,
    check_composition,
    check_partition,
    coarsenings,
    format_composition,
    rearrangements,
    z,
)
from qmn.identities import QPolynomial
from qmn.posets import LabeledPoset, PosetError, check_size_guard, from_covers, topological_order
from qmn.qsym import QsymExpr, psi_to_monomial
from qmn.rewrites import add_edge_pair, first_incomparable_pair


def is_canonical_coefficient(c) -> bool:
    """A stored coefficient is a nonzero int when whole, else a Fraction
    whose denominator is above 1; never a float, never a whole Fraction."""
    return (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator > 1)


def refinement_blocks(alpha, beta) -> list:
    """Split alpha into consecutive blocks summing to the parts of beta.

    Raises ValueError if alpha does not refine beta.
    """
    alpha = check_composition(alpha)
    beta = check_composition(beta)
    blocks = []
    pos = 0
    for b in beta:
        block = []
        acc = 0
        while acc < b:
            if pos >= len(alpha):
                raise ValueError(f"{alpha} does not refine {beta}")
            block.append(alpha[pos])
            acc += alpha[pos]
            pos += 1
        if acc != b:
            raise ValueError(f"{alpha} does not refine {beta}")
        blocks.append(tuple(block))
    if pos != len(alpha):
        raise ValueError(f"{alpha} does not refine {beta}")
    return blocks


def is_refinement(alpha, beta) -> bool:
    """True iff beta is obtained from alpha by summing consecutive runs."""
    try:
        refinement_blocks(alpha, beta)
    except ValueError:
        return False
    return True


def pi(alpha, beta) -> int:
    """Product over beta's parts of the running sums of the refining blocks."""
    return blocks_pi(refinement_blocks(alpha, beta))


def compositions_of(n: int):
    """All compositions of n, in canonical order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sorted(coarsenings((1,) * n)) if n else [()]


def psi_to_psihat(expr: QsymExpr) -> QsymExpr:
    if expr.basis != "Psi":
        raise ValueError("expected a Psi-basis expression")
    return QsymExpr("PsiHat", {a: c * z(a) for a, c in expr.terms.items()})


def power_sum_symmetric(mu) -> QsymExpr:
    """The power sum symmetric function p_mu in the Psi basis.

    p_mu is the sum of Psi_alpha over all rearrangements alpha of mu.
    """
    mu = check_partition(mu)
    return QsymExpr("Psi", {alpha: Fraction(1) for alpha in rearrangements(mu)})


def evaluate(expr: QsymExpr, point) -> Fraction:
    """Substitute x_1..x_m for the given rationals; all later variables are 0.

    M_alpha maps to the sum over strictly increasing index tuples of the
    corresponding monomial; terms longer than the point vanish.
    """
    point = [Fraction(v) for v in point]
    m = len(point)
    total = Fraction(0)
    for alpha, coeff in psi_to_monomial(expr).terms.items():
        if len(alpha) > m:
            continue
        for idx in combinations(range(m), len(alpha)):
            term = Fraction(1)
            for i, a in zip(idx, alpha):
                term *= point[i] ** a
            total += coeff * term
    return total


def induced_subposet(p: LabeledPoset, subset):
    """Restriction of p to `subset`, elements renumbered in sorted order.

    Labels are renormalized onto {1..k} preserving their relative order,
    which keeps every strict/weak classification intact.
    """
    elements = sorted(subset)
    if not elements:
        raise PosetError("subset must be nonempty")
    index = {x: i for i, x in enumerate(elements)}
    less = {(index[a], index[b]) for a, b in p.less if a in index and b in index}
    ranked = sorted(elements, key=lambda x: p.omega[x])
    omega = [0] * len(elements)
    for rank, x in enumerate(ranked, start=1):
        omega[index[x]] = rank
    return LabeledPoset(len(elements), less, omega, [p.d[x] for x in elements])


def random_poset_by_fraction(n, edge_density, seed) -> LabeledPoset:
    """`posets.random_poset` as it drew before it compared in ints: each
    uniform draw is a Fraction of 10**6 compared with the density."""
    import random

    if n < 1:
        raise PosetError("n must be >= 1")
    density = Fraction(edge_density)
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if Fraction(rng.randrange(10**6), 10**6) < density:
                pairs.append((order[i], order[j]))
    omega = list(range(1, n + 1))
    rng.shuffle(omega)
    d = tuple(rng.randint(1, 3) for _ in range(n))
    return from_covers(n, pairs, omega, d)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the command table replaced; `cli.parse_args` must
    give its namespace on every valid argv."""
    parser = argparse.ArgumentParser(
        prog="qmn", description="Exact power sum expansions of weighted labeled posets."
    )
    guard = os.environ.get("QMN_MAX_N") or DEFAULT_MAX_N
    parser.add_argument("--max-n", type=int, default=guard, help="size guard override")
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="power sum rule expansion of a poset file")
    p_expand.add_argument("--poset", required=True)
    p_expand.add_argument("--basis", choices=("M", "Psi", "PsiHat"), default="PsiHat")
    p_expand.add_argument("--json", action="store_true")
    p_expand.set_defaults(func=cli.cmd_expand)

    p_oracle = sub.add_parser("oracle", help="brute-force monomial expansion")
    p_oracle.add_argument("--poset", required=True)
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.set_defaults(func=cli.cmd_oracle)

    p_verify = sub.add_parser("verify", help="compare rule against the brute-force oracle")
    p_verify.add_argument("--poset", required=True)
    p_verify.set_defaults(func=cli.cmd_verify)

    p_schur = sub.add_parser("schur", help="character table for partitions of n")
    p_schur.add_argument("--n", type=int, required=True)
    p_schur.add_argument("--json", action="store_true")
    p_schur.set_defaults(func=cli.cmd_schur)

    p_chi = sub.add_parser("chi", help="single character value")
    p_chi.add_argument("--lam", required=True, help="partition, e.g. 3,1")
    p_chi.add_argument("--mu", required=True, help="partition, e.g. 2,1,1")
    p_chi.set_defaults(func=cli.cmd_chi)

    p_idents = sub.add_parser("identities", help="coarsening identity report for a composition")
    p_idents.add_argument("--d", required=True, help="composition, e.g. 1,2,2")
    p_idents.add_argument("--json", action="store_true")
    p_idents.add_argument("--samples", type=int, default=0)
    p_idents.add_argument("--seed", type=int, default=0)
    p_idents.set_defaults(func=cli.cmd_identities)

    p_rand = sub.add_parser("random-check", help="batch property check on random posets")
    p_rand.add_argument("--count", type=int, required=True)
    p_rand.add_argument("--n-max", type=int, default=6)
    p_rand.add_argument("--seed", type=int, default=0)
    p_rand.set_defaults(func=cli.cmd_random_check)

    return parser


# --- chain reduction by the two rewrites -----------------------------------


def chain_from_marks(marks, weights) -> LabeledPoset:
    """A labeled chain x_1 < ... < x_n realizing the given edge marks.

    marks[k] is True for a strict edge between positions k and k+1.  The
    labeling is the canonical permutation with that descent pattern:
    rank positions by (number of strict marks at or after the position,
    position index).
    """
    n = len(weights)
    if len(marks) != max(n - 1, 0):
        raise PosetError("need one mark per chain edge")
    strict_after = [0] * n
    for k in range(n - 2, -1, -1):
        strict_after[k] = strict_after[k + 1] + (1 if marks[k] else 0)
    keys = sorted(range(n), key=lambda k: (strict_after[k], k))
    omega = [0] * n
    for rank, k in enumerate(keys, start=1):
        omega[k] = rank
    return from_covers(n, [(i, i + 1) for i in range(n - 1)], omega, weights)


def _as_chain(p: LabeledPoset):
    """Bottom-to-top element order if p is totally ordered, else None."""
    order = topological_order(p)
    return order if all(pair in p.less for pair in zip(order, order[1:])) else None


def reduce_to_natural_chains(p: LabeledPoset, max_n=None):
    """Signed list of naturally labeled weighted chains summing to K(P).

    Incomparable pairs are eliminated first (smallest index pair, both
    orientations, sign preserved).  On a chain, the first strict edge is
    rewritten right-to-left through the weight-splitting identity: the
    strict chain equals the weak-edge chain minus the chain with the two
    vertices merged.  Each returned triple is (sign, chain, weights).
    """
    check_size_guard(p.n, max_n)
    out = []
    stack = [(1, p)]
    while stack:
        sign, q = stack.pop()
        pair = first_incomparable_pair(q)
        if pair is not None:
            p1, p2 = add_edge_pair(q, *pair)
            stack.append((sign, p1))
            stack.append((sign, p2))
            continue
        order = _as_chain(q)
        marks = [q.edge_is_strict(order[k], order[k + 1]) for k in range(q.n - 1)]
        weights = [q.d[x] for x in order]
        try:
            k = marks.index(True)
        except ValueError:
            out.append((sign, chain_from_marks(marks, weights), tuple(weights)))
            continue
        weak_marks = marks[:]
        weak_marks[k] = False
        stack.append((sign, chain_from_marks(weak_marks, weights)))
        merged_weights = weights[:k] + [weights[k] + weights[k + 1]] + weights[k + 2:]
        merged_marks = marks[:k] + marks[k + 1:]
        stack.append((-sign, chain_from_marks(merged_marks, merged_weights)))
    return out


# --- the coarsening identities in Fractions --------------------------------


def shifted(poly: QPolynomial, power) -> QPolynomial:
    """poly times q^power."""
    return QPolynomial((0,) * power + poly.coeffs) if poly.coeffs else poly


def classify_staircase_vector(d, vector):
    """The block pattern beta of a staircase selection vector.

    vector[i] picks a value in 1..(d_1 + ... + d_{i+1}); the selected row
    of the last column gives the final part, those columns are removed,
    and the procedure repeats.
    """
    columns = tuple(accumulate(check_composition(d)))
    if len(vector) != len(columns) or any(not 1 <= a <= c for a, c in zip(vector, columns)):
        raise ValueError("vector is not a staircase selection")
    return identities._classify(columns, vector)


def probability_suffix_sums(d) -> list:
    """The coarsening sums over the cuts of d[i:], i = 0..k, by the suffix-sum
    recursion in Fractions: R(i, j) = d[i] / (d[0] + ... + d[j-1]) for the
    run d[i:j], the root d[i] / P_{i+1} times the links P_m / P_{m+1}, where
    P_m = d[0] + ... + d[m-1]."""
    prefix = (0, *accumulate(d))
    return identities._suffix_sums(
        [Fraction(part, end) for part, end in zip(d, prefix[1:])],
        [Fraction(m, end) for m, end in zip(prefix, prefix[1:])],
        Fraction(1),
    )


def fraction_monte_carlo(d, samples, seed):
    """`identities.staircase_monte_carlo` as it returned a Fraction per pattern."""
    import random

    columns = tuple(accumulate(check_composition(d)))
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    counts = Counter(
        identities._classify(columns, [rng.randrange(c) + 1 for c in columns])
        for _ in range(samples)
    )
    return {beta: Fraction(c, samples) for beta, c in counts.items()}


def fraction_report(d, samples=0, seed=0, max_n=None):
    """`identities.report` as it computed its sum and frequencies in
    Fractions; it must give the same verdict and fields."""
    d = check_composition(d)
    limit = DEFAULT_MAX_N if max_n is None else max_n
    if len(d) > limit:
        raise PosetTooLarge(f"--d has {len(d)} parts, exceeding guard {limit}")
    if samples < 0:
        raise ValueError("--samples must be nonnegative")
    identities._refuse_unprintable_factorial(sum(d))
    total = probability_suffix_sums(d)[0]
    q_ok = identities.q_probabilistic_sum(d) == identities.ONE
    lhs, rhs = identities.linext_identity_check(d)
    fields = {
        "d": format_composition(d),
        "sum": f"{total.numerator}/{total.denominator}",
        "q_identity": q_ok,
        "linext_lhs": str(lhs),
        "linext_rhs": str(rhs),
    }
    if samples:
        freqs = fraction_monte_carlo(d, samples, seed)
        fields["monte_carlo"] = {
            format_composition(beta): f"{f.numerator}/{f.denominator}"
            for beta, f in sorted(freqs.items())
        }
    return total == 1 and q_ok and lhs == rhs, fields

"""Plain references the tests compare the package against.

None of these runs in a command: each is the textbook definition of
something the package computes another way, or the code a faster one
replaced, kept here so that the check stays independent of the code under
test.
"""

import argparse
import os
from fractions import Fraction
from itertools import combinations

from qmn import DEFAULT_MAX_N, cli
from qmn.compositions import blocks_pi, check_composition, check_partition, coarsenings, rearrangements, z
from qmn.posets import LabeledPoset, PosetError, from_covers
from qmn.qsym import QsymExpr, psi_to_monomial


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

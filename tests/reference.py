"""Plain references the tests compare the package against.

None of these runs in a command: each is the textbook definition of
something the package computes another way, kept here so that the check
stays independent of the code under test.
"""

from fractions import Fraction
from itertools import combinations

from qmn.compositions import blocks_pi, check_composition, check_partition, coarsenings, rearrangements, z
from qmn.posets import LabeledPoset, PosetError
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

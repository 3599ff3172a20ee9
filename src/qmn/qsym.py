"""Quasisymmetric function expressions with exact rational coefficients.

Supported bases: 'M' (monomial), 'Psi' (quasisymmetric power sum) and
'PsiHat' (unnormalized quasisymmetric power sum, PsiHat = Psi / z).
The monomial basis is the canonical comparison basis; expressions in a
power sum basis are converted on demand by `psi_to_monomial`, the generic
converter, which expands each term over all cuts of its composition.  The
power sum rule of a poset has a faster route to the monomial basis,
`mn.mn_monomial_expansion`, which converts inside the ideal-lattice fold.
`QsymExpr(basis, terms)` is the checked constructor: it checks the basis
and each composition and drops zero coefficients.  Terms that are already
checked are stored by `QsymExpr._trusted`, which checks nothing: the sums,
differences and multiples of expressions, whose operands were checked, and
the output of the ideal-lattice fold, which `QsymExpr._from_fold` wraps,
dropping zeros and storing `Fraction`s, since the fold builds only
compositions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .compositions import (
    blocks_pi,
    canonical_key,
    check_composition,
    check_partition,
    coarsening_blocks,
    format_composition,
    rearrangements,
    z,
)

BASES = ("M", "Psi", "PsiHat")


class QsymExpr:
    """A basis-tagged sparse map from compositions to exact rationals, held
    once in `terms`: equality and the hash read it, `items()` sorts it."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        clean = {}
        for alpha, coeff in terms.items():
            alpha = check_composition(alpha)
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[alpha] = coeff
        self.basis = basis
        self.terms = clean

    @classmethod
    def _trusted(cls, basis, terms):
        """The expression of `terms`, which must already map compositions to
        nonzero Fractions in a known basis; nothing is checked or copied."""
        self = object.__new__(cls)
        self.basis = basis
        self.terms = terms
        return self

    @classmethod
    def _from_fold(cls, basis, terms, denominator=None):
        """The expression of a fold's integer terms, each divided by
        `denominator` (None for 1); equal to QsymExpr(basis, that map).
        Every key is a composition by construction, so none is checked."""
        return cls._trusted(
            basis, {alpha: Fraction(c, denominator) for alpha, c in terms.items() if c}
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.basis == other.basis and self.terms == other.terms

    def __repr__(self):
        return f"QsymExpr(basis={self.basis!r}, terms={self.terms!r})"

    def __hash__(self):
        return hash((self.basis, frozenset(self.terms.items())))

    def items(self):
        """Terms in canonical composition order."""
        return tuple(sorted(self.terms.items(), key=lambda kv: canonical_key(kv[0])))

    def coefficient(self, alpha) -> Fraction:
        return self.terms.get(tuple(alpha), Fraction(0))

    @property
    def degree(self):
        """Common weight of all keys, or None for the zero expression."""
        degrees = {sum(alpha) for alpha in self.terms}
        if len(degrees) > 1:
            raise ValueError("expression is not homogeneous")
        return degrees.pop() if degrees else None

    def scaled(self, factor) -> "QsymExpr":
        factor = Fraction(factor)
        terms = {a: c * factor for a, c in self.terms.items()} if factor else {}
        return QsymExpr._trusted(self.basis, terms)

    def __add__(self, other) -> "QsymExpr":
        return self._plus(other, 1)

    def __sub__(self, other) -> "QsymExpr":
        return self._plus(other, -1)

    def _plus(self, other, sign):
        """self + sign * other in one pass.  Both operands hold checked
        compositions and nonzero Fractions, so the sum is built trusted and
        only the keys that cancel are dropped."""
        if self.basis != other.basis:
            raise ValueError("cannot add expressions in different bases")
        acc = dict(self.terms)
        for alpha, coeff in other.terms.items():
            total = acc.get(alpha, 0) + sign * coeff
            if total:
                acc[alpha] = total
            else:
                del acc[alpha]
        return QsymExpr._trusted(self.basis, acc)

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [
                {
                    "alpha": format_composition(alpha),
                    "coeff": f"{coeff.numerator}/{coeff.denominator}",
                }
                for alpha, coeff in self.items()
            ],
        }


def psi_to_monomial(expr: QsymExpr) -> QsymExpr:
    """Expand a Psi- or PsiHat-basis expression in the monomial basis.

    Psi_alpha = z_alpha * sum over coarsenings beta of M_beta / pi(alpha, beta);
    PsiHat_alpha drops the z_alpha factor.  Each cut of alpha into runs
    gives beta as the run sums and pi(alpha, beta) from the runs.
    """
    if expr.basis == "M":
        return expr
    acc = {}
    for alpha, coeff in expr.terms.items():
        scale = z(alpha) if expr.basis == "Psi" else 1
        for blocks in coarsening_blocks(alpha):
            # from a list: tuple() resizes a tuple filled from a lazy iterator,
            # and freed resized tuples pile up on CPython's free lists (peak RSS)
            beta = tuple([sum(run) for run in blocks])
            acc[beta] = acc.get(beta, Fraction(0)) + coeff * Fraction(scale, blocks_pi(blocks))
    return QsymExpr("M", acc)


def psihat_to_psi(expr: QsymExpr) -> QsymExpr:
    if expr.basis != "PsiHat":
        raise ValueError("expected a PsiHat-basis expression")
    return QsymExpr("Psi", {a: c / z(a) for a, c in expr.terms.items()})


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


def equals(a: QsymExpr, b: QsymExpr) -> bool:
    """True iff both expressions expand to the same monomial-basis map."""
    return psi_to_monomial(a).terms == psi_to_monomial(b).terms

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
storing `Fraction`s: the fold builds only compositions and drops its
cancelled coefficients before it decodes them, so nothing is dropped here.
`first_difference` finds where two expressions differ, for `verify` and
`random-check` to report.

This module imports `compositions` inside the functions that check, sort,
print or convert a composition.  A `verify` or `random-check` run builds
its expressions from folds and compares their terms, so it never compiles
`compositions`; `expand` and `oracle` compile it to print their terms.
"""

from fractions import Fraction

BASES = ("M", "Psi", "PsiHat")
_ZERO = Fraction(0)


class QsymExpr:
    """A basis-tagged sparse map from compositions to exact rationals, held
    once in `terms`: equality and the hash read it, `items()` sorts it."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms):
        from .compositions import check_composition

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
        """The expression of a fold's nonzero integer terms, each divided by
        `denominator` (None for 1); equal to QsymExpr(basis, that map).
        Every key is a composition by construction, so none is checked, and
        `ChainEngine.folds` yields no zero coefficient, so none is dropped."""
        return cls._trusted(
            basis, {alpha: Fraction(c, denominator) for alpha, c in terms.items()}
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
        from .compositions import canonical_key

        return tuple(sorted(self.terms.items(), key=lambda kv: canonical_key(kv[0])))

    def coefficient(self, alpha) -> Fraction:
        return self.terms.get(tuple(alpha), _ZERO)

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
        from .compositions import format_composition

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
    from .compositions import blocks_pi, coarsening_blocks, z

    if expr.basis == "M":
        return expr
    acc = {}
    for alpha, coeff in expr.terms.items():
        scale = z(alpha) if expr.basis == "Psi" else 1
        for blocks in coarsening_blocks(alpha):
            # from a list: tuple() resizes a tuple filled from a lazy iterator,
            # and freed resized tuples pile up on CPython's free lists (peak RSS)
            beta = tuple([sum(run) for run in blocks])
            acc[beta] = acc.get(beta, 0) + coeff * Fraction(scale, blocks_pi(blocks))
    return QsymExpr("M", acc)


def psihat_to_psi(expr: QsymExpr) -> QsymExpr:
    from .compositions import z

    if expr.basis != "PsiHat":
        raise ValueError("expected a PsiHat-basis expression")
    return QsymExpr("Psi", {a: c / z(a) for a, c in expr.terms.items()})


def equals(a: QsymExpr, b: QsymExpr) -> bool:
    """True iff both expressions expand to the same monomial-basis map."""
    return psi_to_monomial(a).terms == psi_to_monomial(b).terms


def first_difference(a: QsymExpr, b: QsymExpr):
    """None when a and b have the same terms; otherwise (alpha, coefficient
    in a, coefficient in b) for the least composition alpha, in tuple
    order, at which they differ."""
    if a.terms == b.terms:
        return None
    for alpha in sorted(set(a.terms) | set(b.terms)):
        x, y = a.coefficient(alpha), b.coefficient(alpha)
        if x != y:
            return alpha, x, y
    return None

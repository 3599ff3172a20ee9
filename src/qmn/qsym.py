"""Quasisymmetric function expressions with exact rational coefficients.

A coefficient is an `int` when it is whole and a `fractions.Fraction`,
with denominator above 1, only when a division leaves a remainder; no
coefficient is ever a float.  The fold's M and PsiHat coefficients are
whole, so only the Psi normalisation and the generic converter below load
`fractions`, at the division that needs it.

Supported bases: 'M' (monomial), 'Psi' (quasisymmetric power sum) and
'PsiHat' (unnormalized quasisymmetric power sum, PsiHat = Psi / z).
The monomial basis is the canonical comparison basis; expressions in a
power sum basis are converted on demand by `psi_to_monomial`, the generic
converter, which expands each term over all cuts of its composition.  The
power sum rule of a poset has a faster route to the monomial basis,
`mn.mn_monomial_expansion`, which converts inside the ideal-lattice fold.
`QsymExpr(basis, terms)` is the checked constructor: it checks the basis
and each composition, refuses a float coefficient, stores each whole one
as an int and drops zero coefficients.  Terms that are already
checked are stored by `QsymExpr._trusted`, which checks nothing: the sums,
differences and multiples of expressions, whose operands were checked, and
the output of the ideal-lattice fold, which `QsymExpr._from_fold` wraps
without a copy: the fold builds only compositions and drops its cancelled
coefficients before it decodes them, so nothing is dropped here.
`first_difference` finds where two expressions differ, for `verify` and
`random-check` to report.

This module imports `compositions` inside the functions that check, sort,
print or convert a composition.  A `verify` or `random-check` run builds
its expressions from folds and compares their terms, so it never compiles
`compositions`; `expand` and `oracle` compile it to print their terms.
"""

BASES = ("M", "Psi", "PsiHat")


def _canonical(x):
    """x as its int when whole: a Fraction with denominator 1 becomes its
    numerator, and any other exact rational is kept."""
    return x.numerator if x.denominator == 1 else x


def _exact(x):
    """The canonical coefficient of x, refusing a float: an int or Fraction
    is read as it is, and any other value (a string, a Decimal) is read by
    `Fraction`, loaded only then."""
    if isinstance(x, float):
        raise ValueError(f"coefficient {x!r} is a float, not an exact rational")
    if not hasattr(x, "denominator"):
        from fractions import Fraction

        x = Fraction(x)
    return _canonical(x)


class QsymExpr:
    """A basis-tagged sparse map from compositions to exact rationals, each
    an int when whole, held once in `terms`: equality and the hash read it,
    `items()` sorts it."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms):
        from .compositions import check_composition

        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        clean = {}
        for alpha, coeff in terms.items():
            alpha = check_composition(alpha)
            coeff = _exact(coeff)
            if coeff != 0:
                clean[alpha] = coeff
        self.basis = basis
        self.terms = clean

    @classmethod
    def _trusted(cls, basis, terms):
        """The expression of `terms`, which must already map compositions to
        nonzero canonical coefficients (an int when whole) in a known basis;
        nothing is checked or copied."""
        self = object.__new__(cls)
        self.basis = basis
        self.terms = terms
        return self

    @classmethod
    def _from_fold(cls, basis, terms, denominator=None):
        """The expression of a fold's nonzero integer terms, each divided by
        `denominator` (None for 1); equal to QsymExpr(basis, that map).
        Every key is a composition by construction, so none is checked, and
        `ChainEngine.folds` yields no zero coefficient, so none is dropped.
        The fold's map is fresh, so it is kept, or rebuilt with each quotient
        that is whole; `fractions` is loaded only for a remainder."""
        if denominator is None:
            return cls._trusted(basis, terms)
        out = {}
        for alpha, c in terms.items():
            q, r = divmod(c, denominator)
            if r:
                from fractions import Fraction

                q = Fraction(c, denominator)
            out[alpha] = q
        return cls._trusted(basis, out)

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

    def coefficient(self, alpha) -> "int | Fraction":
        return self.terms.get(tuple(alpha), 0)

    @property
    def degree(self):
        """Common weight of all keys, or None for the zero expression."""
        degrees = {sum(alpha) for alpha in self.terms}
        if len(degrees) > 1:
            raise ValueError("expression is not homogeneous")
        return degrees.pop() if degrees else None

    def scaled(self, factor) -> "QsymExpr":
        factor = _exact(factor)
        terms = {a: _canonical(c * factor) for a, c in self.terms.items()} if factor else {}
        return QsymExpr._trusted(self.basis, terms)

    def __add__(self, other) -> "QsymExpr":
        return self._plus(other, 1)

    def __sub__(self, other) -> "QsymExpr":
        return self._plus(other, -1)

    def _plus(self, other, sign):
        """self + sign * other in one pass.  Both operands hold checked
        compositions and nonzero canonical coefficients, so the sum is built
        trusted, each total canonical, and only the keys that cancel are
        dropped."""
        if self.basis != other.basis:
            raise ValueError("cannot add expressions in different bases")
        acc = dict(self.terms)
        for alpha, coeff in other.terms.items():
            total = acc.get(alpha, 0) + sign * coeff
            if total:
                acc[alpha] = _canonical(total)
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
    if expr.basis == "M":
        return expr
    from fractions import Fraction

    from .compositions import blocks_pi, coarsening_blocks, z

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
    from fractions import Fraction

    from .compositions import z

    if expr.basis != "PsiHat":
        raise ValueError("expected a PsiHat-basis expression")
    return QsymExpr("Psi", {a: Fraction(c, z(a)) for a, c in expr.terms.items()})


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

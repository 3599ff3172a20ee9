"""Skew-shape posets, Schur functions and symmetric group characters.

A (skew) Young diagram in English convention becomes a labeled poset with
one element per cell, weak edges along rows and strict edges down
columns; its generating function is the (skew) Schur function.  The
character value chi_lambda(mu) is then the PsiHat coefficient of any
rearrangement of mu, and is independently computable through border
strip tableaux.  A character value reads only the coefficients at
partitions, so both readers run one fold, `mn.mn_partition_expansions`,
over the chains of blocks whose weights weakly decrease, bounded by n,
and read its map at lambda's cells.  `chi` folds lambda's own shape.  The
shape (n, n // 2, ..., 1) holds every partition of n, and its order ideals
of size n are exactly those partitions, so the table is one fold of that
shape.  Nothing is cached from one call to the next.
`SkewShape`, a named tuple, is validated by its constructor
`SkewShape(outer, inner=())`: both partitions, and inner inside outer.
"""

from collections import namedtuple
from functools import lru_cache

from .compositions import check_partition, partitions_of, z
from .mn import mn_partition_expansions
from .posets import LabeledPoset, check_size_guard, from_covers


class SkewShape(namedtuple("SkewShape", "outer inner")):
    """The skew Young diagram outer/inner (inner is empty for a straight shape)."""

    __slots__ = ()

    def __new__(cls, outer, inner=()):
        outer = check_partition(outer)
        inner = tuple(inner)
        if inner:
            check_partition(inner)
        if len(inner) > len(outer):
            raise ValueError("inner shape is taller than outer")
        if any(inner[i] > outer[i] for i in range(len(inner))):
            raise ValueError("inner shape does not fit inside outer")
        return super().__new__(cls, outer, inner)

    def cells(self):
        """Cells (row, col), 0-indexed, row 0 on top."""
        out = []
        for r, width in enumerate(self.outer):
            start = self.inner[r] if r < len(self.inner) else 0
            out.extend((r, c) for c in range(start, width))
        return out

    def size(self):
        return len(self.cells())


def shape_to_poset(shape: SkewShape) -> LabeledPoset:
    """One element per cell; row steps are weak edges, column steps strict.

    Labels run through the rows from the bottom row upward, left to right,
    so entries of a partition surjection weakly increase along rows and
    strictly increase down columns.  All weights are 1.
    """
    cells = shape.cells()
    if not cells:
        raise ValueError("shape has no cells")
    index = {cell: i for i, cell in enumerate(cells)}
    covers = []
    for (r, c), i in index.items():
        if (r, c + 1) in index:
            covers.append((i, index[(r, c + 1)]))
        if (r + 1, c) in index:
            covers.append((i, index[(r + 1, c)]))
    by_bottom_row = sorted(cells, key=lambda rc: (-rc[0], rc[1]))
    omega = [0] * len(cells)
    for rank, cell in enumerate(by_bottom_row, start=1):
        omega[index[cell]] = rank
    return from_covers(len(cells), covers, omega, [1] * len(cells))


def _same_size(lam, mu):
    """lam and mu as checked partitions, which must have the same size."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("lambda and mu must have the same size")
    return lam, mu


def _character(terms, mu) -> int:
    """chi_lambda(mu) from the PsiHat terms of s_lambda; it must be an integer."""
    value = terms.get(mu, 0)  # an int has denominator 1 too
    if value.denominator != 1:
        raise ArithmeticError(f"non-integer character value {value}")
    return int(value)


def chi(lam, mu, max_n=None) -> int:
    """Character value read off the poset expansion of the Schur function.

    `max_n` is the size guard, checked against the size n of lambda before
    its shape poset is built.  The fold of that poset bounded by n is read
    at the ideal of all of lambda's cells, as the table reads a row.
    """
    lam, mu = _same_size(lam, mu)
    n = sum(lam)
    check_size_guard(n, max_n)
    rows = mn_partition_expansions(shape_to_poset(SkewShape(lam)), n, max_n)
    return _character(rows[_diagram_mask(lam, lam)].terms, mu)


def _is_border_strip(cells):
    """The skew diagram with this set of cells is connected with no 2x2 block."""
    if not cells:
        return False
    if any({(r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1)} <= cells for r, c in cells):
        return False
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        r, c = stack.pop()
        if (r, c) in seen:
            continue
        seen.add((r, c))
        for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if nb in cells:
                stack.append(nb)
    return seen == cells


def _strip_removals(lam, size):
    """All (smaller shape, height, cells) after removing one border strip of
    `size`; the height of a strip is its row span minus one."""
    out = []
    for smaller in partitions_of(sum(lam) - size):
        if len(smaller) > len(lam) or any(s > part for s, part in zip(smaller, lam)):
            continue
        cells = set(SkewShape(lam, smaller).cells())
        if _is_border_strip(cells):
            out.append((smaller, len({r for r, _ in cells}) - 1, cells))
    return out


BorderStripTableau = namedtuple("BorderStripTableau", "assignment heights")
BorderStripTableau.__doc__ = """A decomposition of a shape into border strips of prescribed
sizes: assignment is ((row, col, strip_index), ...), heights each strip's row span minus one."""


def border_strip_tableaux(lam, mu):
    """All border strip tableaux of shape lam and type mu.

    Strips are removed in reverse type order (largest index first), so
    strip k occupies the cells of lam absent from the shape after k
    removals.
    """
    lam, mu = _same_size(lam, mu)

    out = []

    def peel(shape, k, removed, heights):
        if k == 0:
            if shape:
                return
            cells = tuple(sorted((r, c, idx) for (r, c), idx in removed.items()))
            out.append(BorderStripTableau(cells, tuple(heights)))
            return
        size = mu[k - 1]
        for smaller, height, strip in _strip_removals(shape, size):
            assignment = dict(removed)
            assignment.update({cell: k for cell in strip})
            peel(smaller, k - 1, assignment, [height] + heights)

    peel(lam, len(mu), {}, [])
    return out


def chi_bst(lam, mu) -> int:
    """Character value via border strip removal; no poset machinery.

    Strips of sizes mu_k, ..., mu_1 are peeled off lam, each contributing
    (-1)^height.
    """
    lam, mu = _same_size(lam, mu)

    @lru_cache(maxsize=None)
    def rec(shape, k):
        if k == 0:
            return 1 if not shape else 0
        return sum(
            (-1) ** height * rec(smaller, k - 1)
            for smaller, height, _ in _strip_removals(shape, mu[k - 1])
        )

    return rec(lam, len(mu))


def _diagram_mask(container, lam):
    """The mask of the cells of lam among the elements of
    shape_to_poset(SkewShape(container)), which are its cells row by row."""
    mask, start = 0, 0
    for width, part in zip(container, lam):
        mask |= ((1 << part) - 1) << start
        start += width
    return mask


def character_table(n: int, max_n=None):
    """All (lambda, mu, chi) triples for partitions of n, canonical order.

    `max_n` is the size guard, checked against n before any partition of n
    is listed; then n must be at least 1.  The shape (n, n // 2, ..., 1)
    holds every partition of n, and its ideals of size n are exactly those
    partitions, so one fold of its poset bounded by n reads every row.
    """
    check_size_guard(n, max_n)
    if n < 1:
        raise ValueError(f"n must be at least 1: n = {n}")
    lams = partitions_of(n)
    container = tuple(n // i for i in range(1, n + 1))
    rows = mn_partition_expansions(shape_to_poset(SkewShape(container)), n, max_n)
    table = []
    for lam in lams:
        terms = rows[_diagram_mask(container, lam)].terms
        table += [(lam, mu, _character(terms, mu)) for mu in lams]
    return table


def orthogonality_check(n: int) -> bool:
    """Row orthogonality sum_mu chi_l(mu) chi_v(mu) / z_mu = [l == v]."""
    from fractions import Fraction  # here, so that chi and the table never load it

    chis = {(lam, mu): value for lam, mu, value in character_table(n)}
    lams = partitions_of(n)
    for la in lams:
        for nu in lams:
            total = sum(Fraction(chis[la, mu] * chis[nu, mu], z(mu)) for mu in lams)
            if total != (1 if la == nu else 0):
                return False
    return True

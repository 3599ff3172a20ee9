import pytest

from tests.conftest import terms_at_partitions
from qmn.compositions import partitions_of
from qmn.mn import mn_expansion
from qmn.posets import PosetTooLarge
from qmn.qsym import psi_to_monomial
from qmn.schur import (
    SkewShape,
    border_strip_tableaux,
    character_table,
    chi,
    chi_bst,
    orthogonality_check,
    shape_to_poset,
)
from qmn.surjections import ChainEngine, enumerate_partition_surjections, monomial_expansion


def test_shape_to_poset_22():
    p = shape_to_poset(SkewShape((2, 2)))
    assert p.n == 4
    strict = sum(p.edge_is_strict(a, b) for a, b in p.covers)
    weak = len(p.covers) - strict
    assert (strict, weak) == (2, 2)
    # semistandard fillings with entries in {1, 2}: only 1 1 / 2 2
    assert len(enumerate_partition_surjections(p, 2)) == 1


def test_skew_shape_cells():
    shape = SkewShape((3, 2), (1,))
    assert shape.size() == 4
    assert set(shape.cells()) == {(0, 1), (0, 2), (1, 0), (1, 1)}


def test_row_shape_is_weak_chain():
    p = shape_to_poset(SkewShape((3,)))
    assert not any(p.edge_is_strict(a, b) for a, b in p.covers)
    assert p.covers == [(0, 1), (1, 2)]


def test_column_shape_is_strict_chain():
    p = shape_to_poset(SkewShape((1, 1, 1)))
    assert all(p.edge_is_strict(a, b) for a, b in p.covers)


def test_known_character_values():
    assert chi((3,), (1, 1, 1)) == 1
    assert chi((2, 1), (1, 1, 1)) == 2
    assert chi((2, 1), (2, 1)) == 0
    assert chi((2, 1), (3,)) == -1
    assert chi((1, 1, 1), (3,)) == 1
    assert chi((1, 1, 1), (2, 1)) == -1


def test_trivial_and_sign_characters():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert chi((n,), mu) == 1
            assert chi((1,) * n, mu) == (-1) ** (n - len(mu))


def test_chi_agrees_with_border_strip_recursion():
    for n in range(1, 9):
        for lam, mu, value in character_table(n):
            assert value == chi_bst(lam, mu), (lam, mu)


def test_border_strip_tableaux_examples():
    # two tableaux of opposite sign, matching chi((2,1),(2,1)) == 0
    tabs21 = border_strip_tableaux((2, 1), (2, 1))
    assert sorted(sum(t.heights) for t in tabs21) == [0, 1]
    # a 2x2 square contains no single border strip of size 4
    assert border_strip_tableaux((2, 2), (4,)) == []
    tabs = border_strip_tableaux((2, 2), (2, 2))
    # the bottom row plus top row, and the right column plus left column
    assert len(tabs) == 2
    assert sorted(sum(t.heights) for t in tabs) == [0, 2]
    with pytest.raises(ValueError):
        border_strip_tableaux((2, 1), (2, 2))


def test_chi_bst_is_signed_tableau_count():
    for lam in partitions_of(5):
        for mu in partitions_of(5):
            total = sum(
                (-1) ** sum(t.heights) for t in border_strip_tableaux(lam, mu)
            )
            assert total == chi_bst(lam, mu)


def test_character_table_first_column_is_dimension():
    # chi^lam(1^n) is the number of standard tableaux; for n=4 the
    # dimensions are 1, 3, 2, 3, 1
    table = {(lam, mu): value for lam, mu, value in character_table(4)}
    ones = (1, 1, 1, 1)
    dims = [table[(lam, ones)] for lam in partitions_of(4)]
    assert dims == [1, 3, 2, 3, 1]


def test_orthogonality():
    for n in range(1, 6):
        assert orthogonality_check(n)


def test_schur_expansion_matches_oracle():
    for lam in partitions_of(4):
        p = shape_to_poset(SkewShape(lam))
        assert psi_to_monomial(mn_expansion(p)) == monomial_expansion(p)


def test_each_shape_is_folded_once(monkeypatch):
    """A table is one fold of the shape (n, n // 2, ..., 1) bounded by n;
    chi folds its own lambda's shape once, bounded by its size."""
    folds = []
    engine_folds = ChainEngine.folds

    def counted_folds(engine, *args):
        folds.append((engine.p, engine.total))
        return engine_folds(engine, *args)

    def shape(lam):
        return shape_to_poset(SkewShape(lam))

    monkeypatch.setattr(ChainEngine, "folds", counted_folds)
    for n in range(1, 10):
        folds.clear()
        character_table(n)
        assert folds == [(shape(tuple(n // i for i in range(1, n + 1))), n)], n
    for n in range(1, 6):
        folds.clear()
        orthogonality_check(n)
        assert folds == [(shape(tuple(n // i for i in range(1, n + 1))), n)], n
    folds.clear()
    assert (chi((2, 1), (3,)), chi((2, 1), (1, 1, 1)), chi((3,), (3,))) == (-1, 2, 1)
    assert folds == [(shape((2, 1)), 3), (shape((2, 1)), 3), (shape((3,)), 3)]


def test_each_row_is_its_shapes_own_expansion():
    for n in range(1, 9):
        rows = {}
        for lam, mu, value in character_table(n):
            if value:
                rows.setdefault(lam, {})[mu] = value
        for lam in partitions_of(n):
            own = terms_at_partitions(mn_expansion(shape_to_poset(SkewShape(lam))))
            assert rows[lam] == own, lam


@pytest.mark.parametrize(
    "lam, mu, value",
    [
        ((6, 6, 6), (3,) * 6, 90),
        ((5, 5, 5, 5), (4,) * 5, -60),
        ((8, 8, 8), (4,) * 6, 90),
        ((10, 10, 10), (5,) * 6, 90),
    ],
)
def test_chi_past_the_default_guard_matches_border_strip_removal(lam, mu, value):
    """A raised guard lets chi fold shapes past n = 10, where the table
    tests do not reach; the default guard refuses each of them."""
    with pytest.raises(PosetTooLarge):
        chi(lam, mu)
    assert chi(lam, mu, max_n=sum(lam)) == chi_bst(lam, mu) == value


def _conjugate(lam):
    return tuple(sum(part > i for part in lam) for i in range(lam[0]))


def test_conjugate_characters_differ_by_the_sign_of_mu():
    """chi_{lambda'}(mu) = sgn(mu) chi_lambda(mu), with sgn(mu) = (-1)^(n - len(mu))."""
    for n in range(1, 9):
        chis = {(lam, mu): value for lam, mu, value in character_table(n)}
        for (lam, mu), value in chis.items():
            assert chis[_conjugate(lam), mu] == (-1) ** (n - len(mu)) * value, (lam, mu)

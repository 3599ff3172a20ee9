import random
from fractions import Fraction
from pathlib import Path

import pytest

from qmn.posets import LabeledPoset, from_covers, load_poset, random_poset

DATA = Path(__file__).resolve().parent.parent / "data"

# One line per acceptance criterion, echoed after the test summary.
acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def weighted_strip() -> LabeledPoset:
    """The 6-element weighted strip: labels (6,5,1,2,3,4), weights (1,2,1,2,1,1)."""
    return load_poset(DATA / "weighted_strip.json")


@pytest.fixture(scope="session")
def cancellation_poset() -> LabeledPoset:
    """The 4-element cancellation example, all weights 1."""
    return load_poset(DATA / "cancellation.json")


@pytest.fixture(scope="session")
def non_strip_poset() -> LabeledPoset:
    """A 9-element labeled poset that is not a generalized border strip."""
    # elements: 0..8 with labels 7,2,6,5,3,1,9,8,4
    covers = [
        (0, 5),  # 7 < 1  strict
        (0, 1),  # 7 < 2  strict
        (1, 2),  # 2 < 6  weak
        (1, 3),  # 2 < 5  weak
        (2, 4),  # 6 < 3  strict
        (4, 7),  # 3 < 8  weak
        (5, 2),  # 1 < 6  weak
        (3, 6),  # 5 < 9  weak
        (2, 6),  # 6 < 9  weak
        (5, 8),  # 1 < 4  weak
        (8, 4),  # 4 < 3  strict
        (6, 7),  # 9 < 8  strict
    ]
    return from_covers(9, covers, [7, 2, 6, 5, 3, 1, 9, 8, 4], [1] * 9)


def budgeted_random_poset(n_max, weight_budget, seed) -> LabeledPoset:
    """Random poset with n <= n_max and total weight <= weight_budget."""
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    density = Fraction(rng.randint(2, 8), 10)
    p = random_poset(n, density, seed=rng.randrange(2**32))
    weights = [1] * n
    spare = weight_budget - n
    while spare > 0 and rng.random() < 0.7:
        weights[rng.randrange(n)] += 1
        spare -= 1
    return LabeledPoset(p.n, p.less, p.omega, tuple(weights))


def terms_at_partitions(expr):
    """The terms of an expression whose composition is a partition."""
    return {
        alpha: c for alpha, c in expr.terms.items() if all(a >= b for a, b in zip(alpha, alpha[1:]))
    }


@pytest.fixture(scope="session")
def cross_check_posets(weighted_strip, cancellation_poset):
    """The two fixtures plus 40 small random posets, for checks of the fold
    and the block tagger against explicit enumeration."""
    return [weighted_strip, cancellation_poset] + [
        budgeted_random_poset(6, 8, seed) for seed in range(40)
    ]

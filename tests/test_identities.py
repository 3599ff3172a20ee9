import itertools
import json
import math
import sys
from fractions import Fraction

import pytest

from qmn import PosetTooLarge, identities
from qmn.cli import main
from qmn.compositions import coarsening_blocks
from qmn.identities import (
    ONE,
    _cleared_suffix_sums,
    _hook_root_products,
    _q_suffix_sums,
    BetaTree,
    beta_tree,
    brute_force_linear_extensions,
    linear_extension_count,
    linext_identity_check,
    omega_probability,
    probabilistic_sum,
    q_integer,
    q_probabilistic_sum,
    report,
    staircase_monte_carlo,
    QPolynomial,
)
from tests.reference import (
    classify_staircase_vector,
    fraction_report,
    probability_suffix_sums,
    shifted,
)

SMALL = [
    (1,),
    (2,),
    (1, 1),
    (2, 1),
    (1, 2),
    (3, 1, 2),
    (2, 2, 2),
    (1, 1, 1, 1),
    (3, 2, 1, 2),
    (2, 1, 3, 1, 2),
]


def test_q_polynomial_arithmetic():
    assert q_integer(3) == QPolynomial((1, 1, 1))
    assert q_integer(1) == ONE
    a = QPolynomial((1, 1))
    assert a * a == QPolynomial((1, 2, 1))
    assert a + ONE == QPolynomial((2, 1))
    assert QPolynomial((0, 1, 0)) == QPolynomial((0, 1))


def test_omega_probability_two_singletons():
    d = (1, 1)
    assert omega_probability(d, (2,)) == Fraction(1, 2)
    assert omega_probability(d, (1, 1)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        omega_probability(d, (3,))


def test_probabilities_sum_to_one():
    for d in SMALL:
        assert probabilistic_sum(d) == 1


def test_q_identity():
    for d in SMALL:
        assert q_probabilistic_sum(d) == ONE


def _q_reference(d, i):
    """The cleared q total of the cuts of d[i:], term by term: each term
    keeps q^(prefix before a run) [root]_q per run and the column totals
    of d that end no run."""
    columns = tuple(itertools.accumulate(d))
    before = columns[i - 1] if i else 0
    total = QPolynomial(())
    for runs in coarsening_blocks(d[i:]):
        ends = [before + end for end in itertools.accumulate(map(sum, runs))]
        factors = [shifted(q_integer(run[0]), s) for run, s in zip(runs, [before] + ends)]
        factors += [q_integer(c) for c in columns[i:] if c not in ends]
        total = total + math.prod(factors, start=ONE)
    return total


def _probability_reference(d, i):
    """The cuts of d[i:] summed term by term, over d's own prefix sums."""
    before = sum(d[:i])
    return sum(
        Fraction(
            math.prod(run[0] for run in runs),
            math.prod(before + end for end in itertools.accumulate(map(sum, runs))),
        )
        for runs in coarsening_blocks(d[i:])
    )


def test_sums_by_recursion_match_the_term_by_term_reference():
    # the identities hold, so comparing only verdicts would pass a sum that
    # returned the cleared denominator; compare the computed sums themselves,
    # the suffix sums S(i), i > 0, too, which no verdict reads; the sums at
    # q = 1 over the column totals P_{i+1} ... P_k are the probability sums
    for n in range(1, 7):
        for d in itertools.product(range(1, 4), repeat=n):
            at_one = _cleared_suffix_sums(d, int, 0)
            columns = tuple(itertools.accumulate(d))
            q_sums = _q_suffix_sums(d, at_one)
            p_sums = [Fraction(s, math.prod(columns[i:])) for i, s in enumerate(at_one)]
            assert p_sums == probability_suffix_sums(d), d
            assert len(q_sums) == len(p_sums) == n + 1
            assert q_sums[n] == ONE and p_sums[n] == 1
            for i in range(n) if n <= 5 else (0,):
                assert q_sums[i] == _q_reference(d, i), (d, i)
                assert p_sums[i] == _probability_reference(d, i), (d, i)
            assert probabilistic_sum(d) == p_sums[0] == 1


def test_packed_width_holds_the_largest_coefficient():
    # the packed q-sums take the fewest bytes above every S(i) at q = 1; in
    # these, some coefficient of some S(i) needs the top byte of that width,
    # so one byte fewer would carry it into the next coefficient
    for d in [(3, 1, 2), (20, 19, 3), (4,) * 6]:
        reference = [_q_reference(d, i) for i in range(len(d))] + [ONE]
        width = max(sum(s.coeffs) for s in reference).bit_length() // 8 + 1
        assert max(max(s.coeffs) for s in reference) >= 256 ** (width - 1), d
        assert _q_suffix_sums(d, _cleared_suffix_sums(d, int, 0)) == reference, d


def test_beta_tree_shape():
    tree = beta_tree((2, 1), (2,))
    assert tree == BetaTree(1, ((1, 1),), (3,), 3)
    tree2 = beta_tree((1, 5, 2), (1, 2))
    assert tree2.leaf_blocks == ((0,), (4, 2))
    assert tree2.hooks == (1, 8)
    with pytest.raises(ValueError):
        beta_tree((1, 1), (3,))


def test_hook_count_examples():
    # one internal vertex with two single leaves below it: 3!/3 = 2
    assert linear_extension_count(beta_tree((2, 1), (2,))) == 2
    # a bare chain has exactly one extension
    assert linear_extension_count(beta_tree((1, 1, 1), (1, 1, 1))) == 1


def test_hook_count_matches_brute_force():
    for d in SMALL:
        if sum(d) > 8:
            continue
        n = len(d)
        for cuts in itertools.product([0, 1], repeat=n - 1):
            beta = []
            size = 1
            for c in cuts:
                if c:
                    beta.append(size)
                    size = 1
                else:
                    size += 1
            beta.append(size)
            tree = beta_tree(d, tuple(beta))
            assert linear_extension_count(tree) == brute_force_linear_extensions(tree)


def test_linext_identity():
    for d in SMALL:
        lhs, rhs = linext_identity_check(d)
        assert lhs == rhs == math.factorial(sum(d))


def test_every_term_reads_one_cut():
    # hooks are the block-end prefix sums, and each staircase probability
    # is its tree's hook count times the roots over (sum d)!
    for n in range(1, 6):
        for d in itertools.product(range(1, 4), repeat=n):
            terms = []
            for runs in coarsening_blocks(d):
                beta = tuple(len(run) for run in runs)
                tree = beta_tree(d, beta)
                assert tree.hooks == tuple(itertools.accumulate(map(sum, runs)))
                roots = math.prod(run[0] for run in runs)
                term = omega_probability(d, beta)
                assert term == Fraction(linear_extension_count(tree) * roots, math.factorial(sum(d)))
                terms.append(term)
            assert sum(terms) == probabilistic_sum(d) == 1


def test_the_hook_walk_reads_each_cut_as_its_tree():
    # one (hook product, root product) per cut, in the order of coarsening_blocks
    for n in range(1, 7):
        for d in itertools.product(range(1, 4), repeat=n):
            assert list(_hook_root_products(d)) == [
                (
                    math.prod(beta_tree(d, tuple(map(len, runs))).hooks),
                    math.prod(run[0] for run in runs),
                )
                for runs in coarsening_blocks(d)
            ], d


def test_classify_staircase_vector():
    assert classify_staircase_vector((1, 1), (1, 1)) == (2,)
    assert classify_staircase_vector((1, 1), (1, 2)) == (1, 1)
    assert classify_staircase_vector((2, 1), (2, 3)) == (1, 1)
    with pytest.raises(ValueError):
        classify_staircase_vector((1, 1), (1, 3))


def test_classification_exhausts_to_exact_probabilities():
    # averaging the classifier over every selection vector recovers the
    # exact probabilities
    for d in [(1, 1), (2, 1), (1, 2, 1)]:
        prefix = list(itertools.accumulate(d))
        total = math.prod(prefix)
        counts = {}
        for vector in itertools.product(*[range(1, b + 1) for b in prefix]):
            beta = classify_staircase_vector(d, vector)
            counts[beta] = counts.get(beta, 0) + 1
        for beta, c in counts.items():
            assert Fraction(c, total) == omega_probability(d, beta)


def test_monte_carlo_close_and_deterministic():
    d = (2, 1, 2)
    freq = staircase_monte_carlo(d, 20000, seed=9)
    assert freq == staircase_monte_carlo(d, 20000, seed=9)
    for beta, f in freq.items():
        assert abs(f - omega_probability(d, beta)) < Fraction(2, 100)
    assert abs(sum(freq.values()) - 1) == 0


def test_monte_carlo_stream_is_pinned():
    # a seed draws randrange(d_1 + ... + d_i) + 1 column by column, sample by sample
    assert staircase_monte_carlo((1, 3, 2, 1), 60, seed=2026) == {
        (1, 1, 1, 1): Fraction(1, 30),
        (1, 1, 2): Fraction(1, 4),
        (1, 2, 1): Fraction(1, 60),
        (1, 3): Fraction(7, 15),
        (2, 2): Fraction(1, 10),
        (3, 1): Fraction(1, 60),
        (4,): Fraction(7, 60),
    }


def _cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "d, samples, seed",
    [
        ((1, 2, 2), 500, 1),
        ((1, 2, 2), 50, 1),
        ((2,) * 10, 10, 0),
        ((40,) * 10, 10, 0),
        ((1, 1, 1, 2, 2, 3, 1, 2, 3, 1), 200, 1),
        ((400, 400, 400), 0, 0),
    ],
)
def test_report_returns_what_the_command_prints(capsys, d, samples, seed):
    ok, fields = report(d, samples, seed)
    assert ok and fields["sum"] == "1/1" and fields["q_identity"] is True
    assert fields["linext_lhs"] == fields["linext_rhs"] == str(math.factorial(sum(d)))
    assert ("monte_carlo" in fields) == (samples > 0)
    argv = ["identities", f"--d={','.join(map(str, d))}", f"--samples={samples}", f"--seed={seed}"]
    text = "".join(f"{key}\t{value}\n" for key, value in fields.items())
    assert _cli(capsys, *argv) == (0, text, "")
    assert _cli(capsys, *argv, "--json") == (0, json.dumps(fields) + "\n", "")


def test_report_matches_the_fraction_report():
    # the int report against the Fraction report it replaced: the same verdict
    # and fields on every d in {1,2,3}^k, k <= 6, and at the CLI's digit limit
    for n in range(1, 7):
        for d in itertools.product(range(1, 4), repeat=n):
            assert report(d) == fraction_report(d), d
            for seed in (0, 1, 2):
                assert report(d, 200, seed) == fraction_report(d, 200, seed), (d, seed)
    assert report((155,) * 10, 200, 0) == fraction_report((155,) * 10, 200, 0)


def test_a_false_identity_reports_not_ok(capsys, monkeypatch):
    cleared = identities._cleared_suffix_sums

    def doubled_at_one(d, bracket, shift):  # the coarsening sum S(0) / (P_1 ... P_k) reads 2
        sums = cleared(d, bracket, shift)
        return [2 * sums[0], *sums[1:]] if bracket is int else sums

    monkeypatch.setattr(identities, "_cleared_suffix_sums", doubled_at_one)
    ok, fields = report((1, 2))
    assert not ok and fields["sum"] == "2/1"
    text = "".join(f"{key}\t{value}\n" for key, value in fields.items())
    assert _cli(capsys, "identities", "--d=1,2") == (1, text, "")


def test_report_refuses_before_any_sum(monkeypatch):
    def refuse(roots, links, one):
        raise AssertionError("a coarsening sum ran before the input was checked")

    monkeypatch.setattr(identities, "_suffix_sums", refuse)
    with pytest.raises(PosetTooLarge, match="^--d has 11 parts, exceeding guard 10$"):
        report((1,) * 11)
    with pytest.raises(PosetTooLarge, match="^--d has 3 parts, exceeding guard 2$"):
        report((1, 1, 1), max_n=2)
    with pytest.raises(ValueError, match="^--samples must be nonnegative$"):
        report((1, 2), samples=-5)
    with pytest.raises(ValueError, match="^composition parts must be positive integers"):
        report((1, 0))
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        with pytest.raises(ValueError, match="^--d sums to 2000000, and 2000000! has more digits"):
            report((2000000,))

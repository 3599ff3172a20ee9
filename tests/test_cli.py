import contextlib
import io
import json
import math
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qmn import identities, mn, posets, rewrites, schur
from qmn.cli import EXIT_FAIL, EXIT_GUARD, EXIT_INPUT, EXIT_OK, _verify_poset, main
from qmn.compositions import partitions_of
from qmn.posets import random_poset
from qmn.qsym import QsymExpr
from qmn.surjections import ChainEngine
from tests.test_posets import _poset_json

DATA = Path(__file__).resolve().parent.parent / "data"
STRIP = str(DATA / "weighted_strip.json")
CANCEL = str(DATA / "cancellation.json")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_expand_text_output(capsys):
    code, out = run(capsys, "expand", "--poset", STRIP)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 40
    table = dict(line.split("\t") for line in lines)
    assert table["8"] == "1/1"
    assert table["1,5,2"] == "-3/1"
    assert table["1,2,1,2,2"] == "8/1"


def test_expand_json_output(capsys):
    code, out = run(capsys, "expand", "--poset", CANCEL, "--basis", "M", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["basis"] == "M"
    assert all(set(t) == {"alpha", "coeff"} for t in payload["terms"])


def test_expand_psi_basis(capsys):
    code, out = run(capsys, "expand", "--poset", CANCEL, "--basis", "Psi")
    assert code == EXIT_OK
    assert out.strip()


def test_oracle_matches_expand_in_m_basis(capsys):
    _, via_rule = run(capsys, "expand", "--poset", CANCEL, "--basis", "M", "--json")
    _, via_oracle = run(capsys, "oracle", "--poset", CANCEL, "--json")
    assert json.loads(via_rule) == json.loads(via_oracle)


def test_verify_pass_and_fail(capsys, monkeypatch):
    code, out = run(capsys, "verify", "--poset", STRIP)
    assert code == EXIT_OK and out.strip() == "PASS"
    fused, bumps = mn.mn_monomial_expansion, []

    def bumped(poset, max_n=None):
        terms = dict(fused(poset, max_n=max_n).terms)
        alpha = min(terms)
        bumps.append((alpha, terms[alpha]))
        terms[alpha] += 1
        return QsymExpr("M", terms)

    monkeypatch.setattr(mn, "mn_monomial_expansion", bumped)
    code, out = run(capsys, "verify", "--poset", STRIP)
    ((alpha, c),) = bumps
    assert code == EXIT_FAIL
    assert out == f"FAIL: coefficient of M_{','.join(map(str, alpha))} differs: rule {c + 1} vs oracle {c}\n"


def test_chi(capsys):
    code, out = run(capsys, "chi", "--lam", "2,1", "--mu", "3")
    assert code == EXIT_OK and out.strip() == "-1"


def test_schur_table(capsys):
    code, out = run(capsys, "schur", "--n", "3", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["n"] == 3
    assert len(payload["table"]) == 9


def test_identities_report(capsys):
    code, out = run(
        capsys, "identities", "--d", "1,2,2", "--json", "--samples", "500", "--seed", "1"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["sum"] == "1/1"
    assert report["q_identity"] is True
    assert report["linext_lhs"] == report["linext_rhs"]
    assert sum(int(v.split("/")[0]) for v in report["monte_carlo"].values()) > 0


def test_identities_cost_is_bounded_by_the_total_not_the_parts(capsys, monkeypatch):
    # ten parts of 40 give a cleared q-polynomial of degree 2190 (sum of the prefix sums
    # less 10), ten parts of 2 one of degree 100; both take the same products: the
    # suffix sums, at q = 1 and packed, 2 * 10 - 1 integer products each, and the
    # cleared denominator's polynomial products, each one integer product of its two
    # packed operands
    counts = Counter()
    mul, pack, suffix_sums = identities.QPolynomial.__mul__, identities._pack, identities._suffix_sums
    monkeypatch.setattr(identities.QPolynomial, "__mul__", lambda a, b: counts.update(["mul"]) or mul(a, b))
    monkeypatch.setattr(identities, "_pack", lambda c, w: counts.update(["pack"]) or pack(c, w))

    class Factor(int):  # a root or link of the integer sums, counting its products
        def __mul__(self, other):
            counts.update(["int product"])
            return int(self) * int(other)

        __rmul__ = __mul__

    def counted_suffix_sums(roots, links, one):
        if isinstance(one, int):  # the q-sums, not the Fraction probability sum
            counts.update(["int sums"])
            roots, links = list(map(Factor, roots)), list(map(Factor, links))
        return suffix_sums(roots, links, one)

    monkeypatch.setattr(identities, "_suffix_sums", counted_suffix_sums)
    seen = {}
    for part in ("2", "40"):
        counts.clear()
        code, out = run(capsys, "identities", "--d", ",".join([part] * 10), "--samples", "10")
        assert code == EXIT_OK
        assert "q_identity\tTrue" in out.splitlines()
        seen[part] = dict(counts)
    assert seen["40"] == seen["2"]
    assert seen["40"]["int sums"] == 2
    assert seen["40"]["int product"] == 2 * (2 * 10 - 1)
    assert seen["40"]["pack"] == 2 * seen["40"]["mul"] > 0


def _false_q_sums(d):
    return [identities.ONE] * (len(d) + 1)


_real_hook_root_products = identities._hook_root_products


def _hook_products_with_a_bad_hook(d):
    # each cut's last hook, sum(d), becomes sum(d) + 1
    total = sum(d)
    return ((h // total * (total + 1), r) for h, r in _real_hook_root_products(d))


def _a_half_at_the_full_ideal(engine, *args):
    # the fold reaches only the whole shape, with one non-integer coefficient
    yield engine.full, {(3,): Fraction(1, 2)}


@pytest.mark.parametrize(
    "module, name, fake, argv, message",
    [
        (
            identities, "_q_suffix_sums", _false_q_sums, ("identities", "--d", "1,2"),
            "q-identity numerator does not match the cleared denominator",
        ),
        (
            identities, "_hook_root_products", _hook_products_with_a_bad_hook,
            ("identities", "--d", "1,2"),
            "hook product does not divide the factorial",
        ),
        (
            ChainEngine, "folds", _a_half_at_the_full_ideal,
            ("chi", "--lam", "3", "--mu", "3"), "non-integer character value 1/2",
        ),
    ],
    ids=["q check", "hook check", "chi"],
)
def test_a_failed_check_exits_fail_without_a_traceback(
    capsys, monkeypatch, module, name, fake, argv, message
):
    # each check is made false, so its own ArithmeticError is what main meets
    monkeypatch.setattr(module, name, fake)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT_FAIL
    assert captured.out == ""
    assert captured.err == f"FAIL: {message}\n"


def test_random_check(capsys):
    code, out = run(capsys, "random-check", "--count", "12", "--n-max", "5", "--seed", "3")
    assert code == EXIT_OK
    assert out.strip().startswith("12/12 main")
    assert capsys.readouterr().err == ""


def test_random_check_failures_name_their_seed(capsys, monkeypatch):
    fused = mn.mn_monomial_expansion

    def bumped(poset, max_n=None):
        terms = dict(fused(poset, max_n=max_n).terms)
        alpha = min(terms)
        terms[alpha] += 1
        return QsymExpr("M", terms)

    monkeypatch.setattr(mn, "mn_monomial_expansion", bumped)
    code = main(["random-check", "--count", "3", "--n-max", "3", "--seed", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_FAIL
    assert captured.out == "0/3 main, 3/3 addEdge, 3/3 splitWeight\n"
    lines = captured.err.splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines):
        seed, n = 3 * 10**6 + i, 1 + i % 3
        match = re.fullmatch(r"FAIL: poset seed (\d+), n (\d+): main \((.*)\)", line)
        assert match and (int(match[1]), int(match[2])) == (seed, n)
        ok, (alpha, a, b) = _verify_poset(random_poset(n, Fraction(1, 2), seed=seed), 10)
        assert not ok and a == b + 1
        assert match[3] == f"coefficient of M_{','.join(map(str, alpha))} differs: rule {a} vs oracle {b}"


def test_input_error_exit_code(capsys, tmp_path):
    code, _ = run(capsys, "expand", "--poset", str(tmp_path / "missing.json"))
    assert code == EXIT_INPUT
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "covers": [[0, 1], [1, 0]], "labels": [1, 2], "weights": [1, 1]}))
    code, _ = run(capsys, "expand", "--poset", str(bad))
    assert code == EXIT_INPUT
    bool_weight = tmp_path / "bool_weight.json"
    bool_weight.write_text(json.dumps({"n": 2, "covers": [], "labels": [1, 2], "weights": [True, 1]}))
    code, _ = run(capsys, "expand", "--poset", str(bool_weight))
    assert code == EXIT_INPUT
    for argv, message in (
        (("random-check", "--count", "2", "--n-max", "0"), "--count and --n-max must be at least 1"),
        (("random-check", "--count", "-1"), "--count and --n-max must be at least 1"),
        (("schur", "--n", "0"), "n must be at least 1: n = 0"),
        (("schur", "--n", "-1"), "n must be at least 1: n = -1"),
        (("identities", "--d", "1,2", "--samples", "-5"), "--samples must be nonnegative"),
    ):
        assert main(list(argv)) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"


def test_guard_exit_code(capsys, tmp_path, monkeypatch):
    big = tmp_path / "big.json"
    n = 11
    big.write_text(
        json.dumps(
            {
                "n": n,
                "covers": [[i, i + 1] for i in range(n - 1)],
                "labels": list(range(1, n + 1)),
                "weights": [1] * n,
            }
        )
    )
    code, _ = run(capsys, "expand", "--poset", str(big))
    assert code == EXIT_GUARD
    code, _ = run(capsys, "--max-n", "11", "expand", "--poset", str(big))
    assert code == EXIT_OK
    code, _ = run(capsys, "chi", "--lam", "11", "--mu", "11")
    assert code == EXIT_GUARD
    code, out = run(capsys, "--max-n", "11", "chi", "--lam", "11", "--mu", "11")
    assert code == EXIT_OK and out.strip() == "1"
    ones = ",".join(["1"] * 11)
    code, _ = run(capsys, "identities", "--d", ones)
    assert code == EXIT_GUARD
    code, _ = run(capsys, "--max-n", "11", "identities", "--d", ones)
    assert code == EXIT_OK
    monkeypatch.setenv("QMN_MAX_N", "11")
    code, _ = run(capsys, "expand", "--poset", str(big))
    assert code == EXIT_OK


def test_random_check_refuses_an_n_max_whose_splits_pass_the_guard(capsys, monkeypatch):
    assert main(["random-check", "--count", "10", "--n-max", "10"]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == "" and "guard 10" in captured.err
    split, sizes = rewrites.split_weight, []

    def spy(poset, *args):
        sizes.append(poset.n)
        return split(poset, *args)

    monkeypatch.setattr(rewrites, "split_weight", spy)
    code, out = run(capsys, "--max-n", "11", "random-check", "--count", "10", "--n-max", "10", "--seed", "0")
    assert code == EXIT_OK
    assert out == "10/10 main, 10/10 addEdge, 10/10 splitWeight\n"
    assert 10 in sizes


def test_qmn_max_n_is_the_default_of_max_n(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("QMN_MAX_N", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--poset", STRIP])
    assert exc.value.code == EXIT_INPUT
    assert "--max-n" in capsys.readouterr().err
    n = 11
    chain = tmp_path / "chain11.json"
    chain.write_text(
        json.dumps(
            {
                "n": n,
                "covers": [[i, i + 1] for i in range(n - 1)],
                "labels": list(range(1, n + 1)),
                "weights": [1] * n,
            }
        )
    )
    monkeypatch.setenv("QMN_MAX_N", "5")
    assert main(["verify", "--poset", str(chain)]) == EXIT_GUARD
    assert run(capsys, "--max-n", "11", "verify", "--poset", str(chain)) == (EXIT_OK, "PASS\n")


def test_huge_n_in_a_poset_file_is_an_input_error(capsys, tmp_path):
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 10**18, "covers": [], "labels": [1], "weights": [1]}))
    code, _ = run(capsys, "verify", "--poset", str(huge))
    assert code == EXIT_INPUT


def test_a_deeply_nested_poset_file_is_an_input_error(capsys, tmp_path):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    for command in ("expand", "oracle", "verify"):
        code = main([command, "--poset", str(nested)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: JSON in {nested} is nested too deeply\n"


def test_guard_refuses_before_partitions_shapes_or_closures(capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("work ran before the size guard")

    monkeypatch.setattr(schur, "partitions_of", refuse)
    monkeypatch.setattr(schur, "shape_to_poset", refuse)
    monkeypatch.setattr(posets, "_transitive_closure", refuse)
    n = 5000
    chain = tmp_path / "chain.json"
    chain.write_text(
        json.dumps(
            {
                "n": n,
                "covers": [[i, i + 1] for i in range(n - 1)],
                "labels": list(range(1, n + 1)),
                "weights": [1] * n,
            }
        )
    )
    for argv in (
        ("schur", "--n", "200"),
        ("chi", "--lam", "5000", "--mu", "5000"),
        ("expand", "--poset", str(chain)),
        ("oracle", "--poset", str(chain)),
        ("verify", "--poset", str(chain)),
    ):
        code, _ = run(capsys, *argv)
        assert code == EXIT_GUARD


def test_identities_refuses_before_any_sum(capsys, monkeypatch):
    def refuse(d):
        raise AssertionError("a coarsening sum ran before the input was checked")

    factorial = math.factorial

    def small_factorial(n):
        assert n < 10**4, "n! computed for a refused --d"
        return factorial(n)

    monkeypatch.setattr(identities, "probabilistic_sum", refuse)
    monkeypatch.setattr(identities, "q_probabilistic_sum", refuse)
    monkeypatch.setattr(math, "factorial", small_factorial)
    for argv in (("identities", "--d", "800,800,800"), ("identities", "--d", "1,2", "--samples", "-5")):
        code, _ = run(capsys, *argv)
        assert code == EXIT_INPUT
    code = main(["identities", "--d", "2000000"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: --d sums to 2000000, and 2000000! has more digits than Python prints\n"
    )


@pytest.fixture
def str_digits():
    """Sets Python's int-to-string digit limit for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-string digit limit")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


def test_identities_factorial_guard_follows_the_digit_limit(capsys, str_digits):
    code, out = run(capsys, "identities", "--d", "400,400,400")
    assert code == EXIT_OK and f"linext_rhs\t{math.factorial(1200)}" in out
    str_digits(640)  # the smallest limit Python accepts
    for n in range(305, 316):  # 310! has 640 digits, 311! has 642
        code, _ = run(capsys, "identities", "--d", str(n))
        assert code == (EXIT_INPUT if n > 310 else EXIT_OK), n
    str_digits(0)  # no limit
    code, out = run(capsys, "identities", "--d", "2000")
    assert code == EXIT_OK and f"linext_rhs\t{math.factorial(2000)}" in out


def _text(parts):
    return ",".join(map(str, parts))


_composition = st.lists(st.integers(1, 5), min_size=1, max_size=5).map(_text) | st.sampled_from(
    ["", ",", "0", "1,,2", "x", "-1", "1.5"]
)

# two partitions of the same size, so that chi gets past its input checks
_partition_pair = st.integers(1, 5).flatmap(
    lambda k: st.lists(st.sampled_from(partitions_of(k)).map(_text), min_size=2, max_size=2)
)

_poset_file = st.one_of(
    _poset_json().map(json.dumps),
    st.builds(random_poset, st.integers(1, 5), st.just(Fraction(1, 2)), st.integers(0, 99)).map(
        lambda p: json.dumps(p.to_json_dict())
    ),
    st.just("[" * 100_000 + "]" * 100_000),
    st.sampled_from(["", "{", "null", "[]"]),
    st.none(),  # no file at all
)


def _flags(*names):
    return st.lists(st.sampled_from(names), unique=True)


def _command_args(poset):
    """One strategy per subcommand for the arguments after its name, with every
    size below the guards: at most 5 elements, parts or --n-max, count <= 3."""
    return {
        "expand": st.tuples(
            st.just(["--poset", poset]),
            st.sampled_from([[], ["--basis=M"], ["--basis=Psi"], ["--basis=PsiHat"]]),
            _flags("--json"),
        ),
        "oracle": st.tuples(st.just(["--poset", poset]), _flags("--json")),
        "verify": st.tuples(st.just(["--poset", poset])),
        "schur": st.tuples(st.integers(-1, 5).map(lambda n: [f"--n={n}"]), _flags("--json")),
        "chi": (_partition_pair | st.lists(_composition, min_size=2, max_size=2)).map(
            lambda lam_mu: ([f"--lam={lam_mu[0]}", f"--mu={lam_mu[1]}"],)
        ),
        "identities": st.tuples(
            _composition.map(lambda d: [f"--d={d}"]),
            st.integers(-1, 20).map(lambda k: [f"--samples={k}"]),
            st.integers(0, 9).map(lambda seed: [f"--seed={seed}"]),
            _flags("--json"),
        ),
        "random-check": st.tuples(
            st.integers(0, 3).map(lambda k: [f"--count={k}"]),
            st.integers(0, 5).map(lambda k: [f"--n-max={k}"]),
            st.integers(0, 9).map(lambda seed: [f"--seed={seed}"]),
        ),
    }


@pytest.fixture(scope="module")
def poset_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "poset.json"


@settings(max_examples=150, deadline=None)
@given(data=st.data(), content=_poset_file, max_n=st.none() | st.integers(-1, 6))
def test_every_command_ends_in_an_exit_code(poset_path, data, content, max_n):
    if content is None:
        poset_path.unlink(missing_ok=True)
    else:
        poset_path.write_text(content)
    commands = _command_args(str(poset_path))
    command = data.draw(st.sampled_from(sorted(commands)))
    argv = [] if max_n is None else [f"--max-n={max_n}"]
    argv += [command, *(arg for args in data.draw(commands[command]) for arg in args)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_INPUT, EXIT_GUARD), argv

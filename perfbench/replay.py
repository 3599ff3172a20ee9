"""In-process replay of a workload's requests, with spans around each layer.

The replay calls the same public functions the CLI commands reach, one
span per call, so each layer's self time and exact work counts can be
read per run.  It never touches private names, so the program may move
or delete its internals without breaking the benchmark.  Work counts are
derived from the results, not from the program's internals, and must
repeat exactly for a given seed.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from fractions import Fraction

from qmn import (
    QsymExpr,
    SkewShape,
    add_edge_pair,
    equals,
    identities,
    load_poset,
    mn_expansion,
    monomial_expansion,
    psi_to_monomial,
    random_poset,
    shape_to_poset,
    split_weight,
)
from qmn.compositions import partitions_of

from workloads import antichain_coefficient


class Tracer:
    """Summed time per span kind.  Each span wraps one call into the program
    and spans never nest, so a span's self time is its whole duration."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.self_time = defaultdict(float)

    def call(self, name, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.self_time[name] += time.perf_counter() - start


def _int(value: Fraction) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"non-integer count {value}")
    return int(value)


def _expand_both(p, tr: Tracer, counts: Counter):
    """The rule (PsiHat basis) and the oracle (M basis) for one poset."""
    rule = tr.call("mn.mn_expansion", mn_expansion, p)
    oracle = tr.call("surjections.monomial_expansion", monomial_expansion, p)
    counts["mn.calls"] += 1
    counts["mn.psihat_terms"] += len(rule.terms)
    counts["surjections.calls"] += 1
    counts["surjections.surjections"] += sum(_int(c) for c in oracle.terms.values())
    return rule, oracle


def _verify(p, tr: Tracer, counts: Counter):
    """Rule, conversion, oracle and comparison, as `qmn verify` runs them."""
    rule, oracle = _expand_both(p, tr, counts)
    via_rule = tr.call("qsym.psi_to_monomial", psi_to_monomial, rule)
    same = tr.call("qsym.equals", equals, via_rule, oracle)
    counts["qsym.coarsenings"] += sum(2 ** (len(alpha) - 1) for alpha in rule.terms)
    counts["qsym.m_terms"] += len(via_rule.terms)
    return same, rule, oracle


def _combines(tr: Tracer, whole, part1, part2, sign) -> bool:
    """whole == part1 + sign * part2, by the QsymExpr operators."""
    op = QsymExpr.__add__ if sign > 0 else QsymExpr.__sub__
    combined = tr.call("qsym.arithmetic", op, part1, part2)
    return tr.call("qsym.arithmetic", QsymExpr.__eq__, whole, combined)


def _incomparable_pair(p):
    for a in range(p.n):
        for b in range(a + 1, p.n):
            if (a, b) not in p.less and (b, a) not in p.less:
                return a, b
    return None


def _replay_verify(req, tr, counts):
    p = tr.call("posets.load_poset", load_poset, req.argv[-1])
    counts["posets.calls"] += 1
    same, _, oracle = _verify(p, tr, counts)
    errors = [] if same else ["rule and oracle differ"]
    if req.params["family"] == "antichain":
        # closed form for unit-weight antichains: every composition of n,
        # with coefficient n!/prod(alpha_i!)
        if len(oracle.terms) != 2 ** (p.n - 1) or any(
            c != antichain_coefficient(alpha) for alpha, c in oracle.terms.items()
        ):
            errors.append("antichain M coefficients differ from n!/prod(alpha_i!)")
    return errors


def _replay_schur(req, tr, counts, expected):
    n = req.params["n"]
    lams = tr.call("compositions.partitions_of", partitions_of, n)
    table = {}
    for lam in lams:
        p = tr.call("schur.shape_to_poset", shape_to_poset, SkewShape(lam))
        rule = tr.call("mn.mn_expansion", mn_expansion, p)
        counts["mn.calls"] += 1
        counts["mn.psihat_terms"] += len(rule.terms)
        for mu in lams:
            table[(",".join(map(str, lam)), ",".join(map(str, mu)))] = _int(rule.coefficient(mu))
    return [] if table == expected[n] else [f"schur {n} characters differ from chi_bst"]


def _replay_random_check(req, tr, counts):
    """The posets `qmn random-check` draws, through verify and both rewrites."""
    errors = []
    n_max, seed = req.params["n_max"], req.params["seed"]
    for i in range(req.params["count"]):
        # random-check's own stream: poset i has 1 + i % n_max elements
        p = tr.call("posets.random_poset", random_poset, 1 + i % n_max, Fraction(1, 2),
                    seed * 10**6 + i)
        counts["posets.calls"] += 1
        same, rule, oracle = _verify(p, tr, counts)
        if not same:
            errors.append(f"poset {i}: rule and oracle differ")
        pair = _incomparable_pair(p)
        if pair is not None:
            p1, p2 = tr.call("rewrites.add_edge_pair", add_edge_pair, p, *pair)
            counts["rewrites.calls"] += 1
            r1, o1 = _expand_both(p1, tr, counts)
            r2, o2 = _expand_both(p2, tr, counts)
            if not (_combines(tr, oracle, o1, o2, 1) and _combines(tr, rule, r1, r2, 1)):
                errors.append(f"poset {i}: edge-addition identity fails")
        vertex = next((x for x in range(p.n) if p.d[x] >= 2), None)
        if vertex is not None:
            p1, p2 = tr.call("rewrites.split_weight", split_weight, p, vertex, 1,
                             p.d[vertex] - 1)
            counts["rewrites.calls"] += 1
            r1, o1 = _expand_both(p1, tr, counts)
            r2, o2 = _expand_both(p2, tr, counts)
            if not (_combines(tr, oracle, o1, o2, -1) and _combines(tr, rule, r1, r2, -1)):
                errors.append(f"poset {i}: weight-splitting identity fails")
    return errors


def _replay_identities(req, tr, counts):
    d = req.params["d"]
    total = tr.call("identities.probabilistic_sum", identities.probabilistic_sum, d)
    q_total = tr.call("identities.q_probabilistic_sum", identities.q_probabilistic_sum, d)
    lhs, rhs = tr.call("identities.linext_identity_check", identities.linext_identity_check, d)
    freqs = tr.call("identities.staircase_monte_carlo", identities.staircase_monte_carlo, d,
                    req.params["samples"], req.params["seed"])
    counts["identities.calls"] += 1
    errors = []
    if total != 1 or q_total.coeffs != (1,):
        errors.append(f"identities {d}: sum {total}, q-sum {q_total.coeffs}")
    if not lhs == rhs == math.factorial(sum(d)):
        errors.append(f"identities {d}: linext {lhs} vs {rhs}")
    if sum(freqs.values()) != 1:
        errors.append(f"identities {d}: Monte Carlo frequencies do not sum to 1")
    return errors


def replay(requests, tracer: Tracer, expected_tables):
    """Run every request in process; returns (wall seconds, counts, errors)."""
    counts = Counter()
    errors = []
    start = time.perf_counter()
    for i, req in enumerate(requests):
        try:
            if req.kind == "verify":
                errs = _replay_verify(req, tracer, counts)
            elif req.kind == "schur":
                errs = _replay_schur(req, tracer, counts, expected_tables)
            elif req.kind == "random-check":
                errs = _replay_random_check(req, tracer, counts)
            else:
                errs = _replay_identities(req, tracer, counts)
        except Exception as exc:  # a failing request is counted, the run goes on
            errs = [f"{type(exc).__name__}: {exc}"]
        if errs:
            errors.append(f"request {i} ({' '.join(req.argv)}): {'; '.join(errs)}")
    return time.perf_counter() - start, counts, errors

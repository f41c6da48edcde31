"""The inputs of the property suites, each built once, against the former
code that built them on every use.

The reference functions below are the former bodies of `checks._all_cfs`
(a generator that enumerated every order again for each suite), of
`checks._random_candidate` (a new chain for every draw) and of the sums in
`checks._brute_force_dioph` (one generator expression per sum).
"""

import random
from itertools import product
from math import lcm

import pytest

from qhpp import checks
from qhpp.hjcf import HjCf, enumerate_cfs_of_order
from qhpp.obstruction import DiophProblem, Regime
from qhpp.surface import candidate_invariants

# ---------------------------------------------------------------------------
# the former code
# ---------------------------------------------------------------------------


def reference_all_cfs(q_max: int):
    for q in range(2, q_max + 1):
        yield from enumerate_cfs_of_order(q)


def reference_random_candidate(rng: random.Random):
    cfs = []
    for _ in range(rng.randint(1, 4)):
        l = rng.randint(1, 4)
        cfs.append(HjCf([rng.randint(2, 5) for _ in range(l)]))
    return candidate_invariants(cfs)


def reference_integer_grid(problem: DiophProblem) -> list[tuple[int, ...]]:
    den = lcm(
        problem.target.denominator,
        *(c.denominator for c in problem.coeffs),
        *(exact.denominator for _, exact in problem.group_constraints),
    )
    coeffs = [int(c * den) for c in problem.coeffs]
    target = int(problem.target * den)
    groups = [(idx, int(exact * den)) for idx, exact in problem.group_constraints]
    quads = None
    if problem.quad_coeffs is not None:
        qden = lcm(
            problem.quad_bound.denominator,
            *(c.denominator for c in problem.quad_coeffs),
        )
        quads = [int(c * qden) for c in problem.quad_coeffs]
        quad_bound = int(problem.quad_bound * qden)
    out = []
    for vec in product(*(range(target // a + 1) for a in coeffs)):
        if sum(a * x for a, x in zip(coeffs, vec)) != target:
            continue
        if any(sum(coeffs[i] * vec[i] for i in idx) != exact for idx, exact in groups):
            continue
        if quads is not None and sum(b * x * x for b, x in zip(quads, vec)) > quad_bound:
            continue
        out.append(vec)
    return out


# ---------------------------------------------------------------------------
# the chain corpus
# ---------------------------------------------------------------------------


def test_corpus_is_the_per_order_generator():
    checks._all_cfs.cache_clear()
    corpus = checks._all_cfs(200)
    assert type(corpus) is tuple and len(corpus) == 6_495
    assert [cf.entries for cf in corpus] == [cf.entries for cf in reference_all_cfs(200)]
    assert checks._all_cfs(200) is corpus
    # memoised for one q_max
    assert checks._all_cfs(80) == tuple(reference_all_cfs(80))
    assert checks._all_cfs(200) is not corpus
    checks._all_cfs.cache_clear()


def test_run_all_checks_enumerates_each_order_once_and_releases_the_corpus(monkeypatch):
    checks._all_cfs.cache_clear()
    orders = []
    real = checks.enumerate_cfs_of_order

    def record(q):
        orders.append(q)
        return real(q)

    monkeypatch.setattr(checks, "enumerate_cfs_of_order", record)
    # wrappers in place of the suites, as a tracer installs them; each notes
    # whether the corpus is held when it starts and when it ends
    held = []

    def wrap(fn):
        def wrapper():
            before = checks._all_cfs.cache_info().currsize
            result = fn()
            held.append((before, checks._all_cfs.cache_info().currsize))
            return result

        return wrapper

    monkeypatch.setattr(checks, "ALL_CHECKS", [wrap(fn) for fn in checks.ALL_CHECKS])
    results = checks.run_all_checks()
    assert orders == list(range(2, 201))
    assert checks._all_cfs.cache_info().currsize == 0
    assert held == [(0, 1)] + [(1, 1)] * 5 + [(0, 0)] * 5
    assert all(r.ok for r in results)
    assert [r.detail for r in results[:6]] == [
        "6495 chains, orders 2..200",
        "4596 chains, 10000 random pairs",
        "6495 chains, orders 2..200",
        "6495 chains, orders 2..200",
        "orders 2..200",
        "orders 2..200",
    ]


# ---------------------------------------------------------------------------
# the random candidates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "suite", [checks.check_esq_identity, checks.check_prop_int_inequalities, checks.check_reversal_invariance]
)
def test_random_candidates_match_the_former_draws(monkeypatch, suite):
    # every draw the suite makes with its own seed (2024, 2025 or 2026)
    real = checks._random_candidate
    draws = 0

    def compare(rng):
        nonlocal draws
        twin = random.Random()
        twin.setstate(rng.getstate())
        want = reference_random_candidate(twin)
        got = real(rng)
        assert got == want
        assert rng.getstate() == twin.getstate()
        draws += 1
        return got

    monkeypatch.setattr(checks, "_random_candidate", compare)
    checks._random_chain.cache_clear()
    assert suite().ok
    assert draws == {"check_esq_identity": 10_000, "check_prop_int_inequalities": 2_000}.get(
        suite.__name__, 500
    )
    # one chain per distinct draw
    memo = checks._random_chain.cache_info()
    assert memo.misses == memo.currsize <= 4 + 16 + 64 + 256


def test_regime_is_drawn_from_the_same_sequence():
    a, b = random.Random(2024), random.Random(2024)
    for _ in range(1_000):
        assert a.choice(checks._REGIMES) is b.choice(list(Regime))
    assert a.getstate() == b.getstate()


# ---------------------------------------------------------------------------
# the grid oracle
# ---------------------------------------------------------------------------


def test_grid_oracle_matches_the_generator_sums(monkeypatch):
    # the 5 recorded instances and the 1,000 seeded ones of check_dioph_oracle
    problems = []
    real = checks.solve_dioph

    def record(prob):
        problems.append(prob)
        return real(prob)

    monkeypatch.setattr(checks, "solve_dioph", record)
    assert checks.check_dioph_oracle().ok
    assert len(problems) == 1_005
    for prob in problems:
        assert checks._brute_force_dioph(prob) == reference_integer_grid(prob), prob

"""The inputs of the property suites, each built once, against the former
code that built them on every use.

The reference functions below are the former bodies of `checks._all_cfs`
(a generator that enumerated every order again for each suite), of
`checks._random_candidate` (a new chain for every draw) and of the sums in
`checks._brute_force_dioph` (one generator expression per sum).  The five
`former_check_*` functions are the random suites as they drew through the
`random.Random` methods (`randint`, `randrange`, `choice`, `sample`); they
are verbatim but for their names, their docstrings and the name of
`reference_random_candidate`, which draws as the former
`checks._random_candidate` did.
"""

import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from qhpp import checks
from qhpp.checks import (
    REFERENCE_DIOPH_INSTANCES,
    _REGIMES,
    CheckResult,
    _all_cfs,
    _brute_force_dioph,
    _diagonal_esq_bound,
    _relaxed_ek_bound,
    _uv_chain_failures,
    _uv_holds,
)
from qhpp.hjcf import HjCf, enumerate_cfs_of_order
from qhpp.obstruction import (
    CurveClass,
    DiophProblem,
    Incidence,
    Regime,
    degree_sum,
    ek_formula,
    esq_formula,
    esq_two_component,
    solve_dioph,
)
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


def former_check_uv_inequalities(q_max: int = 200, n_random: int = 10_000, seed: int = 2023) -> CheckResult:
    bad = []
    cfs = [cf for cf in _all_cfs(q_max) if cf.l >= 5]
    for cf in cfs:
        bad = _uv_chain_failures(cf)
        if bad:
            break
    rng = random.Random(seed)
    for _ in range(n_random):
        cf = rng.choice(cfs)
        support = rng.sample(range(1, cf.l + 1), k=min(cf.l, rng.randint(1, 4)))
        z = {j: rng.randint(0, 4) for j in support}
        if not _uv_holds(cf, z):
            bad.append(f"{cf}: random z {z}")
            break
    return CheckResult(
        "uv_inequalities",
        not bad,
        bad[0] if bad else f"{len(cfs)} chains, {n_random} random pairs",
    )


def former_check_esq_identity(n_random: int = 10_000, seed: int = 2024) -> CheckResult:
    rng = random.Random(seed)
    for i in range(n_random):
        cand = reference_random_candidate(rng)
        hits: dict[tuple[int, int], int] = {}
        for p, s in enumerate(cand.sings):
            for j in rng.sample(range(1, s.l + 1), k=min(s.l, rng.randint(0, 2))):
                hits[(p, j)] = rng.randint(1, 3)
        inc = Incidence.from_hits(cand, hits)
        curve = CurveClass(0, cand, inc, rng.choice(_REGIMES))
        if esq_formula(curve) != esq_two_component(curve):
            return CheckResult("esq_identity", False, f"case {i}: {hits}")
    return CheckResult("esq_identity", True, f"{n_random} random incidences")


def former_check_prop_int_inequalities(n_random: int = 2_000, seed: int = 2025) -> CheckResult:
    rng = random.Random(seed)
    for i in range(n_random):
        cand = reference_random_candidate(rng)
        hits = {}
        for p, s in enumerate(cand.sings):
            for j in range(1, s.l + 1):
                if rng.random() < 0.5:
                    hits[(p, j)] = rng.randint(0, 3)
        inc = Incidence.from_hits(cand, hits)
        curve = CurveClass(0, cand, inc)
        if ek_formula(curve) > _relaxed_ek_bound(curve):
            return CheckResult("prop_int_inequalities", False, f"ek case {i}")
        if esq_formula(curve) > _diagonal_esq_bound(curve):
            return CheckResult("prop_int_inequalities", False, f"esq case {i}")
        double = CurveClass(0, cand, Incidence(tuple(tuple(2 * x for x in row) for row in inc.rows)))
        if degree_sum(double) != 2 * degree_sum(curve):
            return CheckResult("prop_int_inequalities", False, f"linearity case {i}")
    return CheckResult("prop_int_inequalities", True, f"{n_random} random curves")


def former_check_reversal_invariance(n_random: int = 500, seed: int = 2026) -> CheckResult:
    rng = random.Random(seed)
    for i in range(n_random):
        cand = reference_random_candidate(rng)
        cfs = [s.cf for s in cand.sings]
        k = rng.randrange(len(cfs))
        flipped = list(cfs)
        flipped[k] = flipped[k].reverse()
        other = candidate_invariants(flipped)
        if (other.ks2, other.D, other.e_orb, other.L) != (
            cand.ks2,
            cand.D,
            cand.e_orb,
            cand.L,
        ):
            return CheckResult("reversal_invariance", False, f"case {i}")
        bumped = list(cfs)
        bumped[k] = HjCf(bumped[k].entries + (2,))
        grown = candidate_invariants(bumped)
        if grown.e_orb >= cand.e_orb:
            return CheckResult("reversal_invariance", False, f"monotonicity case {i}")
    return CheckResult("reversal_invariance", True, f"{n_random} random candidates")


def former_check_dioph_oracle(n_random: int = 1_000, seed: int = 2027) -> CheckResult:
    rng = random.Random(seed)
    for k, prob in enumerate(REFERENCE_DIOPH_INSTANCES):
        if solve_dioph(prob) != _brute_force_dioph(prob):
            return CheckResult("dioph_oracle", False, f"recorded instance {k}")
    for i in range(n_random):
        n = rng.randint(1, 4)
        coeffs = tuple(
            Fraction(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(n)
        )
        # keep the brute-force box small: at most ~20 values per variable
        target = Fraction(rng.randint(0, 12), rng.randint(1, 4))
        while any(target / c > 24 for c in coeffs):
            target /= 2
        groups = ()
        if n >= 2 and rng.random() < 0.3:
            groups = (((0, 1), coeffs[0] * rng.randint(0, 3)),)
        quad = None
        qb = None
        if rng.random() < 0.3:
            quad = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n))
            qb = Fraction(rng.randint(0, 40), rng.randint(1, 4))
        prob = DiophProblem(coeffs, target, groups, quad, qb)
        if solve_dioph(prob) != sorted(_brute_force_dioph(prob)):
            return CheckResult("dioph_oracle", False, f"random instance {i}")
    return CheckResult("dioph_oracle", True, f"{n_random} random instances")


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
        assert checks._REGIMES[checks._below(a, len(checks._REGIMES))] is b.choice(list(Regime))
    assert a.getstate() == b.getstate()


# ---------------------------------------------------------------------------
# the draws
# ---------------------------------------------------------------------------


def test_below_draws_as_randrange():
    a, b = random.Random(2023), random.Random(2023)
    for n in range(1, 301):
        for _ in range(5):
            assert checks._below(a, n) == b.randrange(n)
            assert a.getstate() == b.getstate()


def test_sample_range_draws_as_sample():
    # n <= 21 takes the pool swap of random.Random.sample, n > 21 its set
    # rejection, which draws again on a repeated index
    a, b = random.Random(2024), random.Random(2024)
    for n in range(1, 61):
        for k in range(min(n, 4) + 1):
            for _ in range(5):
                assert checks._sample_range(a, n, k) == b.sample(range(1, n + 1), k)
                assert a.getstate() == b.getstate()


@pytest.mark.parametrize(
    "suite,former",
    [
        (checks.check_uv_inequalities, former_check_uv_inequalities),
        (checks.check_esq_identity, former_check_esq_identity),
        (checks.check_prop_int_inequalities, former_check_prop_int_inequalities),
        (checks.check_reversal_invariance, former_check_reversal_invariance),
        (checks.check_dioph_oracle, former_check_dioph_oracle),
    ],
    ids=lambda fn: fn.__name__,
)
def test_random_suites_end_in_the_former_generator_state(monkeypatch, suite, former):
    # a result can hide a changed draw; the generator's final state cannot
    made = []

    class Recording(random.Random):
        def __init__(self, seed=None):
            super().__init__(seed)
            made.append((seed, self))

    # checks.random is the random module, so the former bodies record too
    monkeypatch.setattr(checks.random, "Random", Recording)
    got = suite()
    want = former()
    monkeypatch.undo()
    assert got == want and got.ok
    (seed, rng), (former_seed, former_rng) = made
    assert seed == former_seed
    assert rng.getstate() == former_rng.getstate()
    checks._all_cfs.cache_clear()


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

"""The inputs of the property suites, each built once, against the former
code that built them on every use (the oracles of ``tests/oracles.py``)."""

import random

import pytest

from qhpp import checks
from qhpp.obstruction import Regime
from tests import oracles

# ---------------------------------------------------------------------------
# the chain corpus
# ---------------------------------------------------------------------------


def test_corpus_is_the_per_order_generator():
    checks._all_cfs.cache_clear()
    corpus = checks._all_cfs(200)
    assert type(corpus) is tuple and len(corpus) == 6_495
    assert [cf.entries for cf in corpus] == [cf.entries for cf in oracles.all_cfs(200)]
    assert checks._all_cfs(200) is corpus
    # memoised for one q_max
    assert checks._all_cfs(80) == tuple(oracles.all_cfs(80))
    assert checks._all_cfs(200) is not corpus
    checks._all_cfs.cache_clear()


def test_run_all_checks_enumerates_each_order_once_and_releases_the_corpus(monkeypatch):
    checks._all_cfs.cache_clear()
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
    with oracles.recording(checks, "enumerate_cfs_of_order") as calls:
        results = checks.run_all_checks()
    assert [args[0] for args, _ in calls] == list(range(2, 201))
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
        want = oracles.random_candidate(twin)
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
        (checks.check_uv_inequalities, oracles.former_check_uv_inequalities),
        (checks.check_esq_identity, oracles.former_check_esq_identity),
        (checks.check_prop_int_inequalities, oracles.former_check_prop_int_inequalities),
        (checks.check_reversal_invariance, oracles.former_check_reversal_invariance),
        (checks.check_dioph_oracle, oracles.former_check_dioph_oracle),
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

    # checks.random is the random module, so the former bodies in
    # tests/oracles.py record too
    monkeypatch.setattr(checks.random, "Random", Recording)
    got = suite()
    want = former()
    monkeypatch.undo()
    assert got == want and got.ok
    (seed, rng), (former_seed, former_rng) = made
    assert seed == former_seed
    assert rng.getstate() == former_rng.getstate()
    checks._all_cfs.cache_clear()

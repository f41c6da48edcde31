"""Singularity and candidate invariant tests."""

import json
import random
from fractions import Fraction
from math import gcd

import pytest

from qhpp.checks import _random_candidate
from qhpp.cli import main
from qhpp.hjcf import HjCf
from qhpp.ratio import format_rational, is_positive_square, parse_rational, rational_sqrt
from qhpp.fixtures import load_fixtures
from qhpp.surface import (
    GRAM_DET_DIGIT_LIMIT,
    GRAM_SIZE_LIMIT,
    BmyStatus,
    GramConfig,
    bmy_status,
    candidate_invariants,
    candidate_to_dict,
    dp_data,
    gram_determinant,
)
from tests import oracles

# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------


def test_rational_round_trip():
    for text in ["134/133", "-17/231", "5", "0", "-3"]:
        assert format_rational(parse_rational(text)) == text
    assert format_rational(Fraction(4, 8)) == "1/2"


def test_is_positive_square():
    assert is_positive_square(9216)
    assert is_positive_square(Fraction(9216))
    assert not is_positive_square(Fraction(6, 133))
    assert not is_positive_square(0)
    assert not is_positive_square(-4)
    assert not is_positive_square(260)
    big = 10**40 + 7
    assert is_positive_square(True)
    assert not is_positive_square(False)
    assert is_positive_square(big * big)
    assert not is_positive_square(big * big + 1)
    assert not is_positive_square(big * big - 1)
    assert not is_positive_square(-big * big)
    for n in (1, 4, 9216, big * big, 0, -4, 260, big * big + 1):
        assert is_positive_square(Fraction(n, 1)) == is_positive_square(n)
    assert not is_positive_square(Fraction(big * big, 4))


def test_is_positive_square_matches_the_isqrt_rule():
    # the table of squares mod 64 refuses only non-squares: every small int,
    # the neighbours of fifty 40-digit squares, Fractions whose numerator or
    # denominator alone is a square, and the bools
    rng = random.Random(64)
    big = [rng.randrange(10**39, 10**40) for _ in range(50)]
    halves = [
        Fraction(a, b) for m in range(2, 40) for n in (2, 3, 5, 6, 7, 8, 10, 12)
        for a, b in ((m * m, n), (n, m * m)) if gcd(m, n) == 1
    ]
    corpus = [
        *range(-1_000, 200_001),
        *(k * k + e for k in big for e in (-1, 0, 1)),
        *halves,
        True,
        False,
    ]
    oracles.agree(is_positive_square, oracles.is_positive_square, corpus)
    # the answer is a bool, as reports print it
    assert {type(is_positive_square(x)) for x in corpus} == {bool}


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(36) == 6
    with pytest.raises(ValueError):
        rational_sqrt(Fraction(2))
    with pytest.raises(ValueError):
        rational_sqrt(-1)


# ---------------------------------------------------------------------------
# adjunction data
# ---------------------------------------------------------------------------


def test_dp_data_examples():
    # numerators over q: [7] has coefficient 5/7 and Dp.K = 25/7
    d7 = dp_data(HjCf([7]))
    assert (d7.q, d7.coeff_nums, d7.dp_dot_k_num) == (7, (5,), 25)

    for n in (2, 4, 6, 9):
        dn = dp_data(HjCf([2] * n))
        assert all(c == 0 for c in dn.coeff_nums)
        assert dn.dp_dot_k_num == 0

    d32 = dp_data(HjCf([3, 2]))
    assert (d32.q, d32.coeff_nums) == (5, (2, 1))


def test_dp_data_l1_closed_form():
    for n in range(2, 12):
        d = dp_data(HjCf([n]))
        # Dp^2 = -Dp.K = -(n - 2)^2 / n
        assert Fraction(d.dp_dot_k_num, d.q) == Fraction((n - 2) ** 2, n)


def test_dp_data_rejects_empty():
    with pytest.raises(ValueError):
        dp_data(HjCf())


def test_ep_sq(capsys):
    # -ql/q, printed by cf-info
    cases = {"[3,2]": "-3/5", "[3,2,2,2,2,2,2,2,2]": "-17/19"}
    cases.update({f"[{n}]": f"-1/{n}" for n in range(2, 12)})
    for chain, ep_sq in cases.items():
        assert main(["cf-info", chain, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["ep_sq"] == ep_sq, chain


def test_adjunction_identity_random():
    rng = random.Random(7)
    for _ in range(200):
        cf = HjCf([rng.randint(2, 6) for _ in range(rng.randint(1, 7))])
        d = dp_data(cf)
        assert d.dp_dot_k_num == sum(c * (n - 2) for c, n in zip(d.coeff_nums, cf.entries))
        assert all(0 <= c < d.q for c in d.coeff_nums)


# ---------------------------------------------------------------------------
# candidates
# ---------------------------------------------------------------------------


def test_candidate_row1():
    cand = candidate_invariants(["[2]", "[2,2]", "[7]", "[13]"])
    assert cand.L == 5
    assert cand.ks2 == Fraction(1536, 91)
    assert 3 * cand.e_orb == Fraction(29, 182)
    assert cand.det_r == 546
    assert cand.D == 9216 == 96 * 96
    assert bmy_status(cand) == BmyStatus.VIOLATES_K_AMPLE


def test_candidate_row2():
    cand = candidate_invariants(["[2]", "[2,2]", "[7]", "[3,2,2,2,2,2,2,2,2]"])
    assert cand.ks2 == Fraction(6, 133)
    assert cand.D == 36
    assert cand.L == 13
    assert bmy_status(cand) == BmyStatus.OK_K_AMPLE


def test_candidate_with_closure_index():
    cand = candidate_invariants(["[2]", "[3]", "[5]", "[2,2,2,2,2,2,2,2]"], c=3)
    assert cand.D == 36
    assert cand.d_prime == 4


def test_candidate_e_orb_negative():
    cand = candidate_invariants(["[2]", "[3]", "[7]", "[43]"])
    assert cand.e_orb < 0
    assert bmy_status(cand) == BmyStatus.E_ORB_NEGATIVE


def test_bmy_ok_when_ks2_nonpositive():
    # a long chain pushes K^2 below zero while e_orb stays non-negative
    cand = candidate_invariants(["[2]", "[2,2,2,2,2,2,2,2,2,2]"])
    assert cand.ks2 < 0 <= cand.e_orb
    assert bmy_status(cand) == BmyStatus.OK


def test_candidate_rejects_bad_c():
    with pytest.raises(ValueError):
        candidate_invariants(["[2]", "[3]"], c=0)
    with pytest.raises(ValueError):
        candidate_invariants(["[2]", "[3]", "[5]", "[7]"], c=5)  # 25 ∤ 210
    with pytest.raises(ValueError):
        candidate_invariants(["[2]", "[3]", "[5]", "[2,2,2,2,2,2]"], c=2)  # 4 ∤ 210
    # c^2 = 4 divides det R = 36, so only the coprime guard rejects this
    with pytest.raises(ValueError) as err:
        candidate_invariants(["[4]", "[9]"], c=2)
    assert str(err.value) == "c=2 rejected: pairwise coprime orders (4, 9) force c=1"


def test_candidate_rejects_empty_chain():
    with pytest.raises(ValueError):
        candidate_invariants(["[2]", "[]"])


def test_candidate_reversal_invariance():
    a = candidate_invariants(["[2]", "[2,2]", "[7]", "[5,4]"])
    b = candidate_invariants(["[2]", "[2,2]", "[7]", "[4,5]"])
    assert (a.ks2, a.D, a.e_orb, a.L) == (b.ks2, b.D, b.e_orb, b.L)


def test_candidate_serialization_schema():
    cand = candidate_invariants(["[2]", "[2,2]", "[7]", "[13]"])
    d = candidate_to_dict(cand)
    assert d == {
        "sings": ["[2]", "[2,2]", "[7]", "[13]"],
        "orders": [2, 3, 7, 13],
        "L": 5,
        "ks2": "1536/91",
        "detR": 546,
        "D": "9216",
        "D_square": True,
        "three_e_orb": "29/182",
        "bmy": "VIOLATES_K_AMPLE",
    }
    json.dumps(d)  # must be JSON-ready


def test_d_value_is_an_integer():
    # each Dp.K has a denominator dividing its order q, and q divides det R
    rng = random.Random(2024)
    for _ in range(2_000):
        assert type(_random_candidate(rng).D) is int
    cand = candidate_invariants(["[3]", "[4,3]"])
    assert cand.D == cand.det_r * cand.ks2
    assert not is_positive_square(Fraction(1, 2))


# ---------------------------------------------------------------------------
# Gram determinants
# ---------------------------------------------------------------------------


def test_gram_reference_configurations():
    star = GramConfig((-1, -2, -3, -5), {(0, 1): 1, (0, 2): 1, (0, 3): 1})
    assert gram_determinant(star) == -1
    chain_edges = {(0, 1): 1, (0, 2): 1, (0, 3): 1, (3, 4): 1}
    assert abs(gram_determinant(GramConfig((-1, -2, -3, -2, -3), chain_edges))) == 13
    assert abs(gram_determinant(GramConfig((-1, -2, -3, -3, -2), chain_edges))) == 7
    a4_end = {(0, 1): 1, (0, 2): 1, (0, 3): 1, (3, 4): 1, (4, 5): 1, (5, 6): 1}
    assert abs(gram_determinant(GramConfig((-1, -2, -3, -2, -2, -2, -2), a4_end))) == 19
    a4_mid = {(0, 1): 1, (0, 2): 1, (0, 4): 1, (3, 4): 1, (4, 5): 1, (5, 6): 1}
    assert abs(gram_determinant(GramConfig((-1, -2, -3, -2, -2, -2, -2), a4_mid))) == 31


def test_gram_trivial_cases():
    assert gram_determinant(GramConfig((-2,), {})) == -2
    assert gram_determinant(GramConfig((), {})) == 1
    # singular configuration
    assert gram_determinant(GramConfig((1, 1), {(0, 1): 1})) == 0


def test_gram_matches_cofactor_oracle_random():
    rng = random.Random(11)
    configs = []
    for _ in range(200):
        n = rng.randint(1, 6)
        diag = tuple(rng.randint(-6, -1) for _ in range(n))
        off = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    off[(i, j)] = rng.randint(0, 2)
        configs.append(GramConfig(diag, off))
    oracles.agree(gram_determinant, lambda cfg: oracles.cofactor_det(cfg.matrix()), configs)


def test_gram_rejects_bad_edges():
    with pytest.raises(ValueError):
        gram_determinant(GramConfig((-1, -2), {(0, 2): 1}))
    with pytest.raises(ValueError):
        gram_determinant(GramConfig((-1, -2), {(0, 1): -1}))


def test_gram_refuses_a_hadamard_bound_past_its_digit_limit():
    # a diagonal configuration's Hadamard bound is |det| itself
    limit = GRAM_DET_DIGIT_LIMIT
    inside = GramConfig((-(10**500), 10 ** (limit - 501)), {})
    assert gram_determinant(inside) == -(10 ** (limit - 1))
    # a zero row leaves the bound as it is
    assert gram_determinant(GramConfig((-(10**500), 10 ** (limit - 501), 0), {})) == 0
    message = f"Hadamard bound on \\|det\\| has more than the limit of {limit:,} digits"
    # dense: 100 rows of 100 entries 10^9, each of length 10^10, give 10^1000
    w = 10**9
    dense = GramConfig((-w,) * 100, {(i, j): w for i in range(100) for j in range(i + 1, 100)})
    for past in (GramConfig((-(10**500), 10 ** (limit - 500)), {}), dense):
        with pytest.raises(ValueError, match=message):
            gram_determinant(past)
        with pytest.raises(ValueError, match=message):
            past.matrix()


def test_gram_refuses_a_configuration_past_its_size_limit():
    limit = GRAM_SIZE_LIMIT
    assert GramConfig((-2,) * limit, {}).matrix()[limit - 1][limit - 1] == -2
    past = GramConfig((-2,) * (limit + 1), {})
    message = f"at most {limit} vertices, got {limit + 1}"
    with pytest.raises(ValueError, match=message):
        gram_determinant(past)
    with pytest.raises(ValueError, match=message):
        past.matrix()


def test_gram_reference_configurations_are_inside_the_limits():
    for cfg in load_fixtures()["gram"]:
        det = gram_determinant(
            GramConfig(tuple(cfg["diag"]), {tuple(e): 1 for e in cfg["edges"]})
        )
        assert (det if "det" in cfg else abs(det)) == cfg.get("det", cfg.get("abs_det")), cfg

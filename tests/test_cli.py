"""Command-line interface behavior: outputs, formats, exit codes."""

import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys

import pytest

import qhpp
import qhpp.fixtures as fx
from qhpp import cli, enumeration, surface
from qhpp.cli import _merge_negative_values, _plain_parse, build_parser, main
from tests import oracles

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# cf-info
# ---------------------------------------------------------------------------


def test_cf_info_fraction_form(capsys):
    code, out, _ = run(capsys, "cf-info", "19/9")
    assert code == 0
    assert "cf: [3,2,2,2,2,2,2,2,2]" in out
    assert "q: 19  q1: 9  ql: 17" in out
    assert "dp_coeffs: 9/19 8/19" in out


def test_cf_info_json(capsys):
    code, out, _ = run(capsys, "cf-info", "[3,2]", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["entries"] == [3, 2]
    assert data["q"] == 5 and data["q1"] == 2 and data["ql"] == 3
    assert data["dp_coeffs"] == ["2/5", "1/5"]
    assert data["ep_sq"] == "-3/5"


def test_cf_info_empty_chain(capsys):
    code, out, _ = run(capsys, "cf-info", "[]")
    assert (code, out) == (0, "cf: [] (order 1, no singularity)\n")
    code, out, _ = run(capsys, "cf-info", "[]", "--format", "json")
    assert (code, out) == (0, '{"entries": [],"q": 1}\n')


def test_cf_info_parse_error(capsys):
    code, _, err = run(capsys, "cf-info", "[3,1]")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv", [("cf-info", "1000000/999999"), ("candidate", "--sings", "[2],[3],1000000/999999")]
)
def test_chain_past_its_length_limit_is_input_error(capsys, argv):
    # a fraction (n + 1)/n names a chain of n entries 2
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: the chain of 1000000/999999 has 999,999 entries, more than the limit of 100,000\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        # 40,000 entries 3: the order passes the bound after about 240 of them
        ("candidate", "--sings", "[" + ",".join(["3"] * 40_000) + "],[2]"),
        ("cf-info", "[" + ",".join(["3"] * 300) + "]"),
        # one entry, or a fraction, of 101 digits; 5,000 digits pass CPython's
        # limit on integer conversion, which is never reached
        ("cf-info", "[1" + "0" * 100 + "]"),
        ("cf-info", "[" + "2" * 5_000 + "]"),
        ("cf-info", "1" + "0" * 100 + "/3"),
        ("cf-info", "1" + "0" * 100),
        ("cf-info", "9" * 5_000),
    ],
)
def test_chain_past_its_order_limit_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: a chain's order has more than the limit of 100 digits\n"


def test_q1_past_the_order_limit_is_named(capsys):
    # q1 = 10^100 is not below the order 7; its digits are never converted
    code, out, err = run(capsys, "cf-info", "7/1" + "0" * 100)
    assert (code, out) == (2, "")
    assert err == "error: q1 must satisfy 1 <= q1 < q, got a q1 of more than 100 digits, q=7\n"


@pytest.mark.parametrize(
    ("text", "q"),
    [
        ("[" + "9" * 100 + "]", 10**100 - 1),
        ("9" * 100 + "/2", 10**100 - 1),
        ("0" * 200 + "7/+03", 7),
    ],
)
def test_chain_at_its_order_limit_is_accepted(capsys, text, q):
    code, out, _ = run(capsys, "cf-info", text, "--format", "json")
    assert code == 0 and json.loads(out)["q"] == q


@pytest.mark.parametrize(
    ("argv", "unpadded"),
    [
        (["cf-info", "0" * 5_000 + "19/9"], ["cf-info", "19/9"]),
        (["cf-info", "[" + "0" * 5_000 + "3,2]"], ["cf-info", "[3,2]"]),
        (["cf-info", "19/" + "0" * 5_000 + "9"], ["cf-info", "19/9"]),
        # int() takes a separator after the zeros
        (["cf-info", "0" * 5_000 + "_19/9"], ["cf-info", "19/9"]),
        (["candidate", "--sings", "[2],[" + "0" * 5_000 + "3]"], ["candidate", "--sings", "[2],[3]"]),
        (["dioph", "--coeffs", "1", "--target", "0" * 5_000 + "1"],
         ["dioph", "--coeffs", "1", "--target", "1"]),
        (["dioph", "--coeffs", "1/" + "0" * 5_000 + "2", "--target", "1"],
         ["dioph", "--coeffs", "1/2", "--target", "1"]),
    ],
)
def test_zero_padded_chain_token_answers_as_its_digits(capsys, argv, unpadded):
    # 5,000 leading zeros pass CPython's limit on integer conversion; they
    # count towards no order and no rational's digits, and are dropped
    # before any conversion
    want = run(capsys, *unpadded)
    assert want[0] == 0 and run(capsys, *argv) == want


@pytest.mark.parametrize(
    "argv",
    [
        ["cf-info", "0" * 5_000 + "x"],
        ["dioph", "--coeffs", "1", "--target", "0" * 5_000 + "1x"],
    ],
)
def test_malformed_zero_padded_token_gets_ints_own_text(capsys, argv):
    # not CPython's text on passing its limit of 4,300 digits: the quoted
    # token is cut at 200 characters, as int() cuts it
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: invalid literal for int() with base 10: '" + "0" * 199 + "\n"


def test_bracket_chain_past_its_length_limit_is_input_error(capsys):
    code, out, _ = run(capsys, "cf-info", "[" + ",".join(["2"] * 100_000) + "]")
    assert code == 0 and out.startswith("cf: [2,2,")
    code, out, err = run(capsys, "cf-info", "[" + ",".join(["2"] * 100_001) + "]")
    assert (code, out) == (2, "")
    assert err == "error: a bracket chain has more than the limit of 100,000 entries\n"


# ---------------------------------------------------------------------------
# candidate
# ---------------------------------------------------------------------------


def test_candidate_json_schema(capsys):
    code, out, _ = run(capsys, "candidate", "--sings", "[2],[2,2],[7],[13]")
    assert code == 0
    data = json.loads(out)
    assert data == {
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


def test_candidate_accepts_fraction_chains_and_c(capsys):
    code, out, _ = run(capsys, "candidate", "--sings", "2,3,5,9/8", "--c", "3")
    assert code == 0
    data = json.loads(out)
    assert data["orders"] == [2, 3, 5, 9]
    assert data["D"] == "36"


def test_candidate_bad_c(capsys):
    code, _, err = run(capsys, "candidate", "--sings", "[2],[3],[5],[7]", "--c", "5")
    assert code == 2


@pytest.mark.parametrize("sings", ["[]", "[2],[]", "[2],[],[3]"])
def test_candidate_with_an_empty_chain_is_input_error(capsys, sings):
    # the empty chain parses (cf-info prints it as order 1), but no point has it
    code, out, err = run(capsys, "candidate", "--sings", sings)
    assert (code, out, err) == (2, "", "error: the empty chain [] is not a singularity\n")


@pytest.mark.parametrize("sings", ["[2],,[3]", "[2],", "[2], ,[3]", ",[2]"])
def test_candidate_with_an_empty_token_is_input_error(capsys, sings):
    # an empty token names no point; it is refused, not dropped
    code, out, err = run(capsys, "candidate", "--sings", sings)
    assert (code, out, err) == (2, "", "error: bad --sings token '': expected a chain\n")


@pytest.mark.parametrize("sings", ["", " "])
def test_candidate_with_no_singularity_is_input_error(capsys, sings):
    code, out, err = run(capsys, "candidate", "--sings", sings)
    assert (code, out, err) == (2, "", "error: a candidate needs at least one singularity\n")


def test_candidate_past_its_det_r_digit_limit_is_input_error(capsys):
    # det R is the product of the orders: 10^1000 - 10^990 is inside, 10^1000 past
    limit = surface.DET_R_DIGIT_LIMIT
    orders = [f"[{10**90}]"] * 11
    code, out, _ = run(capsys, "candidate", "--sings", ",".join([*orders, f"[{10**10 - 1}]"]))
    assert code == 0
    assert len(str(json.loads(out)["detR"])) == limit
    message = f"error: det R has more than the limit of {limit:,} digits\n"
    assert run(capsys, "candidate", "--sings", ",".join([*orders, f"[{10**10}]"])) == (
        2, "", message,
    )
    # 45 points of order 10^99 + 1: a det R of 4,456 digits, which CPython
    # would refuse to print
    q = 10**99 + 1
    assert run(capsys, "candidate", "--sings", ",".join([f"{q}/2"] * 45)) == (2, "", message)


# ---------------------------------------------------------------------------
# dioph and gram
# ---------------------------------------------------------------------------


def test_dioph_no_solution(capsys):
    code, out, _ = run(capsys, "dioph", "--coeffs", "5/7,1/19", "--target", "134/133")
    assert code == 0
    assert json.loads(out) == []


def test_dioph_three_solutions(capsys):
    code, out, _ = run(
        capsys, "dioph", "--coeffs", "1/3,1/5,1/33", "--target", "56/55"
    )
    assert code == 0
    assert json.loads(out) == [[0, 1, 27], [1, 1, 16], [2, 1, 5]]


def test_dioph_with_quad_filter(capsys):
    code, out, _ = run(
        capsys,
        "dioph",
        "--coeffs", "1/3,1/5,1/33",
        "--target", "56/55",
        "--quad", "1/3,3/5,4/33",
        "--quad-bound", "111/110",
    )
    assert code == 0
    assert json.loads(out) == []


def test_dioph_quad_bound_without_quad_is_input_error(capsys):
    code, out, err = run(
        capsys, "dioph", "--coeffs", "1/2,1/3", "--target", "1", "--quad-bound", "0"
    )
    assert code == 2 and out == ""
    assert err == "error: quad_bound given without quad_coeffs\n"


def test_dioph_over_budget_is_input_error(capsys):
    # over 4M leaves, few of them solutions: the node budget stops it
    code, out, err = run(
        capsys, "dioph", "--coeffs", "1/300,1/300,1/300,1/301", "--target", "1"
    )
    assert code == 2 and out == ""
    assert err == "error: Diophantine search exceeds its budget of 2,000,000 nodes\n"


def test_dioph_two_variables_past_a_million_leaves(capsys):
    # the plain search has 1,000,002 nodes, inside the budget; the
    # congruence visits two of its leaves
    code, out, err = run(
        capsys, "dioph", "--coeffs", "1/1000000,1/1000001", "--target", "1"
    )
    assert (code, err) == (0, "")
    assert out == "[[0,1000001],[1000000,0]]\n"


def test_dioph_two_variables_past_the_node_budget_is_input_error(capsys):
    # 3,000,002 nodes of the plain search, though only two leaves complete:
    # the budget counts the leaves the congruence skips
    code, out, err = run(
        capsys, "dioph", "--coeffs", "1/3000000,1/3000001", "--target", "1"
    )
    assert code == 2 and out == ""
    assert err == "error: Diophantine search exceeds its budget of 2,000,000 nodes\n"


@pytest.mark.parametrize("den", [300, 200])
def test_dioph_past_its_solution_budget_is_input_error(capsys, den):
    # every leaf is a solution: C(den + 3, 3) of them, 4.6M and 1.37M
    coeffs = ",".join([f"1/{den}"] * 4)
    code, out, err = run(capsys, "dioph", "--coeffs", coeffs, "--target", "1")
    assert code == 2 and out == ""
    assert err == "error: Diophantine problem has more than 100,000 solutions\n"


def test_dioph_solution_budget_counts_kept_solutions(capsys):
    # the same 1.37M leaves as above, of which the quadratic filter keeps few
    code, out, err = run(
        capsys, "dioph", "--coeffs", "1/200,1/200,1/200,1/200", "--target", "1",
        "--quad", "1,1,1,1", "--quad-bound", "10100",
    )
    assert (code, err) == (0, "")
    sols = json.loads(out)
    assert len(sols) == 2_123
    assert all(sum(s) == 200 and sum(x * x for x in s) <= 10100 for s in sols)


@pytest.mark.parametrize(
    ("flags", "text"),
    [
        (("--coeffs", "1/2,1/0", "--target", "1"), "1/0"),
        (("--coeffs", "1/2", "--target", "3/0"), "3/0"),
        (("--coeffs", "1/2", "--target", "1", "--quad", "5/0", "--quad-bound", "1"), "5/0"),
        (("--coeffs", "1/2", "--target", "1", "--quad", "1", "--quad-bound", "-7/0"), "-7/0"),
    ],
)
def test_dioph_zero_denominator_is_input_error(capsys, flags, text):
    code, out, err = run(capsys, "dioph", *flags)
    assert (code, out) == (2, "")
    assert err == f"error: zero denominator in '{text}'\n"


def test_dioph_rational_at_its_digit_limit_is_accepted(capsys):
    # a target of 1,000 digits, and a coefficient whose denominator has 1,000
    target = "1" + "0" * 999
    code, out, err = run(capsys, "dioph", "--coeffs", "1", "--target", target)
    assert (code, out, err) == (0, f"[[{target}]]\n", "")
    code, out, err = run(capsys, "dioph", "--coeffs", f"1/{target}", "--target", "1")
    assert (code, out, err) == (0, f"[[{target}]]\n", "")


@pytest.mark.parametrize(
    "flags",
    [
        ("--coeffs", "1", "--target", "1" + "0" * 1_000),
        ("--coeffs", "1", "--target", "-1" + "0" * 1_000 + "/3"),
        ("--coeffs", "1/1" + "0" * 1_000, "--target", "1"),
        ("--coeffs", "1", "--target", "1" + "0" * 5_000),
        ("--coeffs", "1", "--target", "1", "--quad", "1", "--quad-bound", "1" + "0" * 1_000),
    ],
)
def test_dioph_rational_past_its_digit_limit_is_input_error(capsys, flags):
    # refused before int() converts it, so CPython's own limit of 4,300
    # digits is never met
    code, out, err = run(capsys, "dioph", *flags)
    assert (code, out) == (2, "")
    assert err == "error: a rational has more than the limit of 1,000 digits\n"


def test_gram_star(capsys):
    code, out, _ = run(
        capsys, "gram", "--diag", "-1,-2,-3,-5", "--edges", "1-2,1-3,1-4"
    )
    assert code == 0
    assert out.strip() == "-1"


def test_gram_weighted_edge(capsys):
    code, out, _ = run(capsys, "gram", "--diag", "-2,-2", "--edges", "1-2:2")
    assert code == 0
    assert out.strip() == "0"


def test_gram_past_its_size_limit_is_input_error(capsys):
    # a path of -2 curves has determinant (-1)^n (n + 1)
    limit = surface.GRAM_SIZE_LIMIT
    diag = ",".join(["-2"] * limit)
    edges = ",".join(f"{i}-{i + 1}" for i in range(1, limit))
    det = (-1) ** limit * (limit + 1)
    assert run(capsys, "gram", "--diag", diag, "--edges", edges) == (0, f"{det}\n", "")
    code, out, err = run(capsys, "gram", "--diag", diag + ",-2", "--edges", edges)
    assert (code, out) == (2, "")
    assert err == f"error: a Gram configuration has at most {limit} vertices, got {limit + 1}\n"


def test_gram_past_its_hadamard_digit_limit_is_input_error(capsys):
    # diagonal, so the Hadamard bound is |det|: 10^999 is inside, 10^1000 past
    limit = surface.GRAM_DET_DIGIT_LIMIT
    inside = f"-1{'0' * 500},1{'0' * (limit - 501)}"
    assert run(capsys, "gram", "--diag", inside) == (0, f"-1{'0' * (limit - 1)}\n", "")
    code, out, err = run(capsys, "gram", "--diag", f"-1{'0' * 500},1{'0' * (limit - 500)}")
    assert (code, out) == (2, "")
    assert err == (
        "error: a Gram configuration's Hadamard bound on |det| has more than "
        f"the limit of {limit:,} digits\n"
    )


@pytest.mark.parametrize(
    ("flags", "message"),
    [
        (("--diag", "-1,-2", "--edges", "1-2-3"),
         "bad --edges token '1-2-3': expected i-j or i-j:w in integers"),
        (("--diag", "-1,-2", "--edges", "1-2,2"),
         "bad --edges token '2': expected i-j or i-j:w in integers"),
        (("--diag", "-1,-2", "--edges", "1-x"),
         "bad --edges token '1-x': expected i-j or i-j:w in integers"),
        (("--diag", "-1,-2", "--edges", "1-2:y"),
         "bad --edges token '1-2:y': expected i-j or i-j:w in integers"),
        (("--diag", ""), "bad --diag token '': expected an integer"),
        (("--diag", "-1,,-2"), "bad --diag token '': expected an integer"),
        (("--diag", "-1,a"), "bad --diag token 'a': expected an integer"),
    ],
)
def test_gram_names_a_malformed_token(capsys, flags, message):
    assert run(capsys, "gram", *flags) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    ("edges", "message"),
    [
        ("1-5", "--edges pair 1-5 names vertex 5, which --diag lacks"),
        ("2-1,3-2", "--edges pair 3-2 names vertex 3, which --diag lacks"),
        ("0-1", "--edges pair 0-1 names vertex 0, which --diag lacks"),
        ("1-1", "--edges pair 1-1 joins vertex 1 to itself"),
        ("1-2,2-1:3", "--edges pair 2-1 repeats an earlier pair"),
        ("1-2:2,1-2:2", "--edges pair 1-2 repeats an earlier pair"),
    ],
)
def test_gram_names_an_edge_the_diagonal_cannot_take(capsys, edges, message):
    # the pair as typed, 1-based; before, 1-5 was reported as edge (0,4)
    # and a repeated pair kept its last weight
    assert run(capsys, "gram", "--diag", "-1,-2", "--edges", edges) == (2, "", f"error: {message}\n")
    assert run(capsys, "gram", "--diag", "-1,-2", "--edges", "2-1:3") == (0, "-7\n", "")


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def test_enumerate_matching_pipeline_exits_zero(capsys):
    code, out, _ = run(capsys, "enumerate", "--pipeline", "step5")
    assert code == 0
    assert "matches_fixture: True" in out


def test_enumerate_mismatching_pipeline_exits_one(capsys):
    code, out, _ = run(capsys, "enumerate", "--pipeline", "q20")
    assert code == 1
    assert "mismatches:" in out
    assert "126" in out


def test_enumerate_json_stable(capsys):
    # --threads is still accepted, hidden from --help, and changes nothing
    code1, out1, _ = run(capsys, "enumerate", "--pipeline", "table1", "--format", "json")
    code2, out2, _ = run(
        capsys, "enumerate", "--pipeline", "table1", "--format", "json", "--threads", "2"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["stages"] == [["types", 1092], ["D_square", 24]]
    _, help_out, _ = run(capsys, "enumerate", "--help")
    assert "--cap" in help_out and "--threads" not in help_out


def test_enumerate_csv_json_parity(capsys):
    _, json_out, _ = run(capsys, "enumerate", "--pipeline", "table1", "--format", "json")
    _, csv_out, _ = run(capsys, "enumerate", "--pipeline", "table1", "--format", "csv")
    data = json.loads(json_out)
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    stages = [(r["name"], int(r["value"])) for r in rows if r["section"] == "stage"]
    assert stages == [tuple(s) for s in [(n, c) for n, c in data["stages"]]]
    csv_survivors = [r for r in rows if r["section"] == "survivor"]
    assert len(csv_survivors) == len(data["survivors"])
    for csv_row, js in zip(csv_survivors, data["survivors"]):
        assert csv_row["ks2"] == js["ks2"]
        assert csv_row["D"] == js["D"]
        assert csv_row["sings"] == "+".join(js["sings"])
        assert csv_row["D_square"] == str(js["D_square"]).lower()
    summary = next(r for r in rows if r["section"] == "summary")
    assert summary["value"] == str(data["matches_fixture"]).lower()


def test_enumerate_noA2_cap(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--pipeline", "noA2", "--cap", "60", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["details"]["q_cap"] == 60


def test_enumerate_cap_is_checked(capsys):
    code, out, _ = run(capsys, "enumerate", "--pipeline", "table1", "--cap", "7")
    assert code == 2 and out == ""
    code, out, err = run(capsys, "enumerate", "--pipeline", "noA2", "--cap", "0")
    assert code == 2 and out == ""
    assert "q_cap must be at least 7" in err


@pytest.mark.parametrize(
    ("cap", "message"),
    [
        (3, "q_cap must be at least 7"),
        (enumeration.NOA2_CAP_CEILING + 1, "q_cap must be at most 12,000, got 12,001"),
    ],
)
@pytest.mark.parametrize("argv", [("enumerate", "--pipeline", "noA2"), ("verify", "--all")])
def test_noA2_cap_out_of_range_is_input_error_before_any_output(
    capsys, monkeypatch, argv, cap, message
):
    def no_scan(q):
        raise AssertionError("the noA2 scan started")

    monkeypatch.setattr(enumeration, "_dual_pairs", no_scan)
    code, out, err = run(capsys, *argv, "--cap", str(cap))
    assert (code, out, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# reference tables given through the environment
# ---------------------------------------------------------------------------


def test_missing_fixture_file_is_input_error(capsys, tables):
    code, out, err = run(capsys, "enumerate", "--pipeline", "step5")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(tables.path) in err


@pytest.mark.parametrize(
    ("drop", "first_missing"), [(None, "table1"), ("noA2_examples", "noA2_examples")]
)
def test_fixture_file_without_a_table_is_input_error(capsys, tables, drop, first_missing):
    data = {}
    if drop:
        data = tables.bundled()
        del data[drop]
    tables.write(data)
    code, out, err = run(capsys, "enumerate", "--pipeline", "step5")
    assert code == 2 and out == ""
    assert err == f"error: {tables.path}: reference tables lack the key {first_missing!r}\n"


@pytest.mark.parametrize(
    ("table", "value", "message"),
    [
        ("table1", 5, "table1 must be a JSON object, got number"),
        ("coeff_tables", [], "coeff_tables must be a JSON object, got array"),
        ("gram", 5, "gram must be a JSON array, got number"),
        ("l11_cases", 5, "l11_cases must be a JSON array, got number"),
        ("noA2_examples", 5, "noA2_examples must be a JSON array, got number"),
        ("step6", {}, "reference tables lack the key 'step6.rules'"),
        ("q20", {}, "reference tables lack the key 'q20.stage_counts'"),
        ("gram", [{"name": "x", "diag": [-1], "edges": []}],
         "gram[0] must give exactly one of det and abs_det"),
        ("lemma24", "garbage", "lemma24 must be a JSON object, got string"),
    ],
)
def test_fixture_table_of_the_wrong_shape_is_input_error(capsys, tables, table, value, message):
    tables.edit((table,), value)
    code, out, err = run(capsys, "verify", "--all")
    assert code == 2 and out == ""
    assert err == f"error: {tables.path}: {message}\n"


@pytest.mark.parametrize(
    ("path", "value", "message"),
    [
        (("table1", "rows", 0), 5, "table1.rows[0] must be a JSON object, got number"),
        (("gram", 0), 5, "gram[0] must be a JSON object, got number"),
        (("noA2_examples", 0), 5, "noA2_examples[0] must be a JSON object, got number"),
        (("step6", "case24"), {}, "reference tables lack the key 'step6.case24.L'"),
        (("l11_cases", 0), {}, "reference tables lack the key 'l11_cases[0].case'"),
        (("step5", "sub_cases", 0), {}, "reference tables lack the key 'step5.sub_cases[0].p3'"),
        (("coeff_tables", "l11_case1", "coeffs", 0, 0), "1/0",
         "coeff_tables.l11_case1.coeffs[0][0] is not a rational: zero denominator in '1/0'"),
        (("coeff_tables", "l11_case1", "coeffs", 0, 0), "x",
         "coeff_tables.l11_case1.coeffs[0][0] is not a rational: "
         "invalid literal for int() with base 10: 'x'"),
        (("coeff_tables", "l11_case3", "quad", 1, 0), "2/0",
         "coeff_tables.l11_case3.quad[1][0] is not a rational: zero denominator in '2/0'"),
        (("gram", 0, "det"), "-1", "gram[0].det must be a JSON integer, got string"),
        (("gram", 1, "abs_det"), 1.5, "gram[1].abs_det must be a JSON integer, got number"),
        (("gram", 1, "det"), 13, "gram[1] must give exactly one of det and abs_det"),
        (("lemma24", "target"), "1/0",
         "lemma24.target is not a rational: zero denominator in '1/0'"),
    ],
)
def test_nested_fixture_value_of_the_wrong_shape_is_input_error(
    capsys, tables, path, value, message
):
    tables.edit(path, value)
    code, out, err = run(capsys, "verify", "--all")
    assert code == 2 and out == ""
    assert err == f"error: {tables.path}: {message}\n"


@pytest.mark.parametrize(
    ("index", "key", "value", "line"),
    [
        (0, "det", -2, "MISMATCH gram star_2_3_5: det computed -1, fixture -2"),
        (1, "abs_det", 14, "MISMATCH gram order5_pair_hit_minus2: abs_det computed 13, fixture 14"),
    ],
)
def test_gram_mismatch_names_both_sides(capsys, tables, index, key, value, line):
    tables.edit(("gram", index, key), value)
    code, out, _ = run(capsys, "verify", "--all")
    assert code == 1
    assert f"\n{line}\n" in out
    assert "gram determinants" not in out


@pytest.mark.parametrize(
    ("table", "rows", "keep"), [("l11_case1", "coeffs", 0), ("l11_case3", "quad", 1)]
)
def test_coefficient_table_short_of_rows_fails(capsys, tables, table, rows, keep):
    cut = fx._load(None)["coeff_tables"][table][rows][:keep]
    tables.edit(("coeff_tables", table, rows), cut)
    code, out, _ = run(capsys, "verify", "--all")
    assert code == 1
    assert f"FAIL     property coeff_tables: {table}: 4 sings, {keep} {rows} rows\n" in out


@pytest.mark.parametrize(
    ("diag", "message"),
    [
        ([-(10**600), -2, -3, 10**600],
         "gram[0]: a Gram configuration's Hadamard bound on |det| has more than "
         "the limit of 1,000 digits"),
        ([-2] * 101, "gram[0]: a Gram configuration has at most 100 vertices, got 101"),
    ],
    ids=["hadamard", "size"],
)
def test_fixture_gram_past_its_limits_is_input_error_before_any_output(
    capsys, tables, diag, message
):
    tables.edit(("gram", 0, "diag"), diag)
    assert run(capsys, "verify", "--all") == (2, "", f"error: {tables.path}: {message}\n")


@pytest.mark.parametrize(
    ("pipeline", "path", "value", "message"),
    [
        ("l11", ("l11_cases", 0, "row"), 99,
         "l11_cases[0].row names row 99, which q20.rows lacks"),
        ("table1", ("table1", "rows", 0, "sings", 0), "[3,1]",
         "table1.rows[0].sings[0] names no singularity: "
         "chain entries must all be >= 2, got [3, 1]"),
        ("noA2", ("noA2_examples", 0, "cf"), "[1]",
         "noA2_examples[0].cf names no singularity: chain entries must all be >= 2, got [1]"),
        ("step5", ("step5", "sub_cases", 0, "p3"), "[]",
         "step5.sub_cases[0].p3 names no singularity: the chain is empty"),
        ("step6", ("table1", "rows", 23, "no"), 25,
         "step6.case24 names row 24, which table1.rows lacks"),
        ("step5", ("gram", 0, "edges", 0), [0, 99],
         "gram[0].edges[0] names vertex 99, which gram[0].diag lacks"),
        ("step5", ("gram", 0, "edges", 0), [1, 1], "gram[0].edges[0] joins vertex 1 to itself"),
        ("step5", ("gram", 0, "edges"), [[0, 1], [1, 0]],
         "gram[0].edges[1] repeats an earlier pair"),
        ("step5", ("gram", 0, "edges"), [[0, 1], [0, 1]],
         "gram[0].edges[1] repeats an earlier pair"),
    ],
)
def test_fixture_value_naming_something_absent_is_input_error(
    capsys, tables, pipeline, path, value, message
):
    assert fx._load(None)["table1"]["rows"][23]["no"] == 24
    tables.edit(path, value)
    code, out, err = run(capsys, "enumerate", "--pipeline", pipeline)
    assert code == 2 and out == ""
    assert err == f"error: {tables.path}: {message}\n"


@pytest.mark.parametrize(
    ("no", "mismatch", "before"),
    [
        # row 15 violates L where its fixture case has sweep branches
        (15, "step6 case 15: sweep computed L_violation, fixture branches", []),
        # row 1 becomes residual and has no fixture case
        (1, "step6 case 1: no fixture case for this residual row", [
            "step6: rule A computed [2, 3, 4, 6, 8, 9, 11, 12, 13, 17, 19], "
            "fixture [1, 2, 3, 4, 6, 8, 9, 11, 12, 13, 17, 19]",
            "step6: rule residual computed [1, 15, 23, 24], fixture [15, 23, 24]",
        ]),
    ],
)
def test_step6_residual_row_unlike_its_fixture_case_is_a_mismatch(
    capsys, tables, no, mismatch, before
):
    # the computed sweep closes the row either way: it counts as eliminated
    rows = fx._load(None)["table1"]["rows"]
    assert (rows[no - 1]["no"], rows[23]["no"]) == (no, 24)
    tables.edit(("table1", "rows", no - 1, "sings"), rows[23]["sings"])
    code, out, _ = run(capsys, "enumerate", "--pipeline", "step6", "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["mismatches"] == [*before, mismatch]
    residual = report["details"]["rules"]["residual"]
    assert no in residual
    n = len(residual)
    assert report["stages"][-2:] == [["residual", n], ["residual_eliminated", n]]
    assert report["details"][f"case{no}"]["eliminated_by"] == "L_violation"


def test_step6_geometric_branch_without_a_fixture_case_is_not_eliminated(capsys, tables):
    # row 1 given row 15's chains becomes residual with a geometric branch,
    # which no fixture case closes
    rows = fx._load(None)["table1"]["rows"]
    assert (rows[0]["no"], rows[14]["no"]) == (1, 15)
    tables.edit(("table1", "rows", 0, "sings"), rows[14]["sings"])
    code, out, _ = run(capsys, "enumerate", "--pipeline", "step6", "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["mismatches"][-2:] == [
        "step6 case 1: no fixture case for this residual row",
        "step6: only 3 of 4 residual rows eliminated",
    ]
    assert report["stages"][-2:] == [["residual", 4], ["residual_eliminated", 3]]


def test_step6_residual_row_with_a_non_square_d_prime_is_a_mismatch(capsys, tables):
    # row 15 stays residual, but its D' = 456 has no square root for the sweep
    sings = ["[2]", "[3]", "[3,2,2]", "[3,2,2,2]"]
    tables.edit(("table1", "rows", 14, "sings"), sings)
    code, out, err = run(capsys, "enumerate", "--pipeline", "step6", "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out)["mismatches"] == [
        "step6 case 15: D' computed 456, not a positive square",
        "step6: only 2 of 3 residual rows eliminated",
    ]


def test_l11_case_with_a_non_square_d_prime_is_a_mismatch(capsys, tables):
    # q20 row 4 is l11 case 4 (c = 1); its D' = 1484 has no square root for
    # the m bound
    sings = ["[2]", "[3]", "[3,2]", "[3,2,2,3,2,2,3]"]
    tables.edit(("q20", "rows", 3, "sings"), sings)
    code, out, err = run(capsys, "enumerate", "--pipeline", "l11", "--format", "json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["mismatches"] == [
        "l11 case 4: D computed 1484, fixture 16",
        "l11 case 4: D' computed 1484, fixture 16",
        "l11 case 4: D' computed 1484, not a positive square",
        "l11: only 3 of 4 cases eliminated",
    ]
    assert report["survivors"][-1] == {"D": "1484", "D_prime": "1484", "case": 4, "sings": sings}


@pytest.mark.parametrize(
    ("path", "value", "mismatches"),
    [
        # q20 row 4 is l11 case 4; with L = 4 there is no m bound
        (("q20", "rows", 3, "sings"), ["[2]", "[2]", "[3]", "[6]"], [
            "l11 case 4: D computed 576, fixture 16",
            "l11 case 4: D' computed 576, fixture 16",
            "l11 case 4: L computed 4, the m bound needs L > 9",
        ]),
    ],
)
def test_l11_case_it_cannot_evaluate_is_a_mismatch(capsys, tables, path, value, mismatches):
    tables.edit(path, value)
    code, out, err = run(capsys, "enumerate", "--pipeline", "l11", "--format", "json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["mismatches"] == [*mismatches, "l11: only 3 of 4 cases eliminated"]
    assert report["stages"] == [["cases", 4], ["eliminated", 3]]
    assert "eliminated_by" not in report["survivors"][-1]


@pytest.mark.parametrize(
    ("path", "value", "mismatch"),
    [
        # case 4 has m values [1, 2]: the quadratic filter does not apply, and
        # the first rule that closes it is the component equation
        (("l11_cases", 3, "eliminated_by"), "quadratic_filter",
         "l11 case 4: eliminated_by computed no_component_solution, fixture quadratic_filter"),
        (("l11_cases", 3, "eliminated_by"), "no_such_rule",
         "l11 case 4: eliminated_by computed no_component_solution, fixture no_such_rule"),
        (("l11_cases", 0, "agg_coeffs", 0), "1/4",
         "l11 case 1: agg_coeffs computed ['1/3', '3/5'], fixture ['1/4', '3/5']"),
    ],
    ids=["swapped_rule", "unknown_rule", "agg_coeffs"],
)
def test_l11_fixture_rule_and_cells_are_diffed_not_followed(capsys, tables, path, value, mismatch):
    tables.edit(path, value)
    code, out, err = run(capsys, "enumerate", "--pipeline", "l11", "--format", "json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["mismatches"] == [mismatch]
    assert report["stages"] == [["cases", 4], ["eliminated", 4]]
    assert [s["eliminated_by"] for s in report["survivors"]] == [
        "no_linear_solution", "no_positive_m", "quadratic_filter", "no_component_solution",
    ]


def test_l11_case_no_rule_closes_is_a_mismatch(capsys, monkeypatch):
    rules = [r for r in enumeration._L11_RULES if r[0] != "no_component_solution"]
    monkeypatch.setattr(enumeration, "_L11_RULES", tuple(rules))
    code, out, err = run(capsys, "enumerate", "--pipeline", "l11", "--format", "json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["mismatches"] == [
        "l11 case 4: eliminated_by computed None, fixture no_component_solution",
        "l11: only 3 of 4 cases eliminated",
    ]
    assert report["stages"] == [["cases", 4], ["eliminated", 3]]
    # only a closing rule's cells enter the result
    assert report["survivors"][-1] == {
        "case": 4, "sings": ["[2]", "[3]", "[3,2]", "[3,2,2,3,2,2,2]"], "D": "16",
        "D_prime": "16", "m_bound": "2", "m_values": [1, 2], "targets": ["647/645", "649/645"],
    }


@pytest.mark.parametrize(
    ("pipeline", "path", "value", "mismatch"),
    [
        ("table1", ("table1", "rows", 0, "orders"), [2, 3, 7, 14],
         "table1: row 1 orders computed [2, 3, 7, 13], fixture [2, 3, 7, 14]"),
        ("q20", ("q20", "rows", 0, "q"), 10, "q20: row 1 q computed 9, fixture 10"),
        ("small-q", ("small_q", "rows", 0, "q"), 10, "small-q: row 1 q computed 9, fixture 10"),
        ("noA2", ("noA2_examples", 0, "q"), 8, "noA2: example q=8 order computed 7, fixture 8"),
    ],
)
def test_row_orders_are_diffed(capsys, tables, monkeypatch, pipeline, path, value, mismatch):
    argv = ["enumerate", "--pipeline", pipeline, "--format", "json"]
    argv += ["--cap", "60"] if pipeline == "noA2" else []
    tables.edit(path, value)
    code, out, _ = run(capsys, *argv)
    edited = json.loads(out)["mismatches"]
    monkeypatch.delenv(fx.ENV_VAR)
    fx._load.cache_clear()
    _, out, _ = run(capsys, *argv)
    assert code == 1
    assert [m for m in edited if m != mismatch] == json.loads(out)["mismatches"]
    assert mismatch in edited


CORRUPTED = {
    "table1": [
        "table1: row 1 ks2 computed 1536/91, fixture 1/2",
    ],
    "l11": [
        "l11 case 1: D computed 36, fixture 37",
        "l11 case 1: admissible m computed [1], fixture [1, 2]",
    ],
    "step5": [
        "step5 p3=[5]: tally computed 11, fixture 12",
    ],
    "step6": [
        "step6: rule A computed [1, 2, 3, 4, 6, 8, 9, 11, 12, 13, 17, 19], "
        "fixture [1, 2, 3, 4, 6, 8, 9, 11, 12, 13, 17]",
    ],
    "noA2": [
        "noA2: example q=7 D computed 960, fixture 961",
    ],
}


@pytest.mark.parametrize("pipeline", sorted(CORRUPTED))
def test_corrupted_fixture_cells_are_reported(capsys, tables, pipeline):
    data = tables.bundled()
    data["table1"]["rows"][0]["ks2"] = "1/2"
    data["l11_cases"][0]["D"] = "37"
    data["l11_cases"][0]["m_values"] = [1, 2]
    data["step5"]["sub_cases"][0]["tally"] = 12
    data["step6"]["rules"]["A"].remove(19)
    data["noA2_examples"][0]["D"] = "961"
    tables.write(data)
    argv = ["enumerate", "--pipeline", pipeline, "--format", "json"]
    if pipeline == "noA2":
        argv += ["--cap", "60"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["mismatches"] == CORRUPTED[pipeline]


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def test_unknown_pipeline_is_usage_error(capsys):
    code, _, _ = run(capsys, "enumerate", "--pipeline", "nope")
    assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_verify_requires_all_flag(capsys):
    assert main(["verify"]) == 2


def test_verify_has_no_threads_flag(capsys):
    code, out, err = run(capsys, "verify", "--all", "--threads", "2")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --threads 2" in err


# ---------------------------------------------------------------------------
# main in one process, against a fresh interpreter and against argparse
# ---------------------------------------------------------------------------

# every subcommand, text, JSON and CSV output, a mismatch, the negative-value
# merge, usage errors, help text, ValueErrors from a command, and the cases
# only the top-level parser answers: no command, an unknown one, top-level
# help and a leftover argument
REQUESTS = [
    ["cf-info", "19/9"],
    ["cf-info", "[3,2]", "--format", "json"],
    ["candidate", "--sings", "[2],[2,2],[7],[13]"],
    ["enumerate", "--pipeline", "step5"],
    ["enumerate", "--pipeline", "noA2", "--cap", "60", "--format", "json"],
    ["enumerate", "--pipeline", "q20", "--format", "csv"],
    ["dioph", "--coeffs", "1/3,1/5,1/33", "--target", "56/55"],
    ["dioph", "--coeffs", "1/3,1/5,1/33", "--target", "56/55",
     "--quad", "1/3,3/5,4/33", "--quad-bound", "111/110"],
    ["gram", "--diag", "-1,-2,-3,-5", "--edges", "1-2,1-3,1-4"],
    ["candidate"],
    ["enumerate", "--pipeline", "nope"],
    ["verify"],
    ["--help"],
    ["verify", "--help"],
    ["cf-info", "[1]"],
    ["enumerate", "--pipeline", "table1", "--cap", "7"],
    [],
    ["cf-info", "19/9", "extra"],
    ["cf-info", "19/9", "--form", "json"],
    ["cf-info", "19/9", "--format=json"],
    ["cf-info", "--", "19/9"],
    ["-h", "cf-info"],
    ["nope"],
    ["gram", "--diag", "-1,-2", "--edges", "1-2-3"],
    # forms only argparse answers (a value of "--", which argparse drops, a
    # repeated flag, an empty choice, a negative number as a positional), and
    # values joined by "=", which the plain parse answers too
    ["candidate", "--sings=--"],
    ["cf-info", "[3,2]", "--format", "json", "--format", "text"],
    ["enumerate", "--pipeline=step5", "--format="],
    ["cf-info", "-5"],
    ["dioph", "--coeffs=1/3,1/5", "--target", "8/15"],
]


def test_reused_parser_answers_as_a_fresh_interpreter(monkeypatch):
    # help and usage text wrap at the terminal width, which COLUMNS fixes
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(fx.ENV_VAR, raising=False)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qhpp.__file__)))
    fresh = []
    for argv in REQUESTS:
        proc = subprocess.run(
            [sys.executable, "-m", "qhpp.cli", *argv],
            capture_output=True, env=env, check=False,
        )
        fresh.append((proc.returncode, proc.stdout.decode(), proc.stderr.decode()))
    assert {rc for rc, _, _ in fresh} == {0, 1, 2}
    for order in (range(len(REQUESTS)), reversed(range(len(REQUESTS)))):
        for i in order:
            assert _answer(main, REQUESTS[i]) == fresh[i], REQUESTS[i]


def _answer(fn, argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of fn(argv), on new streams, so text
    sent to a stream an earlier call saw is lost."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_one_parse_per_request_answers_as_the_two_level_parse(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(fx.ENV_VAR, raising=False)
    oracles.agree(
        lambda argv: _answer(main, argv), lambda argv: _answer(oracles.argparse_main, argv), REQUESTS
    )


# ---------------------------------------------------------------------------
# the plain parse, with argparse as its oracle
# ---------------------------------------------------------------------------

# values a flag or positional may get: well-formed ones, choices and
# near-choices, and the shapes argparse treats apart
FUZZ_VALUES = [
    "19/9", "[3,2]", "[2],[2,2],[7],[13]", "1/3,1/5,1/33", "56/55", "1-2,1-3",
    "text", "json", "csv", "step5", "noA2", "tabl", "7", "0", " 3 ", "1e3", "x",
    "", "a b", "x=y", "=", "-5", "-1,-2", "-.5", "--", "-", "-h", "--help",
]


def _command_parsers() -> dict:
    """Each command's own parser, read from a new top-level parser's
    subparsers action."""
    (subparsers,) = [action for action in build_parser()._actions if action.dest == "command"]
    return subparsers.choices


def _fuzz_argv(rng: random.Random, parser) -> list[str]:
    """A request to the command's parser, read from its actions: a value for
    each positional and some of the flags, as the next token or after "=",
    then sometimes a token dropped or one inserted: a flag again, an
    abbreviated one, help, "--", an unknown flag or a stray value."""
    out: list[str] = []
    flags = []
    for action in parser._actions:
        flags += action.option_strings
        if rng.random() < 0.05:
            continue
        if not action.option_strings:
            out.append(rng.choice(FUZZ_VALUES))
            continue
        flag = rng.choice(action.option_strings)
        if action.nargs is not None:
            if action.required or rng.random() < 0.05:
                out.append(flag)
            continue
        if not action.required and rng.random() < 0.5:
            continue
        value = rng.choice(action.choices if action.choices and rng.random() < 0.8 else FUZZ_VALUES)
        out += [f"{flag}={value}"] if rng.random() < 0.3 else [flag, value]
    strays = flags + [f[:3] for f in flags if len(f) > 3] + ["--nope", "--nope=1", "-x"]
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        if out and rng.random() < 0.3:
            del out[rng.randrange(len(out))]
        else:
            tok = rng.choice(strays + FUZZ_VALUES)
            out.insert(rng.randrange(len(out) + 1), tok)
    if rng.random() < 0.1:
        rng.shuffle(out)
    return out


def test_plain_parse_answers_as_argparse_wherever_it_answers():
    """Seeded argv for every command: wherever the plain parse returns a
    namespace, argparse returns the same one with nothing left over."""
    rng = random.Random(2525)
    commands = _command_parsers()
    names = sorted(commands)
    answered = 0
    for _ in range(50_000):
        name = rng.choice(names)
        argv = _fuzz_argv(rng, commands[name])
        if rng.random() < 0.5:
            argv = _merge_negative_values(argv)
        args = _plain_parse([name, *argv])
        if args is None:
            continue
        answered += 1
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                expected, extra = commands[name].parse_known_args(argv)
            except SystemExit:
                expected, extra = None, None
        assert extra == [] and vars(expected) == vars(args), (name, argv)
    # both sides of the parse are drawn often
    assert 10_000 < answered < 40_000


# the shapes of the benchmark's single requests, merged as ``main`` merges them
PLAIN_REQUESTS = [
    ["cf-info", "19/9"],
    ["cf-info", "[3,2,2]", "--format", "json"],
    ["candidate", "--sings", "[2],[2,2],[7],[13]"],
    ["candidate", "--sings", "2,3,5,9/8", "--c", "3"],
    ["gram", "--diag", "-1,-2,-3,-5", "--edges", "1-2,1-3,1-4"],
    ["dioph", "--coeffs", "1/3,1/5,1/33", "--target", "56/55"],
    ["dioph", "--coeffs", "1/3,1/5,1/33", "--target", "56/55",
     "--quad", "1/3,3/5,4/33", "--quad-bound", "111/110"],
]


@pytest.mark.parametrize("argv", [*PLAIN_REQUESTS, ["verify", "--all"]])
def test_well_formed_requests_skip_argparse(capsys, monkeypatch, argv):
    argv = _merge_negative_values(argv)
    expected, extra = _command_parsers()[argv[0]].parse_known_args(argv[1:])
    args = _plain_parse(argv)
    assert extra == [] and args is not None and vars(args) == vars(expected)
    expected = run(capsys, *argv)
    # verify exits 1 for the two errata of the reference tables
    assert expected[0] == (1 if argv[0] == "verify" else 0)

    def refuse():
        raise AssertionError("main built or used argparse for a well-formed request")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert run(capsys, *argv) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["candidate", "--sings=--"],
        ["candidate", "--sings", "--"],
        ["verify", "--all=x"],
        ["verify", "--all", "--all"],
        [],
        ["nope"],
        ["--help"],
        ["cf-info", "-h"],
        ["cf-info", "19/9", "--form", "json"],
        ["cf-info", "19/9", "--format", "json", "--format", "text"],
        ["cf-info", "19/9", "--format", "xml"],
        ["cf-info", "-5"],
        ["cf-info"],
        ["cf-info", "19/9", "extra"],
        ["candidate", "--c", "2"],
        ["candidate", "--sings", "[2]", "--c", "two"],
        ["gram", "--diag", "-1,-2"],
    ],
)
def test_plain_parse_leaves_the_rest_to_argparse(argv):
    assert _plain_parse(argv) is None


def test_start_up_leaves_the_unused_stdlib_unloaded():
    """Every command is a fresh interpreter that pays for each module its
    start imports: ``import qhpp.cli`` loads none of ``dataclasses``,
    ``inspect`` and ``csv`` (the csv format imports it when it writes), nor
    ``argparse`` with its ``gettext`` and ``locale`` (help, errors and the
    forms the plain parse declines import it).  It does load ``qhpp.checks``
    and ``qhpp.enumeration``, because the benchmark's tracer
    (``perfbench/spans.py``) reads both from ``sys.modules`` right after it
    imports the CLI, and wraps their registries before any command runs."""
    src = os.path.dirname(os.path.dirname(qhpp.__file__))
    names = ("argparse", "csv", "dataclasses", "gettext", "inspect", "locale",
             "qhpp.checks", "qhpp.enumeration")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import qhpp.cli; "
        f"print(' '.join(m for m in {names!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["qhpp.checks", "qhpp.enumeration"]


def test_benchmark_requests_leave_argparse_unloaded():
    """In a fresh interpreter, ``main`` answers the benchmark's requests (the
    single requests, the six pipelines as JSON and ``verify --all``) without
    importing argparse."""
    src = os.path.dirname(os.path.dirname(qhpp.__file__))
    pipelines = ("table1", "q20", "small-q", "l11", "step5", "step6")
    requests = [
        *PLAIN_REQUESTS,
        *(["enumerate", "--pipeline", p, "--format", "json"] for p in pipelines),
        ["verify", "--all", "--cap", "7"],
    ]
    code = (
        f"import contextlib, io, sys; sys.path.insert(0, {src!r}); import qhpp.cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [qhpp.cli.main(argv) for argv in {requests!r}]\n"
        f"print(codes, 'argparse' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    # q20 and small-q, and so verify, exit 1 for the two errata
    codes = [0] * len(PLAIN_REQUESTS) + [0, 1, 1, 0, 0, 0, 1]
    assert (proc.stdout, proc.stderr) == (f"{codes} False\n", "")

import contextlib
import copy
import csv
import hashlib
import inspect
import io
import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from schubert import classify, cli
from schubert.charclass import RankTwoData, rank_two_chern
from schubert.chow import ChowClass
from schubert.cli import (
    FILTER_COLUMNS,
    MAX_CHI_ARGUMENT,
    MAX_SPLITTING_TYPES_N,
    REPLAY_COLUMNS,
    _final_json_text,
    _filter_rows,
    _print_table,
    _record_shape,
    _replay_rows,
    _write_json_list,
    _write_records_csv,
    _write_records_json,
    main,
)
from schubert.hrr import euler_characteristic

import replay_document


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def from_json_rational(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


# -- scalar commands ---------------------------------------------------------


def test_intersect_examples(capsys):
    assert run(capsys, "intersect", "--k", "1", "--n", "4", "1;1;1;1;1;1")[:2] == (0, "5\n")
    assert run(capsys, "intersect", "--k", "1", "--n", "4", "3;3")[:2] == (0, "1\n")
    assert run(capsys, "intersect", "--k", "1", "--n", "4", "2,1;3")[:2] == (0, "0\n")


def test_intersect_json(capsys):
    code, out, _ = run(capsys, "intersect", "--k", "1", "--n", "4", "--format", "json", "1;1;1;1;1;1")
    assert code == 0
    assert from_json_rational(json.loads(out)) == 5


def test_intersect_malformed_syntax(capsys):
    assert run(capsys, "intersect", "--k", "1", "--n", "4", "2,x;3")[0] == 2
    assert run(capsys, "intersect", "--k", "1", "--n", "4", "1,2")[0] == 2
    assert run(capsys, "intersect", "--k", "1", "--n", "4", "")[0] == 2


def test_intersect_outside_box(capsys):
    assert run(capsys, "intersect", "--k", "1", "--n", "4", "4;3")[0] == 3
    assert run(capsys, "intersect", "--k", "1", "--n", "4", "1,1,1")[0] == 3


def test_intersect_bad_ring(capsys):
    assert run(capsys, "intersect", "--k", "4", "--n", "4", "1")[0] == 2


def test_intersect_ring_size_bound(capsys):
    code, out, err = run(capsys, "intersect", "--k", "0", "--n", "2400", "1200;1200")
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert run(capsys, "intersect", "--k", "0", "--n", "64", "32;32")[:2] == (0, "1\n")


# Refusals whose message once echoed an argument: each argument is far longer
# than the line allowed for its refusal.
UNBOUNDED_INTERSECT_REFUSALS = {
    # k and n each under the 4300-digit int-string limit, their dimension about 8000 digits
    "dimension-too-large": (3, ["--k", str(10**4000), "--n", str(2 * 10**4000), "1"]),
    "k-not-below-n": (2, ["--k", str(2 * 10**4000), "--n", "1", "1"]),
    "parts-not-decreasing": (2, ["--k", "1", "--n", "4", ",".join(["1,2"] * 5000)]),
    "too-many-parts": (3, ["--k", "1", "--n", "4", ",".join(["1"] * 10000)]),
    "part-too-large": (3, ["--k", "1", "--n", "4", str(10**4000)]),
}


@pytest.mark.parametrize("case", sorted(UNBOUNDED_INTERSECT_REFUSALS))
def test_intersect_refusal_prints_no_unbounded_integer(capsys, case):
    exit_code, args = UNBOUNDED_INTERSECT_REFUSALS[case]
    code, out, err = run(capsys, "intersect", *args)
    assert (code, out) == (exit_code, "")
    assert err.count("\n") == 1 and "Traceback" not in err and len(err) < 200


def test_intersect_strips_many_trailing_zeros_quickly(capsys):
    # 60 000 zeros after a 1: a 120 KB argument, under the 128 KB per-argument limit
    start = time.perf_counter()
    assert run(capsys, "intersect", "--k", "1", "--n", "4", "1" + ",0" * 60_000)[:2] == (0, "0\n")
    assert time.perf_counter() - start < 2.0


# One valid argument list per command with int options: each option's value is
# replaced in turn by a long malformed one.
USAGE_ERROR_BASES = {
    "intersect": ["--k", "1", "--n", "4", "1"],
    "chi": ["--e", "0", "--a", "0", "--b", "0", "--twist", "0"],
    "chi-p3": ["--e", "0", "--a", "0", "--twist", "0"],
    "splitting-types": ["--e", "0", "--n", "4"],
}
USAGE_ERROR_CASES = [
    (command, option)
    for command, base in sorted(USAGE_ERROR_BASES.items())
    for option in base
    if option.startswith("--")
] + [("chi", "--format"), ("filter", "unrecognized")]


@pytest.mark.parametrize("fill", ["x", "9"])
@pytest.mark.parametrize("command, option", USAGE_ERROR_CASES)
def test_usage_errors_are_bounded(capsys, command, option, fill):
    value = fill * 100_000
    argv = list(USAGE_ERROR_BASES.get(command, []))
    if option in argv:
        argv[argv.index(option) + 1] = value
    elif option == "--format":
        argv += ["--format", value]
    else:
        argv.append(value)
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and "error: " in err
    assert len(err.encode()) < 1024 and "Traceback" not in err and value not in err


def test_chi_matches_the_general_path(capsys):
    rng = random.Random(1109)
    cases = [
        (rng.randint(-9, 9), rng.randint(-99, 99), rng.randint(-99, 99), rng.randint(-9, 9)) for _ in range(50)
    ]
    cases += itertools.product((-MAX_CHI_ARGUMENT, MAX_CHI_ARGUMENT), repeat=4)
    for e, a, b, t in cases:
        expected = euler_characteristic(rank_two_chern(classify.G14, RankTwoData(e, a, b).twisted(t)))
        argv = ["chi", "--e", str(e), "--a", str(a), "--b", str(b), "--twist", str(t)]
        assert run(capsys, *argv)[:2] == (0, f"{expected}\n")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and from_json_rational(json.loads(out)) == expected


def test_chi_examples(capsys):
    assert run(capsys, "chi", "--e", "-1", "--a", "6", "--b", "6", "--twist", "5")[:2] == (0, "-935\n")
    assert run(capsys, "chi", "--e", "0", "--a", "0", "--b", "0", "--twist", "0")[:2] == (0, "2\n")
    assert run(capsys, "chi", "--e", "0", "--a", "0", "--b", "0", "--twist", "1")[:2] == (0, "20\n")


def test_chi_usage_error(capsys):
    assert run(capsys, "chi", "--e", "x", "--a", "0", "--b", "0")[0] == 2
    assert run(capsys, "chi", "--e", "0")[0] == 2


def test_chi_p3_examples(capsys):
    assert run(capsys, "chi-p3", "--e", "0", "--a", "-4", "--twist", "-1")[:2] == (0, "4\n")
    assert run(capsys, "chi-p3", "--e", "-1", "--a", "-2", "--twist", "-1")[:2] == (0, "1\n")
    assert run(capsys, "chi-p3", "--e", "0", "--a", "0", "--twist", "0")[:2] == (0, "2\n")


CHI_ARGUMENTS = {"chi": ("--e", "--a", "--b", "--twist"), "chi-p3": ("--e", "--a", "--twist")}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("command", sorted(CHI_ARGUMENTS))
def test_chi_arguments_are_bounded(capsys, command, sign):
    names = CHI_ARGUMENTS[command]

    def argv(values):
        return [command, *(x for name, value in zip(names, values) for x in (name, str(value)))]

    code, out, _ = run(capsys, *argv([sign * MAX_CHI_ARGUMENT] * len(names)))
    assert code == 0 and len(out.strip()) < 50
    Fraction(out.strip())
    huge = sign * 10**4289  # 4290 digits: parses as an int, but its chi would not print
    refused = [[huge] * len(names)]
    for i in range(len(names)):
        for value in (sign * (MAX_CHI_ARGUMENT + 1), huge):
            refused.append([value if j == i else 0 for j in range(len(names))])
    for values in refused:
        code, out, err = run(capsys, *argv(values))
        assert (code, out) == (3, "") and err.count("\n") == 1 and "Traceback" not in err
        assert str(MAX_CHI_ARGUMENT) in err


def test_splitting_types(capsys):
    code, out, _ = run(capsys, "splitting-types", "--e", "0", "--n", "4")
    assert code == 0 and out == "(-2,2)\n(-1,1)\n(0,0)\n"
    code, out, _ = run(capsys, "splitting-types", "--e", "-1", "--n", "4", "--format", "json")
    assert code == 0 and json.loads(out) == [{"p": -2, "q": 1}, {"p": -1, "q": 0}]
    code, out, _ = run(capsys, "splitting-types", "--e", "0", "--n", "5")
    assert code == 0 and out == "(-2,2)\n(-1,1)\n(0,0)\n"
    assert run(capsys, "splitting-types", "--e", "0", "--n", "1")[0] == 2


def test_splitting_types_n_is_bounded(capsys):
    n = MAX_SPLITTING_TYPES_N
    code, out, _ = run(capsys, "splitting-types", "--e", "0", "--n", str(n))
    lines = out.splitlines()
    assert code == 0 and len(lines) == n // 2 + 1
    assert lines[0] == f"({-(n // 2)},{n // 2})" and lines[-1] == "(0,0)"
    code, out, err = run(capsys, "splitting-types", "--e", "0", "--n", str(n + 1))
    assert (code, out) == (3, "") and err.count("\n") == 1
    assert str(MAX_SPLITTING_TYPES_N) in err


@pytest.mark.parametrize("sign", [1, -1])
def test_splitting_types_e_is_bounded(capsys, sign):
    e = sign * MAX_SPLITTING_TYPES_N
    code, out, _ = run(capsys, "splitting-types", "--e", str(e), "--n", "4")
    assert code == 0 and len(out.splitlines()) == 3
    code, out, err = run(capsys, "splitting-types", "--e", str(e + sign), "--n", "4")
    assert (code, out) == (3, "") and err.count("\n") == 1
    assert str(MAX_SPLITTING_TYPES_N) in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


# -- filter ---------------------------------------------------------------------


def test_filter_json(capsys):
    code, out, err = run(capsys, "filter", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1458
    surviving = [r for r in rows if r["status"] == "surviving"]
    assert len(surviving) == 9
    pre = [
        r
        for r in rows
        if all(
            any(v["rule"] == rule and v["passed"] for v in r["verdicts"])
            for rule in ("positivity", "schur", "schwarzenberger")
        )
    ]
    assert len(pre) == 10
    (griffiths_row,) = [r for r in rows if r["status"] == "eliminated" and r["detail"] == "griffiths"]
    assert (griffiths_row["e"], griffiths_row["a"], griffiths_row["b"]) == (-1, 6, 6)
    (gv,) = [v for v in griffiths_row["verdicts"] if v["rule"] == "griffiths"]
    assert from_json_rational(gv["witness"]["chi_at_5"]) == -935
    assert "9 survive" in err


def test_filter_csv_matches_json(capsys):
    code, json_out, _ = run(capsys, "filter", "--format", "json")
    assert code == 0
    code, csv_out, _ = run(capsys, "filter", "--format", "csv")
    assert code == 0
    json_rows = json.loads(json_out)
    csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(csv_rows) == len(json_rows)
    for jrow, crow in zip(json_rows, csv_rows):
        assert (str(jrow["e"]), str(jrow["a"]), str(jrow["b"])) == (crow["e"], crow["a"], crow["b"])
        assert jrow["status"] == crow["status"]
        assert jrow["detail"] == crow["detail"]
        for rule in ("positivity", "schur", "schwarzenberger", "griffiths"):
            verdict = next((v for v in jrow["verdicts"] if v["rule"] == rule), None)
            expected = "" if verdict is None else ("pass" if verdict["passed"] else "fail")
            assert crow[rule] == expected


def test_filter_plain_matches_csv(capsys):
    code, plain_out, _ = run(capsys, "filter")
    assert code == 0
    code, csv_out, _ = run(capsys, "filter", "--format", "csv")
    assert code == 0
    plain_lines = plain_out.splitlines()
    csv_rows = list(csv.reader(io.StringIO(csv_out)))
    assert len(plain_lines) == len(csv_rows)
    # plain is the same table, whitespace-aligned
    header = plain_lines[0].split()
    assert header == csv_rows[0]


# One wrong frozen value per part of the step-1 check, with the check that
# names it: the candidate table, the record the Griffiths test removes, and
# its witness chi(E(5)).
GRIFFITHS_CHECK = "chi(E(5)) of the candidates the Griffiths test removes"
ELIMINATED_CHECK = "the number of candidates each filter eliminates"
WRONG_STEP1_VALUES = {
    "STEP1_ELIMINATED": (
        {"positivity": 53, "schur": 936, "schwarzenberger": 460, "griffiths": 0},
        ELIMINATED_CHECK,
    ),
    "STEP1_SURVIVORS": ({0: ((0, 0),), -1: ()}, "the (a, b) by e that pass the integrality filter"),
    "GRIFFITHS_ELIMINATED": (RankTwoData(-1, 0, 1), GRIFFITHS_CHECK),
    "GRIFFITHS_WITNESS": (Fraction(935), GRIFFITHS_CHECK),
}


@pytest.mark.parametrize("name", sorted(WRONG_STEP1_VALUES))
def test_filter_regression_exit_code(capsys, monkeypatch, name):
    # the table is checked before it is written: no format prints a byte of
    # it, and the one stderr line names the check that differs
    wrong, check = WRONG_STEP1_VALUES[name]
    monkeypatch.setattr(classify, name, wrong)
    for fmt in ("plain", "csv", "json"):
        code, out, err = run(capsys, "filter", "--format", fmt)
        assert (code, out) == (4, ""), fmt
        assert err.startswith(f"regression at step1: {check} is ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["filter", "replay"])
def test_a_changed_schur_bound_exits_4_at_step1(capsys, monkeypatch, command):
    # the e = -1 bound a + b <= 13 tightened to a + b <= 12, the strict
    # pairing's reading: the ten integrality survivors stay, but twelve
    # candidates move from the integrality filter to Schur, and the frozen
    # elimination counts refuse the scan before any format writes a byte
    monkeypatch.setattr(classify, "SCHUR_SUM_MAX", {0: 12, -1: 12})
    classify.enumerate_candidates.cache_clear()
    try:
        for fmt in ("plain", "csv", "json"):
            code, out, err = run(capsys, command, "--format", fmt)
            assert (code, out) == (4, ""), fmt
            assert err == (
                f"regression at step1: {ELIMINATED_CHECK} is "
                "{'positivity': 53, 'schur': 948, 'schwarzenberger': 447, 'griffiths': 1}, "
                "expected {'positivity': 53, 'schur': 936, 'schwarzenberger': 459, 'griffiths': 1}\n"
            ), fmt
    finally:
        classify.enumerate_candidates.cache_clear()


def test_filter_byte_identical_across_runs(capsys):
    out1 = run(capsys, "filter", "--format", "json")[1]
    out2 = run(capsys, "filter", "--format", "json")[1]
    assert out1 == out2


# -- replay ------------------------------------------------------------------------


def test_replay_json(capsys):
    code, out, err = run(capsys, "replay", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"step1_table", "step2_results", "step3_table", "step4_results", "final_list"}
    assert len(doc["step1_table"]) == 1458
    assert len(doc["step2_results"]) == 1
    chi_values = [
        from_json_rational(
            next(v for v in row["verdicts"] if v["rule"] == "restricted-sections")["witness"][
                "chi_p3_twist_-1"
            ]
        )
        for row in doc["step3_table"]
    ]
    assert chi_values == [4, 1, 1, 1, 1]
    final = doc["final_list"]
    assert len(final) == 6
    assert [b["kind"] for b in final] == ["split"] * 5 + ["nonsplit"]
    assert [(b["p"], b["q"]) for b in final[:5]] == [(0, 0), (-1, 1), (-2, 2), (-1, 0), (-2, 1)]
    assert (final[5]["e"], final[5]["a"], final[5]["b"]) == (-1, 0, 1)
    assert "6 entries" in err


def test_replay_csv_sections(capsys):
    code, out, _ = run(capsys, "replay", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    sections = {r["section"] for r in rows}
    assert sections == {"step1", "step2", "step3", "step4", "final"}
    assert sum(r["section"] == "final" for r in rows) == 6
    assert sum(r["section"] == "step3" for r in rows) == 5


def test_replay_regression_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(classify, "STEP2_CHI_TWIST_MINUS_2", Fraction(99))
    code, _, err = run(capsys, "replay")
    assert code == 4
    assert "step2" in err


@pytest.mark.parametrize("argv", [("filter", "--format", "csv"), ("replay", "--format", "json")])
def test_a_scan_square_that_clips_the_region_exits_4(capsys, monkeypatch, argv):
    # positivity and Schur leave a, b in [-6, 18] at e = 0: the scan refuses a
    # square that ends at 17 before any record is written
    monkeypatch.setattr(classify, "SCAN_HI", 17)
    classify.enumerate_candidates.cache_clear()
    try:
        code, out, err = run(capsys, *argv)
    finally:
        classify.enumerate_candidates.cache_clear()
    assert (code, out) == (4, "")
    assert err == (
        "regression at scan: the range of a, b that positivity and Schur leave at e = 0, "
        "clipped to the scan square [-6, 17]^2, is (-6, 17), expected (-6, 18)\n"
    )


def test_a_restriction_that_keeps_b_exits_4_from_the_preflight(capsys, monkeypatch):
    # one line of the map mutated, b weighting s(2) in place of s(1,1): the
    # certificate on the basis refuses it before any step reads it
    source = inspect.getsource(classify.restriction_to_p3)
    assert source.count("b * ring.sigma((1, 1))") == 1
    namespace = dict(vars(classify))
    exec(source.replace("b * ring.sigma((1, 1))", "b * ring.sigma((2,))"), namespace)
    monkeypatch.setattr(classify, "restriction_to_p3", namespace["restriction_to_p3"])
    code, out, err = run(capsys, "replay", "--format", "json")
    assert (code, out) == (4, "")
    assert err == "regression at preflight: restriction to P^3 of (0, 0, 1) is (0, 1), expected (0, 0)\n"


# One wrong frozen value per table of the replay: (the wrong value, the step
# that checks it, the value the engine computes, the frozen value as compared)
WRONG_FROZEN_VALUES = {
    "STEP1_ELIMINATED": (
        WRONG_STEP1_VALUES["STEP1_ELIMINATED"][0],
        "step1",
        {"positivity": 53, "schur": 936, "schwarzenberger": 459, "griffiths": 1},
        {"positivity": 53, "schur": 936, "schwarzenberger": 460, "griffiths": 0},
    ),
    "STEP1_SURVIVORS": (
        WRONG_STEP1_VALUES["STEP1_SURVIVORS"][0],
        "step1",
        {0: [(-4, -4), (-4, 12), (-1, -1), (-1, 3), (0, 0)], -1: [(-2, -2), (-2, 7), (0, 0), (0, 1), (6, 6)]},
        {0: [(0, 0)], -1: []},
    ),
    "GRIFFITHS_WITNESS": (
        WRONG_STEP1_VALUES["GRIFFITHS_WITNESS"][0],
        "step1",
        {RankTwoData(-1, 6, 6): Fraction(-935)},
        {RankTwoData(-1, 6, 6): Fraction(935)},
    ),
    "STEP2_CHI_TWIST_MINUS_2": (Fraction(99), "step2", Fraction(1), Fraction(99)),
    "STEP3_TABLE": (
        ((RankTwoData(0, -4, 12), Fraction(5)), *classify.STEP3_TABLE[1:]),
        "step3",
        Fraction(4),
        Fraction(5),
    ),
    "STEP4_TABLE": (
        ((RankTwoData(0, 0, 0), Fraction(3)), *classify.STEP4_TABLE[1:]),
        "step4",
        Fraction(2),
        Fraction(3),
    ),
    "NONSPLIT_DATA": (
        RankTwoData(-1, 2, 2),
        "final",
        [RankTwoData(-1, 0, 1)],
        [RankTwoData(-1, 2, 2)],
    ),
}


@pytest.mark.parametrize("name", sorted(WRONG_FROZEN_VALUES))
def test_a_wrong_frozen_value_reports_what_was_computed_and_what_was_frozen(capsys, monkeypatch, name):
    wrong, step, got, expected = WRONG_FROZEN_VALUES[name]
    monkeypatch.setattr(classify, name, wrong)
    with pytest.raises(classify.ReplayMismatch) as info:
        classify.replay_proof()
    exc = info.value
    assert (exc.step, exc.got, exc.expected) == (step, got, expected)
    assert str(exc) == f"{step}: {exc.what} is {got}, expected {expected}"
    for command in ("replay", "filter") if step == "step1" else ("replay",):
        code, out, err = run(capsys, command, "--format", "json")
        assert (code, out) == (4, "")
        assert err == f"regression at {exc}\n" and err.startswith(f"regression at {step}: ")


def test_a_regression_keeps_its_fields_through_copy_and_pickle(monkeypatch):
    monkeypatch.setattr(classify, "GRIFFITHS_WITNESS", Fraction(935))
    with pytest.raises(classify.ReplayMismatch) as info:
        classify.replay_proof()
    for exc in (classify.ReplayMismatch("step1", "x", 1, 2), info.value):
        fields = (exc.step, exc.what, exc.got, exc.expected, str(exc))
        for clone in (copy.copy(exc), pickle.loads(pickle.dumps(exc))):
            assert type(clone) is classify.ReplayMismatch
            assert (clone.step, clone.what, clone.got, clone.expected, str(clone)) == fields


# Step tables that drop or repeat a candidate: every row still checks, but
# the steps no longer settle each step-1 survivor exactly once.
STEP1_DATA = sorted(RankTwoData(e, a, b) for e, pairs in classify.STEP1_SURVIVORS.items() for a, b in pairs)
UNSETTLED_TABLES = {
    "STEP3_TABLE": (
        tuple(row for row in classify.STEP3_TABLE if row[0] != (0, -4, 12)),
        [data for data in STEP1_DATA if data != (0, -4, 12)],
    ),
    "STEP4_TABLE": (
        classify.STEP4_TABLE + classify.STEP4_TABLE[:1],
        sorted([*STEP1_DATA, RankTwoData(0, 0, 0)]),
    ),
}


@pytest.mark.parametrize("name", sorted(UNSETTLED_TABLES))
def test_a_step_table_that_drops_or_repeats_a_candidate_exits_4(capsys, monkeypatch, name):
    table, settled = UNSETTLED_TABLES[name]
    monkeypatch.setattr(classify, name, table)
    with pytest.raises(classify.ReplayMismatch) as info:
        classify.replay_proof()
    assert (info.value.step, info.value.got, info.value.expected) == ("final", settled, STEP1_DATA)
    code, out, err = run(capsys, "replay")
    assert (code, out) == (4, "")
    assert err.startswith("regression at final: the candidates the Griffiths test and steps 2-4 settle is [")
    assert err.count("\n") == 1


def test_replay_byte_identical_across_runs(capsys):
    out1 = run(capsys, "replay", "--format", "json")[1]
    out2 = run(capsys, "replay", "--format", "json")[1]
    assert out1 == out2


# SHA-256 of the stdout of `replay --format json` and `filter --format csv`:
# a change to either is a change to the reproduced tables, made on purpose.
REPLAY_JSON_SHA256 = "f395afca46faf0aeeba393351b36b00ed5611ccf142578f5e3f18a9dc26fc1f5"
FILTER_CSV_SHA256 = "9b5588bb0896cb699dc9ee6512c735fe818da22293817c783d569afb8d4367f0"


def test_golden_output_digests(capsys):
    code, out, _ = run(capsys, "replay", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPLAY_JSON_SHA256
    code, out, _ = run(capsys, "filter", "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FILTER_CSV_SHA256


# The other four table outputs, measured before the indented-JSON writer
# replaced json.dumps(..., indent=2).
MORE_GOLDEN_SHA256 = {
    ("filter", "json"): "21a2a2f67cc0e22adeb9d612e626d5e5681a7b8a355bc2bd2229f1bb68608062",
    ("replay", "csv"): "5dcc936fd80298876c4884e8a80bd6e0a9aa7ac2b088f8e8dcf32837ec94d4c8",
    ("filter", "plain"): "45e2679b0c6187640b6771fb616917f6b129f566a6579acf029b9569ed982f42",
    ("replay", "plain"): "1177023c2c7d1d274763bfdb85d58d18259dea5bb7abe7044a4406f85080b9fe",
}


@pytest.mark.parametrize("command, fmt", sorted(MORE_GOLDEN_SHA256))
def test_more_golden_output_digests(capsys, command, fmt):
    code, out, _ = run(capsys, command, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MORE_GOLDEN_SHA256[command, fmt]


@pytest.mark.parametrize("command", ["replay", "filter"])
def test_indented_json_round_trips_through_the_stdlib(capsys, command):
    code, out, _ = run(capsys, command, "--format", "json")
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_printed_replay_document_holds_without_the_engine():
    # the document as a process prints it, checked by a stdlib module with no
    # schubert import; then the checker refuses it with one qa's num and den
    # swapped, and with the Griffiths witness made positive
    proc = subprocess.run(
        [sys.executable, "-m", "schubert", "replay", "--format", "json"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    doc = json.loads(proc.stdout)
    replay_document.check(doc)
    swapped = copy.deepcopy(doc)
    qa = swapped["step1_table"][0]["verdicts"][0]["witness"]["qa"]
    qa["num"], qa["den"] = qa["den"], qa["num"]
    griffiths = copy.deepcopy(doc)
    for rec in griffiths["step1_table"]:
        if rec["detail"] == "griffiths":
            rec["verdicts"][3]["witness"]["chi_at_5"]["num"] = "935"
    for bad in (swapped, griffiths):
        with pytest.raises(replay_document.DocumentMismatch):
            replay_document.check(bad)


# -- the list writer and the record and entry writers against json.dumps(indent=2) -------

# Quotes, backslashes, control characters, a lone surrogate and non-ASCII
# text, each drawn often enough to appear in most values.
json_text = st.text(st.characters() | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\ud800é€😀'))


def captured_json(depth: int, write, *args) -> str:
    """What ``write(*args, newline)`` writes of a list: at depth 0, as the
    document of ``filter``, or at depth 1, as ``replay`` writes its lists,
    framed here as the value of the key "k" to make one document."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        write(*args, "\n  " if depth else "\n")
    return '{\n  "k": ' + buf.getvalue() + "\n}" if depth else buf.getvalue()


def json_dumps_at_depth(forms: list, depth: int) -> str:
    return json.dumps({"k": forms} if depth else forms, indent=2)


def test_list_writer_writes_an_empty_list_as_json_dumps():
    for depth in (0, 1):
        assert captured_json(depth, _write_json_list, [], _final_json_text) == json_dumps_at_depth([], depth)
        assert captured_json(depth, _write_records_json, []) == json_dumps_at_depth([], depth)


# -- candidate records, written from one format per shape -------------------------------


def record_json_form(rec: classify.CandidateRecord) -> dict:
    """The JSON object of a record as a dict tree, built here and not by the cli."""

    def witness(value):
        if isinstance(value, bool) or value is None:
            return value
        if isinstance(value, (int, Fraction)):
            return {"num": str(value.numerator), "den": str(value.denominator)}
        if isinstance(value, (tuple, list)):  # a SplittingType too
            return [witness(v) for v in value]
        return str(value)

    return {
        "e": rec.data.e,
        "a": rec.data.a,
        "b": rec.data.b,
        "status": rec.status,
        "detail": rec.detail,
        "verdicts": [
            {
                "rule": v.rule,
                "passed": v.passed,
                "witness": {k: witness(val) for k, val in v.witness.items()},
                "citation": v.citation,
            }
            for v in rec.verdicts
        ],
    }


def assert_records_written_as_json_dumps(records: list) -> None:
    forms = [record_json_form(rec) for rec in records]
    for depth in (0, 1):
        got = captured_json(depth, _write_records_json, records)
        assert got == json_dumps_at_depth(forms, depth), (records[0].data, depth)


def test_record_template_matches_json_dumps_on_every_replayed_record():
    report = classify.replay_proof()
    records = [
        *classify.enumerate_candidates(),
        *report.step1_table,
        *report.step2_results,
        *report.step3_table,
        *report.step4_results,
    ]
    assert len(records) == 2 * 1458 + 1 + 5 + 3
    for rec in records:
        assert_records_written_as_json_dumps([rec])


# Witness values of every kind the writers accept: True, False, None, an int
# or a Fraction, and a tuple of them, a SplittingType too.
witness_numbers = st.integers() | st.fractions()
witness_values = (
    st.none()
    | st.booleans()
    | witness_numbers
    | st.lists(witness_numbers, max_size=3).map(tuple)
    | st.builds(classify.SplittingType, st.integers(), st.integers())
)
verdicts = st.builds(
    classify.Verdict,
    rule=json_text,
    passed=st.booleans(),
    witness=st.dictionaries(json_text, witness_values, max_size=4),
    citation=json_text,
)
candidate_records = st.builds(
    classify.CandidateRecord,
    data=st.builds(RankTwoData, st.integers(), st.integers(), st.integers()),
    verdicts=st.lists(verdicts, max_size=4).map(tuple),
    status=json_text,
    detail=json_text,
)


@given(candidate_records)
@example(classify.CandidateRecord(RankTwoData(0, 0, 0), (), "", ""))
@example(classify.CandidateRecord(
    RankTwoData(-1, 6, 6),
    (classify.Verdict("r", False, {}, ""), classify.Verdict("s", True, {"t": (), "u": (5,)}, "")),
    "\ud800\"\n",
    "\x00é",
))
@example(classify.CandidateRecord(
    RankTwoData(-(10**30), 10**30, 0),
    (classify.Verdict("r", True, {
        "split": classify.SplittingType(-2, 3),
        "chi": (Fraction(-7, 2), 0, 10**40),
        "q": Fraction(10**40, 3),
    }, "c"),),
    "surviving",
    "",
))
def test_record_template_matches_json_dumps_on_synthetic_records(rec):
    assert_records_written_as_json_dumps([rec])
    assert_records_written_as_json_dumps([rec, rec])


# -- final-list entries, written from one template --------------------------------------


def final_json_form(entry: classify.BundleType) -> dict:
    """The JSON object of a final-list entry as a dict, built here and not by the cli."""
    return {
        "kind": entry.kind,
        "p": None if entry.split is None else entry.split.p,
        "q": None if entry.split is None else entry.split.q,
        "e": entry.data.e,
        "a": entry.data.a,
        "b": entry.data.b,
        "name": entry.name,
    }


def assert_entries_written_as_json_dumps(entries) -> None:
    forms = [final_json_form(entry) for entry in entries]
    for depth in (0, 1):
        got = captured_json(depth, _write_json_list, entries, _final_json_text)
        assert got == json_dumps_at_depth(forms, depth), depth


def test_final_template_matches_json_dumps_on_the_final_list():
    entries = classify.replay_proof().final_list
    assert len(entries) == 6 and sum(entry.split is None for entry in entries) == 1
    assert_entries_written_as_json_dumps(entries)


big_ints = st.integers() | st.integers(min_value=-(10**40), max_value=10**40)
bundle_types = st.builds(
    classify.BundleType,
    kind=json_text,
    split=st.none() | st.builds(classify.SplittingType, big_ints, big_ints),
    data=st.builds(RankTwoData, big_ints, big_ints, big_ints),
    name=json_text,
)


@given(bundle_types)
@example(classify.BundleType("nonsplit", None, RankTwoData(-1, 2, 1), "Q"))
@example(classify.BundleType(
    'split"\\\n\t\x00',
    classify.SplittingType(-(10**39) - 1, 10**40 - 1),
    RankTwoData(-(10**40) + 1, -(10**39), 10**39),
    "\ud800é😀\u2028",
))
def test_final_template_matches_json_dumps_on_synthetic_entries(entry):
    assert_entries_written_as_json_dumps([entry])
    assert_entries_written_as_json_dumps([entry, entry])


def coordinate_writers(rec: classify.CandidateRecord) -> dict:
    """Every writer of a candidate record's coordinates, each writing ``rec``
    after a record of int coordinates."""
    records = [classify.CandidateRecord(RankTwoData(0, 0, 0), (), "", ""), rec]
    sections = [("step1", "step1_table", records)]
    writers = {
        "json": lambda: _write_records_json(records, "\n"),
        "filter csv": lambda: _write_records_csv(records),
    }
    for fmt in ("csv", "plain"):
        writers[f"filter rows {fmt}"] = lambda fmt=fmt: _print_table(fmt, FILTER_COLUMNS, _filter_rows(records))
        writers[f"replay {fmt}"] = lambda fmt=fmt: _print_table(fmt, REPLAY_COLUMNS, _replay_rows(sections, []))
    return writers


@pytest.mark.parametrize("value", [0.0, 1.5, Fraction(1, 2), Fraction(2)])
def test_templates_write_integer_coordinates_only(value):
    # every writer, JSON, csv and plain, refuses a coordinate that is not an
    # int: after a bare record, and after a record the scan built, its
    # coordinate replaced
    data = RankTwoData(0, value, 0)
    scanned = classify.evaluate_candidate(0, 2, 2)
    inputs = {
        "bare": coordinate_writers(classify.CandidateRecord(data, (), "", "")),
        "scan": coordinate_writers(scanned._replace(data=data)),
    }
    for source, writers in inputs.items():
        for name, write in writers.items():
            try:
                captured_stdout(write)
            except TypeError:
                continue
            pytest.fail(f"the {name} writer wrote the coordinate {value!r} of a {source} record")
    final_rows = _replay_rows([], [classify.BundleType("split", None, data, "")])
    with pytest.raises(TypeError):
        captured_stdout(_print_table, "csv", REPLAY_COLUMNS, final_rows)
    with pytest.raises(TypeError):
        _final_json_text(classify.BundleType("split", None, data, ""), "\n")
    split = classify.SplittingType(value, 0)
    with pytest.raises(TypeError):
        _final_json_text(classify.BundleType("split", split, RankTwoData(0, 0, 0), ""), "\n")


def test_scan_rows_hold_ints_only():
    # the writers fill a scan row's formats with its numbers as they are, so
    # every number of every row, e, a, b and each witness number's numerator
    # and denominator, is an int, the denominator positive and the pair reduced
    rows = classify.enumerate_candidates().rows
    assert len(rows) == 1458
    for key, numbers in rows:
        assert all(type(n) is int for n in numbers), numbers[:3]
        pairs = iter(numbers[3:])
        for n, d in zip(pairs, pairs):
            assert d > 0 and math.gcd(n, d) == 1, numbers[:3]


# -- csv tables, built here cell by cell and written by csv.writer ---------------------

FILTER_CSV_HEADER = ["e", "a", "b", "positivity", "schur", "schwarzenberger", "griffiths",
                     "status", "detail", "witness"]
REPLAY_CSV_HEADER = ["section", "e", "a", "b", "action", "outcome", "witness"]


def witness_cell(rec: classify.CandidateRecord) -> str:
    """Every witness of ``rec`` as key=value, joined by ';'; a tuple or list (a
    SplittingType too) joins its items by '|', bool and None print in lower case."""

    def text(value) -> str:
        if isinstance(value, (tuple, list)):
            return "|".join(text(v) for v in value)
        if value is None or isinstance(value, bool):
            return str(value).lower()
        return str(value)

    return ";".join(f"{key}={text(value)}" for v in rec.verdicts for key, value in v.witness.items())


def filter_csv_cells(rec: classify.CandidateRecord) -> list:
    # a rule the record did not reach has no verdict and a blank cell
    marks = {v.rule: "pass" if v.passed else "fail" for v in rec.verdicts}
    cells = {rule: marks.get(rule, "") for rule in FILTER_CSV_HEADER[3:7]}
    e, a, b = (int.__repr__(x) for x in rec.data)  # a bool is 1 or 0
    cells.update(e=e, a=a, b=b, status=rec.status, detail=rec.detail, witness=witness_cell(rec))
    return [cells[column] for column in FILTER_CSV_HEADER]


def csv_lines(header: list[str], rows) -> list[str]:
    # compared as lists of lines, which pytest reports at the first difference
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().splitlines(keepends=True)


def test_filter_csv_matches_an_independent_writer(capsys):
    code, out, _ = run(capsys, "filter", "--format", "csv")
    assert code == 0
    records = classify.enumerate_candidates()
    assert len(records) == 1458
    assert out.splitlines(keepends=True) == csv_lines(FILTER_CSV_HEADER, map(filter_csv_cells, records))


def test_replay_csv_matches_an_independent_writer(capsys):
    code, out, _ = run(capsys, "replay", "--format", "csv")
    assert code == 0
    report = classify.replay_proof()
    sections = {
        "step1": report.step1_table,
        "step2": report.step2_results,
        "step3": report.step3_table,
        "step4": report.step4_results,
    }
    rows = [
        dict(section=section, e=rec.data.e, a=rec.data.a, b=rec.data.b, action=rec.status,
             outcome=rec.detail, witness=witness_cell(rec))
        for section, records in sections.items()
        for rec in records
    ]
    rows += [
        dict(section="final", e=b.data.e, a=b.data.a, b=b.data.b, action=b.kind, outcome=b.name,
             witness="")
        for b in report.final_list
    ]
    assert len(rows) == 1458 + 1 + 5 + 3 + 6
    expected = csv_lines(REPLAY_CSV_HEADER, ([row[c] for c in REPLAY_CSV_HEADER] for row in rows))
    assert out.splitlines(keepends=True) == expected


# Text with the characters csv quotes or the witness cell uses as separators.
csv_cell_text = st.text(st.characters() | st.sampled_from(',"\n\r;|= '))


@st.composite
def filter_records(draw) -> classify.CandidateRecord:
    """A record whose verdicts follow FILTER_RULES up to some rule, as the scan's do."""
    reached = draw(st.integers(0, len(classify.FILTER_RULES)))
    verdicts = [
        classify.Verdict(
            rule,
            draw(st.booleans()),
            draw(st.dictionaries(csv_cell_text, witness_values, max_size=3)),
            draw(csv_cell_text),
        )
        for rule in classify.FILTER_RULES[:reached]
    ]
    data = draw(st.builds(RankTwoData, st.integers(), st.integers(), st.integers()))
    return classify.CandidateRecord(data, tuple(verdicts), draw(csv_cell_text), draw(csv_cell_text))


@given(st.lists(filter_records(), max_size=4))
@example([])
@example([classify.CandidateRecord(
    RankTwoData(-1, 6, 6),
    (
        classify.Verdict("positivity", True, {'say "a,b"': (1, Fraction(-1, 3)), "none": None}, ""),
        classify.Verdict("schur", False, {
            "split": classify.SplittingType(-2, 3),
            "chi": (Fraction(-7, 2), 0),
            "x\ny;|=": False,
        }, ""),
    ),
    "eliminated",
    'schur, "quoted"\r\n',
)])
def test_filter_csv_rows_match_an_independent_writer_on_synthetic_records(records):
    # the plain table's rows through csv.writer, and the filter csv records, each from its format
    expected = csv_lines(FILTER_CSV_HEADER, map(filter_csv_cells, records))
    assert general_csv(records).splitlines(keepends=True) == expected
    assert captured_stdout(_write_records_csv, records + records).splitlines(keepends=True) == (
        expected + expected[1:]
    )


# -- records written from one format per shape, against the oracles -------------------


def captured_stdout(write, *args) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        write(*args)
    return buf.getvalue()


def general_csv(records) -> str:
    """The csv of ``_filter_rows``, the cells the plain table prints, through csv.writer."""
    return captured_stdout(_print_table, "csv", FILTER_COLUMNS, _filter_rows(records))


def assert_records_written_as_the_oracles(records: list) -> None:
    """The JSON of ``records`` against json.dumps(indent=2) at both depths, and
    their csv against the independent writer, whose marks read FILTER_RULES by
    name, or, for the replay's step rules, against ``general_csv``."""
    assert_records_written_as_json_dumps(records)
    got = captured_stdout(_write_records_csv, records)
    if all(v.rule in classify.FILTER_RULES for rec in records for v in rec.verdicts):
        assert got.splitlines(keepends=True) == csv_lines(FILTER_CSV_HEADER, map(filter_csv_cells, records))
    else:
        assert got == general_csv(records)


# The scan's records have this many shapes, each with one JSON, one csv and
# one witness-cell format per render call.
SCAN_SHAPES = 7


def test_every_scan_shape_and_replayed_record_writes_through_its_template():
    scan = classify.enumerate_candidates()
    shapes = {}
    for rec in scan:
        shapes.setdefault(_record_shape(rec)[0], rec)
    assert len(shapes) == SCAN_SHAPES
    report = classify.replay_proof()
    steps = [*report.step2_results, *report.step3_table, *report.step4_results]
    assert_records_written_as_the_oracles(scan)
    assert_records_written_as_the_oracles([*scan, *steps])
    for rec in [*shapes.values(), *steps]:
        assert_records_written_as_the_oracles([rec])


def test_each_render_call_builds_one_format_per_shape(capsys, monkeypatch):
    built = []  # the shape each record format was built from, in order
    cells = []  # the shape each witness-cell format was built from, in order

    def counted(build, shapes):
        def counting(shape, *args):
            shapes.append(shape)
            return build(shape, *args)

        return counting

    monkeypatch.setattr(cli, "_record_json_format", counted(cli._record_json_format, built))
    monkeypatch.setattr(cli, "_record_csv_format", counted(cli._record_csv_format, built))
    monkeypatch.setattr(cli, "_witness_format", counted(cli._witness_format, cells))
    for fmt in ("json", "csv"):
        built.clear()
        code, _, _ = run(capsys, "filter", "--format", fmt)
        assert code == 0
        assert len(built) == len(set(built)) == SCAN_SHAPES, fmt
    # the plain table's witness cells, one format per shape
    cells.clear()
    code, _, _ = run(capsys, "filter", "--format", "plain")
    assert code == 0
    assert len(cells) == len(set(cells)) == SCAN_SHAPES

    # replay --format json: one format per distinct shape of each of its record lists
    calls = []
    write_records_json = cli._write_records_json

    def one_call(records, newline):
        start = len(built)
        write_records_json(records, newline)
        calls.append((records, built[start:]))

    monkeypatch.setattr(cli, "_write_records_json", one_call)
    code, _, _ = run(capsys, "replay", "--format", "json")
    assert code == 0
    assert [len(records) for records, _ in calls] == [1458, 1, 5, 3]
    for records, shapes in calls:
        assert len(shapes) == len(set(shapes)) and set(shapes) == {_record_shape(rec)[0] for rec in records}
    # step 4: the two records whose split_detect is a SplittingType are written from formats too
    step4, step4_shapes = calls[3]
    split = [rec for rec in step4 if type(rec.verdicts[-1].witness["split_detect"]) is classify.SplittingType]
    assert len(split) == 2 and len(step4_shapes) == 3
    assert {_record_shape(rec)[0] for rec in split} <= set(step4_shapes)

    # replay --format csv and plain: one witness-cell format per distinct shape of all its records
    replay_shapes = {_record_shape(rec)[0] for records, _ in calls for rec in records}
    for fmt in ("csv", "plain"):
        cells.clear()
        code, _, _ = run(capsys, "replay", "--format", fmt)
        assert code == 0
        assert len(cells) == len(set(cells)) == len(replay_shapes)

    # a second render call builds its formats again: no text outlives a call
    scan = classify.enumerate_candidates()
    for write, args in ((write_records_json, (scan, "\n")), (cli._write_records_csv, (scan,))):
        built.clear()
        first = captured_stdout(write, *args)
        assert captured_stdout(write, *args) == first
        assert len(built) == 2 * SCAN_SHAPES


@pytest.fixture
def fresh_scan():
    """The scan's cache cleared before and after a test that scans with
    patched filters or another square."""
    classify.enumerate_candidates.cache_clear()
    yield
    classify.enumerate_candidates.cache_clear()


def assert_rows_are_the_record_shapes(records) -> None:
    """The shape and numbers each writer reads for a record, through the
    writers' one loop, are its ``_record_shape`` with every witness number as
    its reduced pair of ints: a row's key, whose shape is that of the record
    built for its first row, never stands for a record of another shape."""
    written = list(cli._formatted(records, lambda shape: shape, {}))
    assert len(written) == len(records)
    for rec, (shape, numbers) in zip(records, written):
        assert (shape, numbers) == cli._record_row(rec), rec.data
        assert all(type(n) is int for n in numbers), rec.data


def witness_schema(witness: dict) -> tuple:
    """The schema and numbers of ``witness`` as a scan rule gives them: a
    number as Fraction and its reduced pair, a tuple item by item, any other
    value as itself."""
    numbers = []

    def kind(value):
        if type(value) in (int, Fraction):
            numbers.extend(value.as_integer_ratio())
            return Fraction
        if type(value) is tuple:
            return tuple(map(kind, value))
        return value

    return tuple((k, kind(v)) for k, v in witness.items()), tuple(numbers)


def scan_with_witness(monkeypatch, rule: str, key: str, value, where):
    """The scan once more, its ``rule`` giving ``value(old)`` as the ``key``
    witness at the candidates where ``where(data)`` holds."""
    i = classify.FILTER_RULES.index(rule)
    plain = classify._RULES[i]

    def replaced(line, b):
        passed, schema, numbers = plain(line, b)
        witness = classify.witness_values(schema, iter(numbers))
        if key in witness and where(RankTwoData(line.e, line.a, b)):
            schema, numbers = witness_schema({**witness, key: value(witness[key])})
        return passed, schema, numbers

    monkeypatch.setattr(classify, "_RULES", (*classify._RULES[:i], replaced, *classify._RULES[i + 1:]))
    classify.enumerate_candidates.cache_clear()
    return classify.enumerate_candidates()


def test_scan_rows_are_the_record_shapes_and_follow_a_new_scan(monkeypatch, fresh_scan):
    scan = classify.enumerate_candidates()
    assert type(scan) is classify.ScanRecords
    assert_rows_are_the_record_shapes(scan)
    assert cli._record_rows(scan)[0] is scan.rows  # built once per scan, by the scan
    # a square of the same size one step lower, with only the scan's cache
    # cleared: the rows follow the new records
    monkeypatch.setattr(classify, "SCAN_LO", classify.SCAN_LO - 1)
    monkeypatch.setattr(classify, "SCAN_HI", classify.SCAN_HI - 1)
    classify.enumerate_candidates.cache_clear()
    moved = classify.enumerate_candidates()
    assert len(moved) == len(scan) and moved[0].data != scan[0].data
    assert_rows_are_the_record_shapes(moved)
    # qb True, a shape of its own, wherever a + b is a multiple of 5: no row
    # of a record with qb True shares a shape with one whose qb is a number
    flagged = scan_with_witness(monkeypatch, "positivity", "qb", lambda _: True, lambda d: (d.a + d.b) % 5 == 0)
    assert sum(rec.verdicts[0].witness["qb"] is True for rec in flagged) > 100
    assert_rows_are_the_record_shapes(flagged)
    # Schur's strict_positive as the int 1 or 0 where b is a multiple of 3:
    # equal to True or False, but a number, so a shape of its own
    counted = scan_with_witness(monkeypatch, "schur", "strict_positive", int, lambda d: d.b % 3 == 0)
    schur = [rec.verdict("schur") for rec in counted]
    assert sum(v is not None and type(v.witness["strict_positive"]) is Fraction for v in schur) > 100
    assert_rows_are_the_record_shapes(counted)


def test_one_cold_pass_classifies_each_record_once(capsys, monkeypatch, fresh_scan):
    # replay --format json then filter --format csv, from a cold scan: each
    # command builds the scan's 10 integrality survivors, and each render one
    # record per row key, whose shape it classifies; every other scan row is
    # written from its ints.  The 9 records of steps 2-4, which only the
    # replay prints, are classified record by record.
    built = []
    plain_record = classify.scan_record

    def building(row):
        built.append(row)
        return plain_record(row)

    calls = 0
    plain_shape = cli._record_shape

    def counted(rec):
        nonlocal calls
        calls += 1
        return plain_shape(rec)

    monkeypatch.setattr(classify, "scan_record", building)
    monkeypatch.setattr(cli, "scan_record", building)
    monkeypatch.setattr(cli, "_record_shape", counted)
    for command, fmt in (("replay", "json"), ("filter", "csv")):
        assert main([command, "--format", fmt]) == cli.EXIT_OK
    capsys.readouterr()
    rows = classify.enumerate_candidates().rows
    assert len(rows) == 1458
    survivors = [row for row in rows if row[0][0] > classify.FILTER_RULES.index("schwarzenberger")]
    first_of_key = list({key: (key, numbers) for key, numbers in reversed(rows)}.values())
    assert len(survivors) == 10 and len(first_of_key) == SCAN_SHAPES
    assert Counter(built) == Counter(2 * survivors + 2 * first_of_key)
    assert calls == 2 * SCAN_SHAPES + 9


# Each number witness of the scan as a float, or as a tuple that holds one.
FLOAT_WITNESSES = {
    ("positivity", "qb"): float,
    ("schur", "pairing_lines_in_hyperplane"): float,
    ("schwarzenberger", "chi"): lambda chi: (*chi[:-1], float(chi[-1])),
    ("griffiths", "chi_at_5"): float,
}


@pytest.mark.parametrize("rule, key", sorted(FLOAT_WITNESSES))
def test_every_scan_writer_refuses_a_float_witness(capsys, monkeypatch, fresh_scan, rule, key):
    # at one candidate: the last that carries the witness and whose shape an
    # earlier record has, so that a row table shared by shape would miss it
    seen, target = set(), None
    for rec in classify.enumerate_candidates():
        shape = _record_shape(rec)[0]
        v = rec.verdict(rule)
        if shape in seen and v is not None and key in v.witness:
            target = rec.data
        seen.add(shape)
    assert target is not None
    scan_with_witness(monkeypatch, rule, key, FLOAT_WITNESSES[rule, key], lambda d: d == target)
    for argv in (("filter", "csv"), ("filter", "json"), ("filter", "plain"), ("replay", "json"), ("replay", "csv")):
        with pytest.raises(TypeError) as info:
            main([argv[0], "--format", argv[1]])
        capsys.readouterr()
        assert str(info.value).startswith(f"witness {key!r} of rule {rule!r} is a "), argv
        assert str(info.value).endswith(WITNESS_KINDS_RULE), argv


# Text with '%' and format specifiers, which a format must escape, and the
# witness cell's separators.
format_text = st.lists(
    st.characters() | st.sampled_from(["%", "%s", "%%", "%(e)d", ";", "|", "="]), max_size=4
).map("".join)
# Long digit runs, like the numbers written into the slots, and what csv quotes.
LONG_DIGIT_RUNS = [str(10**15 + i) for i in (0, 1, 2, 3, 4, 9)]
rare_text = st.tuples(
    format_text, st.sampled_from([",", '"', "\r", "\n", *LONG_DIGIT_RUNS]), format_text
).map("".join)
slot_numbers = (
    big_ints
    | st.fractions()
    | st.builds(Fraction, big_ints, st.integers(1, 10**30))
    | st.sampled_from([10**15, Fraction(10**15 + 3, 10**15 + 4)])
)
# Witness kinds as the scan's records hold them, and the one other kind the step records hold.
common_witness_values = (
    st.none() | st.booleans() | slot_numbers | st.lists(slot_numbers, max_size=4).map(tuple)
)
rare_witness_values = st.builds(classify.SplittingType, big_ints, big_ints)


def mostly(common, rare):
    """``common``, and one time in four ``rare``."""
    return st.integers(0, 3).flatmap(lambda i: rare if i == 0 else common)


FIXED_FIELDS = ("rule", "passed", "citation", "witness key", "witness kind", "status", "detail")


def renumbered(rec: classify.CandidateRecord, draw) -> classify.CandidateRecord:
    """``rec`` with other e, a, b and witness numbers: the same shape."""

    def number(value):
        if type(value) is tuple:
            return tuple(map(number, value))
        return draw(slot_numbers) if type(value) in (int, Fraction) else value

    verdicts = tuple(
        classify.Verdict(v.rule, v.passed, {k: number(x) for k, x in v.witness.items()}, v.citation)
        for v in rec.verdicts
    )
    return classify.CandidateRecord(RankTwoData(*(draw(big_ints) for _ in range(3))), verdicts, rec.status,
                                    rec.detail)


def changed(rec: classify.CandidateRecord, field: str, draw) -> classify.CandidateRecord:
    """``rec`` with one fixed field changed, now and then to rare text or a rare witness kind."""
    text = mostly(format_text, rare_text)
    if field in ("status", "detail"):
        new = draw(text)
        status, detail = (new, rec.detail) if field == "status" else (rec.status, new)
        return classify.CandidateRecord(rec.data, rec.verdicts, status, detail)
    if not rec.verdicts:
        return rec
    verdicts = list(rec.verdicts)
    i = draw(st.integers(0, len(verdicts) - 1))
    v = verdicts[i]
    rule, passed, witness, citation = v.rule, v.passed, v.witness, v.citation
    if field == "rule":
        rule = draw(text)
    elif field == "passed":
        passed = not passed
    elif field == "citation":
        citation = draw(text)
    elif witness:
        j = draw(st.integers(0, len(witness) - 1))
        if field == "witness key":
            new_key = draw(text)
            witness = {new_key if n == j else k: x for n, (k, x) in enumerate(witness.items())}
        else:
            new_value = draw(mostly(common_witness_values, rare_witness_values))
            witness = {k: new_value if n == j else x for n, (k, x) in enumerate(witness.items())}
    verdicts[i] = classify.Verdict(rule, passed, witness, citation)
    return classify.CandidateRecord(rec.data, tuple(verdicts), rec.status, rec.detail)


@st.composite
def records_of_one_shape(draw, fields=FIXED_FIELDS) -> list:
    """A record whose verdicts follow FILTER_RULES up to some rule, copies of it
    with other numbers, and copies with one of ``fields`` changed too, in any order."""
    reached = draw(st.integers(0, len(classify.FILTER_RULES)))
    verdicts = tuple(
        classify.Verdict(
            rule,
            draw(st.booleans()),
            draw(st.dictionaries(format_text, common_witness_values, max_size=4)),
            draw(format_text),
        )
        for rule in classify.FILTER_RULES[:reached]
    )
    base = classify.CandidateRecord(RankTwoData(*(draw(big_ints) for _ in range(3))), verdicts,
                                    draw(format_text), draw(format_text))
    records = [base]
    for _ in range(draw(st.integers(1, 4))):
        rec = renumbered(base, draw)
        field = draw(st.sampled_from((None, *fields)))
        records.append(rec if field is None else changed(rec, field, draw))
    return draw(st.permutations(records))


# One record whose witness key holds a comma, so csv quotes its witness cell,
# one whose detail holds a long digit run, and one whose detail holds '%'.
COMMA_KEY = classify.CandidateRecord(
    RankTwoData(-1, 6, 6),
    (classify.Verdict("positivity", True, {"a,b": Fraction(7, 2), "c": (1, Fraction(-1, 3))}, "x"),),
    "surviving",
    "",
)
DIGIT_RUN_DETAIL = classify.CandidateRecord(
    RankTwoData(0, 1, 2),
    (classify.Verdict("positivity", False, {"q": Fraction(1, 2)}, ""),),
    "eliminated",
    f"positivity {LONG_DIGIT_RUNS[0]}",
)
PERCENT_DETAIL = classify.CandidateRecord(RankTwoData(0, -3, 4), (), "eliminated", "100%s %(e)d %%")


def with_witness(value) -> classify.CandidateRecord:
    verdict = classify.Verdict("positivity", True, {"q": value, "t": (Fraction(1, 3), 4)}, "c")
    return classify.CandidateRecord(RankTwoData(-1, 2, 3), (verdict,), "surviving", "")


# One record with a witness of each kind the writers accept: the first seven as
# the scan's records hold them, then a SplittingType, as the step records do.
# False beside None and True beside the 1-tuple each need a format of their own.
WITNESS_KINDS = [
    with_witness(value)
    for value in (
        Fraction(5, 7), True, False, None, (), (1,), (Fraction(1, 2), 3), classify.SplittingType(-2, 3),
    )
]


def test_formats_write_quoted_cells_digit_runs_percent_and_every_witness_kind():
    records = [COMMA_KEY, DIGIT_RUN_DETAIL, PERCENT_DETAIL, *WITNESS_KINDS]
    # a SplittingType has the shape of the pair (Fraction(1, 2), 3)
    assert len({_record_shape(rec)[0] for rec in WITNESS_KINDS}) == len(WITNESS_KINDS) - 1
    assert '"a,b=7/2;c=1|-1/3"' in captured_stdout(_write_records_csv, [COMMA_KEY])
    assert_records_written_as_the_oracles(records + records)
    assert_records_written_as_the_oracles(records + records[::-1])


def test_formats_write_coordinates_not_int_as_the_oracles_do():
    flag = classify.CandidateRecord(RankTwoData(True, 0, 0), (), "", "")
    half = classify.CandidateRecord(RankTwoData(0, Fraction(1, 2), 0), (), "", "")
    # a bool coordinate is 1, as int.__repr__ writes it, in every writer
    for depth in (0, 1):
        got = captured_json(depth, _write_records_json, [flag, flag])
        assert got == json_dumps_at_depth([dict(record_json_form(flag), e=1)] * 2, depth)
    lines = captured_stdout(_write_records_csv, [flag, flag]).splitlines(keepends=True)
    assert lines == csv_lines(FILTER_CSV_HEADER, map(filter_csv_cells, [flag, flag]))
    assert lines[1:] == ["1,0,0,,,,,,,\n"] * 2
    one = coordinate_writers(flag._replace(data=RankTwoData(1, 0, 0)))
    for name, write in coordinate_writers(flag).items():
        assert captured_stdout(write) == captured_stdout(one[name]), name
    # and a Fraction stops every writer, whatever came before it
    for records in ([flag, half], [half, flag]):
        with pytest.raises(TypeError):
            captured_stdout(_write_records_json, records, "\n")
        with pytest.raises(TypeError):
            captured_stdout(_write_records_csv, records)


# Witness values outside the closed set of kinds the writers accept.
UNWRITABLE_WITNESSES = {"float": 0.1, "str": "x", "list": [1, 2], "nested": (1, (2,)), "bool-tuple": (True,)}
WITNESS_KINDS_RULE = "a witness is True, False, None, an int, a Fraction or a tuple of ints and Fractions"


@pytest.mark.parametrize("kind", sorted(UNWRITABLE_WITNESSES))
def test_every_writer_refuses_a_witness_outside_the_closed_kinds(kind):
    value = UNWRITABLE_WITNESSES[kind]
    verdict = classify.Verdict("positivity", True, {"qa": Fraction(1, 2), "odd key": value}, "c")
    rec = classify.CandidateRecord(RankTwoData(-1, 2, 3), (verdict,), "surviving", "")
    writers = {
        "json": lambda: _write_records_json([rec], "\n"),
        "csv": lambda: _write_records_csv([rec]),
        "plain": lambda: _print_table("plain", FILTER_COLUMNS, _filter_rows([rec])),
        "replay csv": lambda: _print_table("csv", REPLAY_COLUMNS, _replay_rows([("step1", "", [rec])], [])),
    }
    for name, write in writers.items():
        with pytest.raises(TypeError) as info:
            captured_stdout(write)
        assert str(info.value).startswith("witness 'odd key' of rule 'positivity' is a "), name
        assert str(info.value).endswith(WITNESS_KINDS_RULE), name


@given(records_of_one_shape())
@example([COMMA_KEY, DIGIT_RUN_DETAIL, PERCENT_DETAIL])
@example(WITNESS_KINDS)
def test_record_templates_match_json_dumps_on_records_of_one_shape(records):
    assert_records_written_as_json_dumps(records)


# csv writes no rule: the verdicts follow FILTER_RULES, and the oracle reads them by name.
@given(records_of_one_shape(fields=tuple(f for f in FIXED_FIELDS if f != "rule")))
@example([COMMA_KEY, DIGIT_RUN_DETAIL, PERCENT_DETAIL])
@example(WITNESS_KINDS)
def test_record_templates_match_an_independent_csv_writer_on_records_of_one_shape(records):
    expected = csv_lines(FILTER_CSV_HEADER, map(filter_csv_cells, records))
    assert captured_stdout(_write_records_csv, records).splitlines(keepends=True) == expected


# -- one real subprocess pass through the module entry point -------------------------


def test_import_loads_neither_dataclasses_nor_inspect():
    # -I -S: no site packages and no PYTHONPATH, so only the interpreter's own
    # start-up modules are there before the package is imported; -B: -I ignores
    # PYTHONDONTWRITEBYTECODE, and the run should leave no bytecode in src
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import schubert, schubert.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, src], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "schubert", "chi", "--e", "-1", "--a", "6", "--b", "6",
         "--twist", "5", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert from_json_rational(json.loads(proc.stdout)) == -935

    proc = subprocess.run(
        [sys.executable, "-m", "schubert", "chi", "--e", "oops", "--a", "0", "--b", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
@pytest.mark.parametrize("command", ["filter", "replay"])
def test_closed_pipe_ends_silently_in_every_table_format(command, fmt):
    # the reader takes one byte of the table and closes the pipe, with stdout
    # buffered and unbuffered (PYTHONUNBUFFERED, as python -u): unbuffered,
    # one large write that meets the closed pipe comes back short, not as an error
    for unbuffered in ("", "1"):
        proc = subprocess.Popen(
            [sys.executable, "-m", "schubert", command, "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
        assert len(proc.stdout.read(1)) == 1
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b""), f"PYTHONUNBUFFERED={unbuffered!r}"


def test_closed_pipe_ends_silently():
    # a pipe already closed when the command writes its one short line
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "schubert", "chi", "--e", "-1", "--a", "6", "--b", "6"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_intersect_work_is_bounded_by_the_dimension(capsys, monkeypatch):
    products = []
    plain = ChowClass.__mul__

    def counting(x, y):
        if isinstance(y, ChowClass):
            products.append(1)
        return plain(x, y)

    monkeypatch.setattr(ChowClass, "__mul__", counting)
    dim = 6
    cases = (
        (";".join(["0"] * 9994 + ["1"] * 6), "5\n"),  # degree-0 factors are the unit
        (";".join(["1"] * 10000), "0\n"),  # vanishes past the top degree
        (";".join(["1,1", "3"] + ["2,1"] * 9998), "0\n"),  # vanishes below it
    )
    for classes, answer in cases:
        products.clear()
        assert run(capsys, "intersect", "--k", "1", "--n", "4", classes)[:2] == (0, answer)
        assert len(products) <= dim
    # sigma_1^6: four products, then the last factor is paired, not multiplied
    products.clear()
    assert run(capsys, "intersect", "--k", "1", "--n", "4", "1;1;1;1;1;1")[:2] == (0, "5\n")
    assert len(products) == 4
    # every factor is checked against the box, even after the product vanished
    classes = ";".join(["1"] * 9999 + ["4"])
    code, out, err = run(capsys, "intersect", "--k", "1", "--n", "4", classes)
    assert (code, out) == (3, "") and err.count("\n") == 1


# -- a grammar fuzz of the command line ---------------------------------------------

HUGE = str(10**4289)  # 4290 digits, under the interpreter's int-string limit
# well-formed integers: small, huge, with an underscore, in another script's digits
fuzz_integers = st.one_of(st.integers(-1, 9).map(str), st.sampled_from([HUGE, "-" + HUGE, "1_000", "٣"]))
MALFORMED_INTEGERS = ("0x10", "", "nan", "1.0")
# --k and --n of intersect: mostly a ring, 0 <= k < n <= 8
fuzz_ring = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(1, 5)).map(lambda kd: (str(kd[0]), str(sum(kd)))),
    st.tuples(fuzz_integers, fuzz_integers),
)
fuzz_factors = st.lists(st.integers(0, 4), min_size=1, max_size=4).map(
    lambda parts: ",".join(map(str, sorted(parts, reverse=True)))
)
# empty factors; increasing, negative, huge, malformed or non-ASCII parts; 10 000 parts
UNUSUAL_CLASSES = (
    "", "2;;1", "1,2", "2,-1", "1,x", HUGE, "٣,١",
    ",".join(["1", "2"] * 5000), ",".join(["1"] * 10000), ",".join(["-1"] * 10000),
)
FUZZ_OPTIONS = {
    "intersect": ("--k", "--n"),
    "chi": ("--e", "--a", "--b", "--twist"),
    "chi-p3": ("--e", "--a", "--twist"),
    "splitting-types": ("--e", "--n"),
}
# filter and replay run the whole scan: the fuzz gives them bad arguments only
BAD_SCAN_ARGUMENTS = (["--format", "xml"], ["--format"], ["extra"], ["--e", "0"])


@st.composite
def fuzz_argv(draw) -> list[str]:
    """A command line of the grammar with at most one fault: a malformed
    value, a missing option, an unusual class list or an unknown format."""
    command = draw(st.sampled_from([*FUZZ_OPTIONS, "filter", "replay"]))
    if command not in FUZZ_OPTIONS:
        return [command, *draw(st.sampled_from(BAD_SCAN_ARGUMENTS))]
    options = FUZZ_OPTIONS[command]
    fault = draw(st.sampled_from(["none", "value", "missing", "classes", "format"]))
    faulty = draw(st.sampled_from(options))
    values = draw(fuzz_ring if command == "intersect" else st.tuples(*[fuzz_integers] * len(options)))
    argv = [command]
    for option, value in zip(options, values):
        if option != faulty or fault not in ("value", "missing"):
            argv += [option, value]
        elif fault == "value":
            argv += [option, draw(st.sampled_from(MALFORMED_INTEGERS))]
    if command == "intersect":
        classes = st.lists(fuzz_factors, min_size=1, max_size=4).map(";".join)
        argv.append(draw(st.sampled_from(UNUSUAL_CLASSES) if fault == "classes" else classes))
    argv += draw(st.sampled_from([[], ["--format", "plain"], ["--format", "csv"], ["--format", "json"]]))
    return argv + (["--format", "xml"] if fault == "format" else [])


NINES = "9" * 4290


# one example per mended class of command-line fault
@given(fuzz_argv())
@example(["splitting-types", "--e", HUGE, "--n", "10000"])  # unbounded --e printed 43 MB
@example(["chi", "--e", NINES, "--a", NINES, "--b", NINES, "--twist", NINES])  # answer past the int-string limit
@example(["intersect", "--k", str(10**4000), "--n", str(2 * 10**4000), "1"])  # dimension past that limit
@example(["intersect", "--k", str(2 * 10**4000), "--n", "1", "1"])  # k >= n echoed both numbers
@example(["intersect", "--k", "1", "--n", "4", "1" + ",0" * 60_000])  # quadratic trailing-zero strip
@example(["intersect", "--k", "x" * 100_000, "--n", "4", "1"])  # argparse echoed the bad int in full
def test_the_command_grammar_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 1.0
    assert code in (0, 2, 3, 4)
    err = err.getvalue().encode()
    if code == 3:
        assert err.count(b"\n") == 1 and len(err) < 200, err[:300]
    if code == 2:
        assert len(err) < 1024, err[:300]
    if code != 0:
        return
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "plain"
    if fmt == "json":
        json.loads(out.getvalue())
    if fmt == "csv":
        assert len({len(row) for row in csv.reader(io.StringIO(out.getvalue()))}) == 1

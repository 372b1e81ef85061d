import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from schubert import classify
from schubert.charclass import RankTwoData, rank_two_chern
from schubert.chow import ChowClass
from schubert.cli import (
    FILTER_COLUMNS,
    MAX_CHI_ARGUMENT,
    MAX_SPLITTING_TYPES_N,
    _print_json_indented,
    _print_table,
    _record_row,
    main,
)
from schubert.hrr import euler_characteristic

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


# One wrong frozen value per part of the step-1 check: the candidate table,
# the record the Griffiths test removes, and its witness chi(E(5)).
WRONG_STEP1_VALUES = {
    "STEP1_SURVIVORS": {0: ((0, 0),), -1: ()},
    "GRIFFITHS_ELIMINATED": RankTwoData(-1, 0, 1),
    "GRIFFITHS_WITNESS": Fraction(935),
}


@pytest.mark.parametrize("name", sorted(WRONG_STEP1_VALUES))
def test_filter_regression_exit_code(capsys, monkeypatch, name):
    monkeypatch.setattr(classify, name, WRONG_STEP1_VALUES[name])
    code, _, err = run(capsys, "filter", "--format", "csv")
    assert code == 4
    assert "regression at step1" in err


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


# -- the indented JSON writer against json.dumps(indent=2) ------------------------------

# Quotes, backslashes, control characters, a lone surrogate and non-ASCII
# text, each drawn often enough to appear in most trees.
json_text = st.text(st.characters() | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\ud800é€😀'))
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | json_text
)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(json_text, children, max_size=4),
    max_leaves=30,
)


def captured_json(doc) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _print_json_indented(doc)
    return buf.getvalue()


@given(json_trees)
@example({})
@example([])
@example({"": [], "x": {}, "y": [[], {}]})
@example([-(2**64), 10**300, 0, True, False, None, ""])
def test_indented_json_writer_matches_json_dumps(doc):
    assert captured_json(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("value", [0.0, 1.5, Fraction(1, 2)])
def test_indented_json_writer_is_exact_only(value):
    for doc in (value, [value], {"k": value}, [1, {"k": [value]}]):
        with pytest.raises(TypeError):
            captured_json(doc)


# -- candidate records, written from one template ---------------------------------------


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


def assert_record_written_as_json_dumps(rec: classify.CandidateRecord) -> None:
    form = record_json_form(rec)
    assert captured_json(rec) == json.dumps(form, indent=2) + "\n", rec.data  # depth 0
    assert captured_json({"k": [rec]}) == json.dumps({"k": [form]}, indent=2) + "\n", rec.data  # depth 2


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
        assert_record_written_as_json_dumps(rec)


witness_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.fractions()
    | st.builds(classify.SplittingType, st.integers(), st.integers())
    | json_text
)
witness_values = st.recursive(
    witness_leaves,
    lambda children: st.lists(children, max_size=3) | st.lists(children, max_size=3).map(tuple),
    max_leaves=8,
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
    (classify.Verdict("r", False, {}, ""), classify.Verdict("s", True, {"t": (), "u": []}, "")),
    "\ud800\"\n",
    "\x00é",
))
@example(classify.CandidateRecord(
    RankTwoData(-(10**30), 10**30, 0),
    (classify.Verdict("r", True, {
        "split": classify.SplittingType(-2, 3),
        "chi": (Fraction(-7, 2), 0, (True, None, "x")),
        "q": Fraction(10**40, 3),
    }, "c"),),
    "surviving",
    "",
))
def test_record_template_matches_json_dumps_on_synthetic_records(rec):
    assert_record_written_as_json_dumps(rec)
    forms = [record_json_form(rec)] * 2
    assert captured_json([rec, rec]) == json.dumps(forms, indent=2) + "\n"


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
    cells.update(e=rec.data.e, a=rec.data.a, b=rec.data.b, status=rec.status, detail=rec.detail,
                 witness=witness_cell(rec))
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
csv_witness_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.fractions()
    | st.builds(classify.SplittingType, st.integers(), st.integers())
    | csv_cell_text,
    lambda children: st.lists(children, max_size=3) | st.lists(children, max_size=3).map(tuple),
    max_leaves=8,
)


@st.composite
def filter_records(draw) -> classify.CandidateRecord:
    """A record whose verdicts follow FILTER_RULES up to some rule, as the scan's do."""
    reached = draw(st.integers(0, len(classify.FILTER_RULES)))
    verdicts = [
        classify.Verdict(
            rule,
            draw(st.booleans()),
            draw(st.dictionaries(csv_cell_text, csv_witness_values, max_size=3)),
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
        classify.Verdict("positivity", True, {'say "a,b"': "x\ny", "none": None}, ""),
        classify.Verdict("schur", False, {
            "split": classify.SplittingType(-2, 3),
            "chi": (Fraction(-7, 2), 0, (True, False, "q,\"")),
        }, ""),
    ),
    "eliminated",
    'schur, "quoted"\r\n',
)])
def test_filter_csv_rows_match_an_independent_writer_on_synthetic_records(records):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _print_table("csv", FILTER_COLUMNS, map(_record_row, records))
    expected = csv_lines(FILTER_CSV_HEADER, map(filter_csv_cells, records))
    assert buf.getvalue().splitlines(keepends=True) == expected


# -- one real subprocess pass through the module entry point -------------------------


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
    # every factor is checked against the box, even after the product vanished
    classes = ";".join(["1"] * 9999 + ["4"])
    code, out, err = run(capsys, "intersect", "--k", "1", "--n", "4", classes)
    assert (code, out) == (3, "") and err.count("\n") == 1

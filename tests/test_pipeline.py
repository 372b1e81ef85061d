import copy
import hashlib
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from schubert import (
    G14,
    GrassmannRing,
    RankTwoData,
    ReplayMismatch,
    SplittingType,
    ample_twist,
    classify,
    enumerate_candidates,
    euler_characteristic,
    euler_polynomial,
    fano_splitting_types,
    griffiths_filter,
    line_bundle,
    positivity_filter,
    rank_two_chern,
    replay_proof,
    restriction_to_p3,
    schur_filter,
    schwarzenberger_filter,
    section_constraints,
    split_detect,
    split_fano_bundles,
)
from schubert.charclass import PlaneForm, RankTwoForm, line_values
from schubert.hrr import chi_form
from schubert.classify import (
    FILTER_RULES,
    GRIFFITHS_ELIMINATED,
    NONSPLIT_DATA,
    SCAN_HI,
    SCAN_LO,
    SCHUR_CYCLES,
    STEP1_SURVIVORS,
    CandidateRecord,
    evaluate_candidate,
    scan_forms,
    scan_line,
    schur3_form,
    step1_survivors,
    survivors,
)

from oracles import lower_set


def brute_force_splitting_types(e, n, span=12):
    out = []
    for p in range(-span, span + 1):
        q = e - p
        if p <= q and 2 * p + (n + 1 - e) > 0:
            out.append((p, q))
    return out


def test_fano_splitting_types_display():
    assert fano_splitting_types(0, 4) == [(-2, 2), (-1, 1), (0, 0)]
    assert fano_splitting_types(-1, 4) == [(-2, 1), (-1, 0)]
    assert fano_splitting_types(0, 2) == [(-1, 1), (0, 0)]
    assert fano_splitting_types(0, 5) == [(-2, 2), (-1, 1), (0, 0)]


def test_fano_splitting_types_brute_force():
    for e in (0, -1):
        for n in range(2, 8):
            assert fano_splitting_types(e, n) == brute_force_splitting_types(e, n)
    with pytest.raises(ValueError):
        fano_splitting_types(0, 1)


def test_split_fano_bundles():
    assert split_fano_bundles(4) == [(0, 0), (-1, 1), (-2, 2), (-1, 0), (-2, 1)]
    assert split_fano_bundles(2) == [(0, 0), (-1, 1), (-1, 0)]
    assert split_fano_bundles(3) == [(0, 0), (-1, 1), (-1, 0), (-2, 1)]
    for n in range(2, 7):
        for st in split_fano_bundles(n):
            assert st.p + st.q in (0, -1)
            assert abs(st.p - st.q) < n + 1


def test_ample_twist():
    assert ample_twist(0) == Fraction(5, 2)
    assert ample_twist(-1) == 3


@pytest.mark.parametrize("e", [1, 2, -2])
@pytest.mark.parametrize(
    "check",
    [ample_twist, positivity_filter, schur_filter, schwarzenberger_filter, griffiths_filter, evaluate_candidate],
)
def test_filters_refuse_data_that_is_not_normalized(check, e):
    args = (e,) if check is ample_twist else (e, 0, 0)
    with pytest.raises(ValueError, match="normalized data only"):
        check(*args)


@pytest.mark.parametrize("cache", ["cold", "warm"])
@pytest.mark.parametrize(
    "check", [positivity_filter, schur_filter, schwarzenberger_filter, griffiths_filter, evaluate_candidate]
)
def test_filters_refuse_a_float_coordinate_whatever_the_caches_hold(check, cache):
    # a float e equal to an int is the same cache key as the int, so it
    # would fail on cold folded forms and pass on forms some scan had cached;
    # a float a or b would reach the integer Horner loops of the lines
    for args in ((0, 1.0, 2), (0.0, 1, 2), (0, 1, 2.0), (-1.0, 0, 1)):
        scan_forms.cache_clear()
        if cache == "warm":
            scan_forms(0)
            scan_forms(-1)
        with pytest.raises(TypeError):
            check(*args)
    assert check(0, True, 2) == check(0, 1, 2)  # an int subclass is an int


def test_positivity_filter():
    v = positivity_filter(0, -6, -6)
    assert v.passed and v.witness["qa"] == Fraction(1, 4)
    assert not positivity_filter(0, -7, 0).passed
    v = positivity_filter(-1, -6, 0)
    assert not v.passed and v.witness["qa"] == 0  # strict inequality


def test_positivity_matches_stated_bounds():
    for e in (0, -1):
        for a in range(-8, 9):
            for b in range(-8, 9):
                stated = (a >= -6 and b >= -6) if e == 0 else (a > -6 and b > -6)
                assert positivity_filter(e, a, b).passed == stated


def test_schur_filter_closed_forms():
    # e' = e + 2m = 5 at both e, so each pairing is linear in (a, b), and the
    # verdict is both pairings >= 0: a <= 6 and a + b <= 12 at e = 0, 13 at e = -1
    closed_forms = {
        0: (lambda a: Fraction(125, 2) - 10 * a, lambda s: 125 - 10 * s, 12),
        -1: (lambda a: 65 - 10 * a, lambda s: 130 - 10 * s, 13),
    }
    for e, (point, hyper, sum_max) in closed_forms.items():
        for a in range(-6, 8):
            for b in range(-6, 9):
                v = schur_filter(e, a, b)
                assert v.witness["pairing_lines_through_point"] == point(a)
                assert v.witness["pairing_lines_in_hyperplane"] == hyper(a + b)
                assert v.passed == (a <= 6 and a + b <= sum_max), (e, a, b)


def test_schur_filter_boundary_cases():
    assert schur_filter(0, 6, 6).passed
    assert not schur_filter(0, 7, 0).passed
    assert not schur_filter(0, 0, 13).passed
    v = schur_filter(-1, 6, 7)
    assert v.passed  # the hyperplane pairing is 0, and the verdict asks only >= 0
    assert v.witness["pairing_lines_in_hyperplane"] == 0
    assert not v.witness["strict_positive"]


def test_schwarzenberger_filter():
    assert schwarzenberger_filter(0, -4, -4).passed
    assert schwarzenberger_filter(0, 0, 0).passed
    assert schwarzenberger_filter(-1, 6, 6).passed
    chis = schwarzenberger_filter(0, 0, 0).witness["chi"]
    assert chis[0] == 2 and chis[1] == 20


def test_griffiths_filter():
    v = griffiths_filter(-1, 6, 6)
    assert not v.passed and v.witness["chi_at_5"] == -935
    assert griffiths_filter(-1, 0, 1).passed
    v = griffiths_filter(0, 6, 6)
    assert v.passed and v.witness == {"applies": False}


# the repr of each kind of value: its text where short, the SHA-256 of its text where long
VALUE_REPRS = {
    "ring": "GrassmannRing(k=1, n=4)",
    "verdict": (
        "Verdict(rule='positivity', passed=True, witness={'qa': Fraction(1, 4), 'qb': Fraction(1, 4)}, "
        "citation='ample Q-twists restrict to subvarieties with positive Chern classes "
        "(Bloch-Gieseker); cited, not verified')"
    ),
    "final-list entry": (
        "BundleType(kind='split', split=SplittingType(p=0, q=0), "
        "data=RankTwoData(e=0, a=0, b=0), name='O+O')"
    ),
    "euler polynomial": "EulerPolynomial(coefficients=(Fraction(3, 1), Fraction(5, 2), Fraction(1, 2)))",
}
VALUE_REPR_SHA256 = {
    "scan record": "28410ce63db1c54f182aa76a9284167a08db515b2d6ef728c1fd6a2dae032293",
    "report": "8d32daf5bf6c3c7c739c854571e0115b53bf99e659fe889be073c62f3e4ecd9a",
}


def _value(name):
    if name == "ring":
        return GrassmannRing(1, 4)
    if name == "euler polynomial":
        return euler_polynomial(line_bundle(GrassmannRing(0, 2), 1))
    report = replay_proof()
    record = report.step1_table[0]
    return {
        "scan record": record,
        "verdict": record.verdicts[0],
        "final-list entry": report.final_list[0],
        "report": report,
    }[name]


@pytest.mark.parametrize("name", [*VALUE_REPRS, *VALUE_REPR_SHA256])
def test_values_are_immutable_named_tuples(name):
    value = _value(name)
    text = repr(value)
    if name in VALUE_REPRS:
        assert text == VALUE_REPRS[name]
    else:
        assert hashlib.sha256(text.encode()).hexdigest() == VALUE_REPR_SHA256[name]
    for attr in (value._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
    for again in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert type(again) is type(value) and again == value
    assert value == tuple(value)
    if name == "ring":
        assert hash(GrassmannRing(1, 4)) == hash(value)
        with pytest.raises(ValueError) as info:
            GrassmannRing(4, 1)
        assert str(info.value) == "need 0 <= k < n, got k=4, n=1"


def test_candidate_scan_table():
    records = enumerate_candidates()
    assert len(records) == 2 * (SCAN_HI - SCAN_LO + 1) ** 2
    pre = survivors(records, "schwarzenberger")
    assert len(pre) == 10
    got = {e: sorted((r.data.a, r.data.b) for r in pre if r.data.e == e) for e in (0, -1)}
    assert got == {e: sorted(v) for e, v in STEP1_SURVIVORS.items()}
    post = survivors(records, "griffiths")
    assert len(post) == 9
    killed = [r for r in pre if r.status == "eliminated"]
    assert [r.data for r in killed] == [GRIFFITHS_ELIMINATED]
    assert killed[0].verdict("griffiths").witness["chi_at_5"] == -935
    assert step1_survivors(records) == pre


def _typed(value):
    """``value`` beside its type, a tuple item by item."""
    if type(value) is tuple:
        return tuple, tuple(map(_typed, value))
    return type(value), value


def _typed_record(rec: CandidateRecord) -> tuple:
    verdicts = [
        (_typed(v.rule), _typed(v.passed), {k: _typed(x) for k, x in v.witness.items()}, _typed(v.citation))
        for v in rec.verdicts
    ]
    return tuple(map(_typed, rec.data)), verdicts, _typed(rec.status), _typed(rec.detail)


def test_the_scan_equals_the_filters_applied_candidate_by_candidate():
    # the per-candidate path: at each (e, a, b) in canonical order, the
    # exported filters in order up to the first failure, each verdict built
    # on its own; the scan's records, built from its rows, must equal these
    # in every value and in the type of every witness
    expected = []
    for e in (0, -1):
        for a in range(SCAN_LO, SCAN_HI + 1):
            for b in range(SCAN_LO, SCAN_HI + 1):
                verdicts = []
                for rule in classify._FILTERS:
                    verdicts.append(rule(e, a, b))
                    if not verdicts[-1].passed:
                        break
                last = verdicts[-1]
                status, detail = ("surviving", "") if last.passed else ("eliminated", last.rule)
                expected.append(CandidateRecord(RankTwoData(e, a, b), tuple(verdicts), status, detail))
    records = list(enumerate_candidates())
    assert len(records) == len(expected) == 1458
    assert records == expected
    assert list(map(_typed_record, records)) == list(map(_typed_record, expected))
    assert Counter(r.detail for r in records) == {
        "positivity": 53, "schur": 936, "schwarzenberger": 459, "griffiths": 1, "": 9,
    }


def test_candidate_survives_step1():
    records = enumerate_candidates()
    (rec,) = [r for r in records if r.data == RankTwoData(0, -4, 12)]
    assert rec.status == "surviving"


def test_eliminated_records_name_one_rule():
    for rec in enumerate_candidates():
        if rec.status == "eliminated":
            assert rec.detail == rec.verdicts[-1].rule
            assert not rec.verdicts[-1].passed
            assert all(v.passed for v in rec.verdicts[:-1])


def test_verdict_order_is_fixed():
    order = ("positivity", "schur", "schwarzenberger", "griffiths")
    for rec in enumerate_candidates():
        rules = tuple(v.rule for v in rec.verdicts)
        assert rules == order[: len(rules)]


def test_survivors_match_every_rule_up_to_the_stage():
    records = enumerate_candidates()
    for i, stage in enumerate(FILTER_RULES):
        wanted = FILTER_RULES[: i + 1]
        assert survivors(records, stage) == [r for r in records if all(r.passed(s) for s in wanted)]
    with pytest.raises(ValueError):
        survivors(records, "section-bound")


def test_candidate_evaluation_is_order_independent():
    records = enumerate_candidates()
    by_data = {r.data: r for r in records}
    sample = [(0, -4, -4), (0, 20, 20), (-1, 6, 6), (-1, -6, 0), (0, 3, 9), (-1, 0, 1)]
    for e, a, b in reversed(sample):
        again = evaluate_candidate(e, a, b)
        assert again == by_data[RankTwoData(e, a, b)]


def test_classical_bound_and_strict_bound_agree_after_integrality():
    # the verdict is both exact pairings >= 0, and strict_positive both > 0:
    # at e = 0 the two readings agree on the whole square; for e = -1 the
    # verdict admits the line a + b = 13, where the hyperplane pairing is 0,
    # and the scan must kill all of it before step 1: its
    # one point of positive qb and zero qa, (-6, 19), fails positivity, and
    # integrality kills the other twelve
    square = [(a, b) for a in range(SCAN_LO, SCAN_HI + 1) for b in range(SCAN_LO, SCAN_HI + 1)]
    assert len(square) == 729
    differ = {}
    for e in (0, -1):
        differ[e] = []
        for a, b in square:
            v = schur_filter(e, a, b)
            if v.passed != v.witness["strict_positive"]:
                differ[e].append((a, b))
    assert differ[0] == []
    assert len(differ[-1]) == 13 and all(a + b == 13 for a, b in differ[-1])
    records = {rec.data: rec for rec in enumerate_candidates()}
    for a, b in differ[-1]:
        assert schur_filter(-1, a, b).passed
        expected = "positivity" if (a, b) == (-6, 19) else "schwarzenberger"
        assert (records[-1, a, b].status, records[-1, a, b].detail) == ("eliminated", expected), (a, b)


def test_the_scan_square_holds_every_point_positivity_and_schur_pass():
    # the certificate of enumerate_candidates, checked on the filters
    # themselves: off the square, nothing near it passes both
    for e in (0, -1):
        for a in range(-40, 41):
            for b in range(-40, 41):
                if SCAN_LO <= a <= SCAN_HI and SCAN_LO <= b <= SCAN_HI:
                    continue
                assert not (schur_filter(e, a, b).passed and positivity_filter(e, a, b).passed), (e, a, b)


def test_the_scan_refuses_a_square_that_clips_the_region(monkeypatch):
    # positivity and Schur leave a, b in [-6, 18] at e = 0 and [-5, 18] at e = -1
    enumerate_candidates.cache_clear()
    try:
        for lo, hi in ((-6, 17), (-5, 20)):
            monkeypatch.setattr(classify, "SCAN_LO", lo)
            monkeypatch.setattr(classify, "SCAN_HI", hi)
            with pytest.raises(ReplayMismatch) as info:
                enumerate_candidates()
            assert info.value.step == "scan" and "e = 0" in str(info.value)
        # the smallest square the certificate accepts scans the same survivors;
        # it holds fewer candidates for positivity and Schur to eliminate, so
        # the frozen elimination counts refuse it
        monkeypatch.setattr(classify, "SCAN_LO", -6)
        monkeypatch.setattr(classify, "SCAN_HI", 18)
        records = enumerate_candidates()
        assert len(records) == 2 * 25**2
        pre = survivors(records, "schwarzenberger")
        got = {e: sorted((r.data.a, r.data.b) for r in pre if r.data.e == e) for e in (0, -1)}
        assert got == {e: sorted(v) for e, v in STEP1_SURVIVORS.items()}
        with pytest.raises(ReplayMismatch) as info:
            step1_survivors(records)
        assert (info.value.step, info.value.what) == ("step1", "the number of candidates each filter eliminates")
        assert info.value.got == {"positivity": 49, "schur": 732, "schwarzenberger": 459, "griffiths": 1}
    finally:
        enumerate_candidates.cache_clear()


def test_section_constraints():
    assert section_constraints(0, -4, -4, 2) == (0, 0, True)
    assert section_constraints(-1, -2, -2, 2) == (0, 0, True)
    assert section_constraints(-1, 0, 1, 1) == (0, 1, False)


def test_split_detect():
    assert split_detect(0, -1, -1) == SplittingType(-1, 1)
    assert split_detect(-1, 0, 0) == SplittingType(-1, 0)
    assert split_detect(0, -4, -4) == SplittingType(-2, 2)
    assert split_detect(-1, 0, 1) is None
    assert split_detect(0, 3, 3) is None  # no real roots
    assert split_detect(0, -2, -2) is None  # irrational roots
    assert split_detect(-1, 1, 1) is None  # non-integer roots


def test_restriction_to_p3():
    # the steps' own data: b never reaches the restriction
    assert restriction_to_p3(0, -4, 12) == (0, -4)
    assert restriction_to_p3(-1, -2, 7) == (-1, -2)
    assert restriction_to_p3(0, 0, 0) == (0, 0)


def test_restriction_to_p3_forgets_b_on_a_grid():
    square = range(SCAN_LO, SCAN_HI + 1)
    got = {(e, a, b): restriction_to_p3(e, a, b) for e in (0, -1, 3) for a in square for b in square}
    assert [data for data, pair in got.items() if pair != data[:2]] == []
    assert {type(x) for pair in got.values() for x in pair} == {int}


def test_steps_3_and_4_restrict_each_candidate_once(monkeypatch):
    calls = []
    right = classify.restriction_to_p3

    def counting(*data):
        calls.append(data)
        return right(*data)

    monkeypatch.setattr(classify, "restriction_to_p3", counting)
    classify._step3()
    assert calls == [data for data, _ in classify.STEP3_TABLE]
    calls.clear()
    classify._step4()
    assert calls == [data for data, _ in classify.STEP4_TABLE]


def test_replay_report():
    report = replay_proof()

    step2 = report.step2_results
    assert len(step2) == 1 and step2[0].data == RankTwoData(0, -4, -4)
    assert step2[0].status == "classified" and step2[0].detail == "O(-2)+O(2)"
    assert step2[0].verdict("minimal-sections").witness["chi_at_twist_-2"] == 1

    chi_column = [
        (tuple(r.data), r.verdict("restricted-sections").witness["chi_p3_twist_-1"])
        for r in report.step3_table
    ]
    assert chi_column == [
        ((0, -4, 12), 4),
        ((0, -1, -1), 1),
        ((0, -1, 3), 1),
        ((-1, -2, -2), 1),
        ((-1, -2, 7), 1),
    ]
    status = {tuple(r.data): (r.status, r.detail) for r in report.step3_table}
    assert status[(0, -4, 12)] == ("eliminated", "section-bound")
    assert status[(0, -1, 3)] == ("eliminated", "forced-split-consistency")
    assert status[(-1, -2, 7)] == ("eliminated", "forced-split-consistency")
    assert status[(0, -1, -1)] == ("classified", "O(-1)+O(1)")
    assert status[(-1, -2, -2)] == ("classified", "O(-2)+O(1)")

    step4 = {tuple(r.data): r for r in report.step4_results}
    assert step4[(0, 0, 0)].detail == "O+O"
    assert step4[(-1, 0, 0)].detail == "O(-1)+O"
    assert step4[(-1, 0, 1)].status == "classified"
    assert step4[(0, 0, 0)].verdict("restricted-sections").witness["chi_p3_twist_0"] == 2
    assert step4[(-1, 0, 1)].verdict("restricted-sections").witness["chi_p3_twist_0"] == 1

    final = report.final_list
    assert len(final) == 6
    splits = [b.split for b in final if b.kind == "split"]
    assert splits == split_fano_bundles(4)
    (nonsplit,) = [b for b in final if b.kind == "nonsplit"]
    assert nonsplit.data == NONSPLIT_DATA == RankTwoData(-1, 0, 1)
    assert "tautological" in nonsplit.name and "universal quotient" in nonsplit.name


def test_replay_is_deterministic():
    assert replay_proof() == replay_proof()


def test_theorem_rules_marked_cited():
    report = replay_proof()
    records = list(report.step2_results + report.step3_table + report.step4_results)
    records += [r for r in report.step1_table if r.verdict("griffiths") is not None]
    seen = set()
    for rec in records:
        for v in rec.verdicts:
            seen.add(v.rule)
            if v.rule != "schwarzenberger":
                assert "cited, not verified" in v.citation
    assert "griffiths" in seen and "minimal-sections" in seen


def test_normalization_at_the_boundary():
    # arbitrary data normalizes into the scan's e range
    for e in range(-4, 5):
        assert RankTwoData(e, 5, -3).twisted(-((e + 1) // 2)).e in (0, -1)


def _schur3_pairings(ring, data, cycles):
    v = rank_two_chern(ring, data)
    c1, c2 = v.c[1], v.c[2]
    schur3 = c1 * c1 * c1 - 2 * (c1 * c2)
    return [schur3.pair(ring.omega(i, j)) for i, j in cycles]


def test_scan_witnesses_match_general_path():
    cycles = ((0, 4), (1, 3))
    for rec in enumerate_candidates():
        data = rec.data
        schur = rec.verdict("schur")
        if schur is not None:
            twisted = data.twisted(ample_twist(data.e))
            assert [
                schur.witness["pairing_lines_through_point"],
                schur.witness["pairing_lines_in_hyperplane"],
            ] == _schur3_pairings(G14, twisted, cycles)
        integrality = rec.verdict("schwarzenberger")
        if integrality is not None:
            poly = euler_polynomial(rank_two_chern(G14, data))
            assert integrality.witness["chi"] == tuple(poly(k) for k in range(G14.dimension + 1))
        griffiths = rec.verdict("griffiths")
        if griffiths is not None and griffiths.witness["applies"]:
            expected = euler_characteristic(rank_two_chern(G14, data.twisted(5)))
            assert griffiths.witness["chi_at_5"] == expected


@pytest.mark.parametrize("cycle", SCHUR_CYCLES)
def test_schur_forms_equal_ring_products_on_a_unisolvent_node_set(cycle):
    # s(3) is of weighted degree 3 in (e, a, b), so agreement on the lower
    # set proves the identity
    nodes = lower_set(3)
    assert len(nodes) == 8
    for node in nodes:
        data = RankTwoData(*node)
        assert [schur3_form(G14, *cycle)(data)] == _schur3_pairings(G14, data, [cycle]), (cycle, data)


@pytest.mark.parametrize("ring_args", [(1, 4), (1, 5)])
def test_schur_forms_match_ring_products(ring_args):
    ring = GrassmannRing(*ring_args)
    cycles = ((0, 4), (1, 3))
    rng = random.Random(8128)
    for _ in range(30):
        data = RankTwoData(rng.randint(-3, 3), rng.randint(-6, 20), rng.randint(-6, 20))
        twisted = data.twisted(Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3))))
        got = [schur3_form(ring, i, j)(twisted) for i, j in cycles]
        assert got == _schur3_pairings(ring, twisted, cycles)


@pytest.mark.parametrize("name", ["chi_form", "schur3_form"])
def test_preflight_rejects_a_wrong_form(monkeypatch, name):
    right = getattr(classify, name)

    def wrong(*args):
        form = right(*args)
        return form._replace(den=2 * form.den)

    monkeypatch.setattr(classify, name, wrong)
    with pytest.raises(ReplayMismatch) as info:
        classify._preflight()
    assert info.value.step == "preflight"


@pytest.mark.parametrize("name", ["chi_form", "schur3_form"])
def test_preflight_refuses_a_wrong_form_before_folding_it(monkeypatch, name):
    # a wrong form folded into the scan's cache would outlive the monkeypatch
    right = getattr(classify, name)

    def wrong(*args):
        form = right(*args)
        return form._replace(den=3 * form.den)

    monkeypatch.setattr(classify, name, wrong)
    scan_forms.cache_clear()
    with pytest.raises(ReplayMismatch):
        classify._preflight()
    assert scan_forms.cache_info().currsize == 0


def test_preflight_refuses_a_wrong_scan_line(monkeypatch):
    # every line one off in its constant term at a = 2, inside the grid: the
    # forms are right, so only the grid's integer comparison of the line
    # values with the forms can refuse the lines
    plain = PlaneForm.line

    def wrong(plane, a):
        coeffs, den = plain(plane, a)
        return (*coeffs[:-1], coeffs[-1] + (a == 2)), den

    monkeypatch.setattr(PlaneForm, "line", wrong)
    with pytest.raises(ReplayMismatch) as info:
        classify._preflight()
    assert info.value.step == "preflight" and info.value.what.startswith("the scan line (0, 2)")
    assert type(info.value.got) is Fraction and type(info.value.expected) is Fraction
    assert info.value.got != info.value.expected


def test_positivity_witnesses_and_witness_types():
    records = enumerate_candidates()
    assert len(records) == 1458
    for rec in records:
        e, a, b = rec.data
        witness = rec.verdict("positivity").witness
        assert (witness["qa"], witness["qb"]) == RankTwoData(e, a, b).twisted(ample_twist(e))[1:]
        for v in rec.verdicts:
            for value in v.witness.values():
                for x in value if isinstance(value, tuple) else (value,):
                    assert isinstance(x, bool) or type(x) is Fraction, (rec.data, v.rule, x)


@pytest.mark.parametrize("e", [0, -1])
def test_folded_forms_match_the_unfolded_forms(e):
    # the scan's folds and folds at random rational twists, against the form
    # at the twisted data, on (a, b) far beyond the scan square
    rng = random.Random(5815 + e)
    m = ample_twist(e)
    chi = chi_form(G14)
    forms = scan_forms(e)
    folds = [(chi, k, folded) for k, folded in enumerate(forms.chi)]
    folds += [(schur3_form(G14, i, j), m, folded) for (i, j), folded in zip(SCHUR_CYCLES, forms.schur)]
    for form in (chi, *(schur3_form(G14, i, j) for i, j in SCHUR_CYCLES)):
        for _ in range(6):
            t = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            folds.append((form, t, form.at_twist(e, t)))
    assert len(folds) == G14.dimension + 1 + len(SCHUR_CYCLES) + 18
    for form, t, folded in folds:
        for _ in range(20):
            a, b = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
            [(got, _)] = line_values((folded.line(a),), (b,))
            expected = form(RankTwoData(e, a, b).twisted(t))
            assert type(expected) is Fraction
            assert got == (expected.numerator, expected.denominator), (e, t, a, b)
    assert forms.shift == RankTwoData(e, 0, 0).twisted(m).a


def test_scan_folds_each_form_once_per_twist(monkeypatch):
    folds, restrictions = Counter(), Counter()
    fold, restrict = RankTwoForm.at_twist, PlaneForm.line

    def counting_folds(form, e, t):
        folds[form, e, t] += 1
        return fold(form, e, t)

    def counting_restrictions(form, a):
        restrictions[form, a] += 1
        return restrict(form, a)

    monkeypatch.setattr(RankTwoForm, "at_twist", counting_folds)
    monkeypatch.setattr(PlaneForm, "line", counting_restrictions)
    scan_forms.cache_clear()
    enumerate_candidates.cache_clear()
    records = enumerate_candidates()
    info = scan_forms.cache_info()
    assert (info.misses, info.currsize) == (2, 2)  # one set of folded forms per e
    assert len(folds) == 2 * (G14.dimension + 1 + len(SCHUR_CYCLES))
    assert set(folds.values()) == {1}
    lines = 2 * (SCAN_HI - SCAN_LO + 1)
    # one lookup per line, plus one per e for the certificate
    assert info.hits + info.misses == lines + 2
    assert len(records) == 2 * (SCAN_HI - SCAN_LO + 1) ** 2
    # a cold scan with warm forms folds nothing and restricts each form
    # once per line: the rules read lines only, every rule of a candidate
    # the line of its a, the qb of positivity too
    folds.clear()
    restrictions.clear()
    enumerate_candidates.cache_clear()
    assert enumerate_candidates() == records
    assert not folds
    forms_per_line = len(SCHUR_CYCLES) + G14.dimension + 1
    assert sum(restrictions.values()) == lines * forms_per_line == 486
    assert set(restrictions.values()) == {1}


def test_a_cold_scan_applies_each_rule_once_per_line(monkeypatch):
    # each rule runs once over a line's run of b, never once per candidate,
    # and sees exactly the candidates that no rule before it eliminated
    passes, seen = Counter(), Counter()

    def counting(rule):
        def counted(line, bs):
            passes[rule.__name__] += 1
            seen[rule.__name__] += len(bs)
            return rule(line, bs)

        return counted

    plain, rules = enumerate_candidates(), classify._RULES
    monkeypatch.setattr(classify, "_RULES", tuple(map(counting, rules)))
    scan_forms.cache_clear()
    enumerate_candidates.cache_clear()
    try:
        records = enumerate_candidates()
    finally:
        enumerate_candidates.cache_clear()
    assert records == plain
    lines = 2 * (SCAN_HI - SCAN_LO + 1)
    assert set(passes) == {rule.__name__ for rule in rules}
    assert all(count <= lines for count in passes.values()) and passes["_positivity"] == lines
    left, expected = len(records), {}
    for rule, name in zip(rules, FILTER_RULES):
        expected[rule.__name__] = left
        left -= classify.STEP1_ELIMINATED[name]
    assert dict(seen) == expected


def _unfolded_verdicts(e, a, b):
    """The passed flag and witness of each filter, evaluated on the unfolded
    forms at the twisted data rather than on the scan's lines."""
    at_m = RankTwoData(e, a, b).twisted(ample_twist(e))
    _, qa, qb = at_m
    point, hyper = (schur3_form(G14, i, j)(at_m) for i, j in SCHUR_CYCLES)
    chis = tuple(chi_form(G14)(RankTwoData(e, a, b).twisted(k)) for k in range(G14.dimension + 1))
    griffiths = (
        (True, {"applies": False}) if e == 0 else (chis[5] >= 0, {"applies": True, "chi_at_5": chis[5]})
    )
    return (
        (qa > 0 and qb > 0, {"qa": qa, "qb": qb}),
        (
            a <= 6 and b <= (12 if e == 0 else 13) - a,
            {
                "pairing_lines_through_point": point,
                "pairing_lines_in_hyperplane": hyper,
                "strict_positive": point > 0 and hyper > 0,
            },
        ),
        (all(chi.denominator == 1 for chi in chis), {"chi": chis}),
        griffiths,
    )


def _witness_types(witness):
    return [type(x) for value in witness.values() for x in (value if isinstance(value, tuple) else (value,))]


@pytest.mark.parametrize("e", [0, -1])
def test_scan_lines_match_the_unfolded_forms(e):
    # lines of negative a far beyond the scan square, at random b, against
    # the forms at the twisted data
    rng = random.Random(1109 + e)
    m = ample_twist(e)
    point, hyper = (schur3_form(G14, i, j) for i, j in SCHUR_CYCLES)
    chi = chi_form(G14)
    for a in rng.sample(range(-10**4, 0), 40):
        line = scan_line(e, a)
        assert (line.e, line.a) == (e, a)
        # the number constant along the line as a reduced pair of ints
        qa = RankTwoData(e, a, 0).twisted(m).a
        assert list(map(type, line.qa)) == [int, int] and line.qa == qa.as_integer_ratio()
        # the pairing with the lines through a point is free of b
        assert len(line.schur) == len(SCHUR_CYCLES) and not any(line.schur[0][0][:-1])
        # every form of the line at a run of b, read as the scan reads them
        bs = [rng.randint(-10**4, 10**4) for _ in range(10)]
        for b, (got, _) in zip(bs, line_values((*line.schur, *line.chi), bs), strict=True):
            at_m = RankTwoData(e, a, b).twisted(m)
            expected = [point(at_m), hyper(at_m), *(chi(RankTwoData(e, a, b).twisted(k)) for k in range(len(line.chi)))]
            assert len(expected) == len(SCHUR_CYCLES) + G14.dimension + 1
            assert all(type(v) is Fraction for v in expected)
            assert got == tuple(n for v in expected for n in (v.numerator, v.denominator)), (e, a, b)


def test_filters_off_the_square_match_the_unfolded_forms():
    rng = random.Random(5815)
    outside = [*range(-10**4, SCAN_LO), *range(SCAN_HI + 1, 10**4)]
    for i, a in enumerate(rng.sample(outside, 1000)):
        e, b = -(i % 2), rng.randint(-60, 60)
        got = [rule(e, a, b) for rule in (positivity_filter, schur_filter, schwarzenberger_filter, griffiths_filter)]
        assert [(v.passed, v.witness) for v in got] == list(_unfolded_verdicts(e, a, b)), (e, a, b)
        for v in got:
            assert all(t is bool or t is Fraction for t in _witness_types(v.witness)), (e, a, b, v.rule)

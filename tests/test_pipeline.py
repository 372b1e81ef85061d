import random
from collections import Counter
from fractions import Fraction

import pytest

from schubert import (
    G14,
    FilterContext,
    GrassmannRing,
    RankTwoData,
    ReplayMismatch,
    SplittingType,
    classify,
    enumerate_candidates,
    euler_characteristic,
    euler_polynomial,
    fano_splitting_types,
    griffiths_filter,
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
from schubert.charclass import RankTwoForm
from schubert.hrr import chi_form
from schubert.classify import (
    FILTER_RULES,
    GRIFFITHS_ELIMINATED,
    NONSPLIT_DATA,
    SCAN_HI,
    SCAN_LO,
    SCHUR_CYCLES,
    STEP1_SURVIVORS,
    evaluate_candidate,
    scan_forms,
    schur3_form,
    step1_matches,
    survivors,
)


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


def test_filter_context():
    assert FilterContext(0).m == Fraction(5, 2)
    assert FilterContext(-1).m == 3
    with pytest.raises(ValueError):
        FilterContext(1)


def test_positivity_filter():
    v = positivity_filter(FilterContext(0), -6, -6)
    assert v.passed and v.witness["qa"] == Fraction(1, 4)
    assert not positivity_filter(FilterContext(0), -7, 0).passed
    v = positivity_filter(FilterContext(-1), -6, 0)
    assert not v.passed and v.witness["qa"] == 0  # strict inequality


def test_positivity_matches_stated_bounds():
    for e in (0, -1):
        ctx = FilterContext(e)
        for a in range(-8, 9):
            for b in range(-8, 9):
                stated = (a >= -6 and b >= -6) if e == 0 else (a > -6 and b > -6)
                assert positivity_filter(ctx, a, b).passed == stated


def test_schur_filter_closed_forms():
    ctx = FilterContext(0)
    for a in range(-6, 8):
        for b in range(-6, 8):
            v = schur_filter(ctx, a, b)
            assert v.witness["pairing_lines_through_point"] == Fraction(125, 2) - 10 * a
            assert v.witness["pairing_lines_in_hyperplane"] == 125 - 10 * (a + b)
            assert v.passed == (a <= 6 and b <= 12 - a)


def test_schur_filter_boundary_cases():
    assert schur_filter(FilterContext(0), 6, 6).passed
    assert not schur_filter(FilterContext(0), 7, 0).passed
    assert not schur_filter(FilterContext(0), 0, 13).passed
    v = schur_filter(FilterContext(-1), 6, 7)
    assert v.passed  # the classical bound b <= 13 - a holds with equality
    assert v.witness["pairing_lines_in_hyperplane"] == 0
    assert not v.witness["strict_positive"]


def test_schwarzenberger_filter():
    ctx0, ctx1 = FilterContext(0), FilterContext(-1)
    assert schwarzenberger_filter(ctx0, -4, -4).passed
    assert schwarzenberger_filter(ctx0, 0, 0).passed
    assert schwarzenberger_filter(ctx1, 6, 6).passed
    chis = schwarzenberger_filter(ctx0, 0, 0).witness["chi"]
    assert chis[0] == 2 and chis[1] == 20


def test_griffiths_filter():
    v = griffiths_filter(FilterContext(-1), 6, 6)
    assert not v.passed and v.witness["chi_at_5"] == -935
    assert griffiths_filter(FilterContext(-1), 0, 1).passed
    v = griffiths_filter(FilterContext(0), 6, 6)
    assert v.passed and v.witness == {"applies": False}


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
    assert step1_matches(records)


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
    ctx = {e: FilterContext(e) for e in (0, -1)}
    sample = [(0, -4, -4), (0, 20, 20), (-1, 6, 6), (-1, -6, 0), (0, 3, 9), (-1, 0, 1)]
    for e, a, b in reversed(sample):
        again = evaluate_candidate(ctx[e], a, b)
        assert again == by_data[RankTwoData(e, a, b)]


def test_classical_bound_and_strict_bound_agree_after_integrality():
    # for e = -1 the classical Schur bound admits the line a + b = 13 that
    # the strict pairing excludes; integrality must kill all of it
    records = enumerate_candidates()
    for rec in records:
        if rec.data.e != -1 or rec.status == "eliminated" and rec.detail in ("positivity", "schur"):
            continue
        schur = rec.verdict("schur")
        if schur is None or not schur.passed:
            continue
        if not schur.witness["strict_positive"]:
            assert not rec.passed("schwarzenberger"), rec.data


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
    assert restriction_to_p3(0, -4) == (0, -4)
    assert restriction_to_p3(-1, -2) == (-1, -2)
    assert restriction_to_p3(0, 0) == (0, 0)


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
        assert RankTwoData(e, 5, -3).normalized().e in (0, -1)
    with pytest.raises(ValueError):
        FilterContext(2)


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
            twisted = data.twisted(FilterContext(data.e).m)
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


def test_positivity_witnesses_and_witness_types():
    records = enumerate_candidates()
    assert len(records) == 1458
    for rec in records:
        e, a, b = rec.data
        witness = rec.verdict("positivity").witness
        assert (witness["qa"], witness["qb"]) == RankTwoData(e, a, b).twisted(FilterContext(e).m)[1:]
        for v in rec.verdicts:
            for value in v.witness.values():
                for x in value if isinstance(value, tuple) else (value,):
                    assert isinstance(x, bool) or type(x) is Fraction, (rec.data, v.rule, x)


@pytest.mark.parametrize("e", [0, -1])
def test_folded_forms_match_the_unfolded_forms(e):
    # the scan's folds and folds at random rational twists, against the form
    # at the twisted data, on (a, b) far beyond the scan square
    rng = random.Random(5815 + e)
    m = FilterContext(e).m
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
            got, expected = folded(a, b), form(RankTwoData(e, a, b).twisted(t))
            assert type(got) is Fraction and type(expected) is Fraction
            assert got == expected, (e, t, a, b)
    assert forms.shift == RankTwoData(e, 0, 0).twisted(m).a


def test_scan_folds_each_form_once_per_twist(monkeypatch):
    folds = Counter()
    fold = RankTwoForm.at_twist

    def counting(form, e, t):
        folds[form, e, t] += 1
        return fold(form, e, t)

    monkeypatch.setattr(RankTwoForm, "at_twist", counting)
    scan_forms.cache_clear()
    enumerate_candidates.cache_clear()
    records = enumerate_candidates()
    info = scan_forms.cache_info()
    assert (info.misses, info.currsize) == (2, 2)  # one set of folded forms per e
    assert len(folds) == 2 * (G14.dimension + 1 + len(SCHUR_CYCLES))
    assert set(folds.values()) == {1}
    # every other filter call is a hit; only Griffiths at e = 0 reads no form
    lookups = sum(v.witness.get("applies", True) for r in records for v in r.verdicts)
    assert info.hits + info.misses == lookups

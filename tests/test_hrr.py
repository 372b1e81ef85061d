import random
from fractions import Fraction

import pytest

from schubert import (
    ChernVector,
    EulerPolynomial,
    GrassmannRing,
    RankTwoData,
    chi_p3,
    euler_characteristic,
    euler_polynomial,
    line_bundle,
    rank_two_chern,
    tangent_bundle,
    tautological_quotient,
    tautological_subbundle,
)
from schubert.hrr import chi_form, tangent_todd

from oracles import bott_chi, line_bundle_chi


def test_chi_of_line_bundles(g14):
    assert euler_characteristic(line_bundle(g14, 0)) == 1
    assert euler_characteristic(line_bundle(g14, 1)) == 10
    assert euler_characteristic(line_bundle(g14, -1)) == 0
    assert euler_characteristic(ChernVector(g14, 1)) == 1


def test_chi_minus_935(g14):
    v = rank_two_chern(g14, RankTwoData(-1, 6, 6).twisted(5))
    assert euler_characteristic(v) == -935


def test_euler_polynomial_on_p3(p3):
    poly = euler_polynomial(ChernVector(p3, 1))
    # chi(O(k)) on P^3 is the binomial (k+1)(k+2)(k+3)/6
    assert poly.coefficients == (1, Fraction(11, 6), 1, Fraction(1, 6))
    for k in range(-6, 7):
        assert poly(k) == (k + 1) * (k + 2) * (k + 3) * Fraction(1, 6)


def test_euler_polynomial_call_matches_naive_sum(g14):
    polys = (
        euler_polynomial(rank_two_chern(g14, RankTwoData(-1, 6, 6))),
        EulerPolynomial((Fraction(3, 4), Fraction(-5, 6), Fraction(0), Fraction(7, 10))),
        EulerPolynomial((Fraction(2),)),
    )
    for poly in polys:
        for k in (*range(-5, 6), Fraction(1, 2), Fraction(-7, 3), Fraction(22, 9)):
            value = poly(k)
            assert isinstance(value, Fraction)
            assert value == sum(c * Fraction(k) ** j for j, c in enumerate(poly.coefficients))


def test_euler_polynomial_values(g14):
    assert euler_polynomial(rank_two_chern(g14, RankTwoData(0, 0, 0)))(0) == 2
    assert euler_polynomial(rank_two_chern(g14, RankTwoData(-1, 6, 6)))(5) == -935


def test_euler_polynomial_agrees_with_direct_twists(g14):
    rng = random.Random(20114)
    for data in (RankTwoData(0, -4, 12), RankTwoData(-1, 0, 1), RankTwoData(-1, -2, 7)):
        v = rank_two_chern(g14, data)
        poly = euler_polynomial(v)
        for _ in range(10):
            k = rng.randint(-12, 12)
            assert poly(k) == euler_characteristic(v.twist(k))


def test_euler_polynomial_degree_and_leading_coefficient(g14, p3):
    poly = euler_polynomial(rank_two_chern(g14, RankTwoData(0, 0, 0)))
    assert poly.degree == 6
    # leading coefficient is rank * degree(G) / dim!
    assert poly.coefficients[-1] == Fraction(2 * 5, 720)
    assert euler_polynomial(line_bundle(g14, 0)).coefficients[-1] == Fraction(5, 720)
    assert euler_polynomial(ChernVector(p3, 1)).coefficients[-1] == Fraction(1, 6)


def test_chi_p3_table_rows():
    assert chi_p3(0, -4, -1) == 4
    assert chi_p3(0, -1, -1) == 1
    assert chi_p3(-1, -2, -1) == 1


def test_chi_p3_trivial():
    assert chi_p3(0, 0, 0) == 2
    assert chi_p3(-1, 0, 0) == 1


def test_is_integer_valued(g14):
    assert euler_polynomial(line_bundle(g14, 1)).is_integer_valued()
    assert not EulerPolynomial((Fraction(0), Fraction(1, 2))).is_integer_valued()
    assert euler_polynomial(rank_two_chern(g14, RankTwoData(0, -4, 12))).is_integer_valued()


def test_chi_additive_over_direct_sums(g14):
    rng = random.Random(615)
    for _ in range(10):
        p, q = rng.randint(-4, 4), rng.randint(-4, 4)
        v = line_bundle(g14, p).direct_sum(line_bundle(g14, q))
        assert euler_characteristic(v) == euler_characteristic(
            line_bundle(g14, p)
        ) + euler_characteristic(line_bundle(g14, q))


def test_split_consistency_full_range(g14):
    chi_line = {t: euler_characteristic(line_bundle(g14, t)) for t in range(-8, 9)}
    for p in range(-4, 5):
        for q in range(-4, 5):
            split = rank_two_chern(g14, RankTwoData(p + q, p * q, p * q))
            assert euler_characteristic(split) == chi_line[p] + chi_line[q]


def test_serre_symmetry_on_p3():
    # chi(O(k)) = chi_p3 of O(k) + O minus chi(O); on a threefold Serre
    # duality flips the sign: chi(O(k)) = -chi(O(-k-4))
    def chi_line_p3(k):
        return chi_p3(k, 0, 0) - 1

    for k in range(-8, 9):
        assert chi_line_p3(k) == -chi_line_p3(-k - 4)


def test_integer_valued_for_split_and_tautological(g14):
    rng = random.Random(7103)
    for p in range(-4, 5):
        for q in range(-4, 5):
            poly = euler_polynomial(rank_two_chern(g14, RankTwoData(p + q, p * q, p * q)))
            assert poly.is_integer_valued()
    poly = euler_polynomial(rank_two_chern(g14, RankTwoData(-1, 0, 1)))
    assert poly.is_integer_valued()
    for _ in range(20):
        assert poly(rng.randint(-50, 50)).denominator == 1


@pytest.mark.parametrize("ring_args", [(0, 3), (1, 4), (1, 6), (2, 6), (3, 7)])
def test_line_bundle_chi_matches_borel_weil(ring_args):
    k, n = ring_args
    ring = GrassmannRing(k, n)
    poly = euler_polynomial(line_bundle(ring, 0))
    for t in range(-(n + 3), 5):
        expected = line_bundle_chi(k, n, t)
        assert euler_characteristic(line_bundle(ring, t)) == expected
        assert poly(t) == expected


@pytest.mark.parametrize("ring_args", [(1, 4), (1, 5)])
def test_chi_form_matches_general_path(ring_args):
    ring = GrassmannRing(*ring_args)
    form = chi_form(ring)
    rng = random.Random(31415)
    for _ in range(40):
        data = RankTwoData(rng.randint(-3, 3), rng.randint(-6, 20), rng.randint(-6, 20))
        for t in (0, rng.randint(-4, 6), Fraction(5, 2), Fraction(rng.randint(-9, 9), 4)):
            twisted = data.twisted(t)
            got = form(twisted)
            assert isinstance(got, Fraction)
            assert got == euler_characteristic(rank_two_chern(ring, twisted)), twisted


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chi_form_on_projective_space_matches_general_path(n):
    # a one-row box has no s(1,1): the form has no b terms, and chi_p3 reads it at b = 0
    ring = GrassmannRing(0, n)
    form = chi_form(ring)
    assert all(r == 0 for _, r, _ in form.rows)
    rng = random.Random(2024 + n)
    for _ in range(40):
        data = RankTwoData(rng.randint(-9, 9), rng.randint(-30, 30), 0)
        for t in (0, rng.randint(-6, 6), Fraction(rng.randint(-9, 9), 2)):
            e, a, _ = data.twisted(t)
            twisted = RankTwoData(e, a, 0)
            assert form(twisted) == euler_characteristic(rank_two_chern(ring, twisted)), (n, twisted)


def test_chi_p3_matches_closed_form_and_chern_vector_twist(p3):
    # Riemann-Roch on P^3 for rank two with c3 = 0, at x = c1 and y = c2 of
    # the twisted data: 2 + 11x/6 + x^2 - 2y + (x^3 - 3xy)/6
    for c1 in range(-3, 4):
        for c2 in range(-6, 13):
            v = rank_two_chern(p3, RankTwoData(c1, c2, 0))
            for t in range(-4, 7):
                x, y = c1 + 2 * t, c2 + t * c1 + t * t
                closed = 2 + Fraction(11 * x, 6) + x * x - 2 * y + Fraction(x**3 - 3 * x * y, 6)
                got = chi_p3(c1, c2, t)
                assert got == closed, (c1, c2, t)
                assert got == euler_characteristic(v.twist(t)), (c1, c2, t)


def test_bott_oracle_agrees_with_borel_weil():
    for k, n in ((0, 3), (1, 4), (2, 5), (3, 7)):
        for t in range(-(n + 3), 4):
            expected = line_bundle_chi(k, n, t)
            assert bott_chi(k, n, (t,) * (k + 1), (0,) * (n - k)) == expected
            assert bott_chi(k, n, (0,) * (k + 1), (t,) * (n - k)) == expected


@pytest.mark.parametrize("n", [4, 5, 6])
def test_tautological_subbundle_chi_matches_bott(n):
    # S = Sigma^(0,-1) S* and S* = Sigma^(1,0) S*, twisted by t
    ring = GrassmannRing(1, n)
    form = chi_form(ring)
    sub = tautological_subbundle(ring)
    cases = ((sub, RankTwoData(-1, 0, 1), (0, -1)), (sub.dual(), RankTwoData(1, 0, 1), (1, 0)))
    for bundle, data, alpha in cases:
        for t in range(-(n + 3), 4):
            expected = bott_chi(1, n, (alpha[0] + t, alpha[1] + t), (0,) * (n - 1))
            assert form(data.twisted(t)) == expected, (data, t)
            assert euler_characteristic(rank_two_chern(ring, data.twisted(t))) == expected
            assert euler_characteristic(bundle.twist(t)) == expected


@pytest.mark.parametrize("ring_args", [(1, 4), (2, 5), (3, 7)])
def test_quotient_and_tangent_chi_match_bott(ring_args):
    # Q = Sigma^(1,0..) Q, Q* = Sigma^(0..,-1) Q, T = S* (x) Q
    k, n = ring_args
    ring = GrassmannRing(k, n)
    quotient = tautological_quotient(ring)
    rest = (0,) * (n - k - 1)
    cases = (
        (quotient, (0,) * (k + 1), (1, *rest)),
        (quotient.dual(), (0,) * (k + 1), (*rest, -1)),
        (tangent_bundle(ring), (1,) + (0,) * k, (1, *rest)),
    )
    for bundle, alpha, beta in cases:
        for t in range(-(n + 2), 3):
            expected = bott_chi(k, n, tuple(a + t for a in alpha), beta)
            assert euler_characteristic(bundle.twist(t)) == expected, (bundle, t)


@pytest.mark.parametrize("ring_args", [(1, 4), (1, 5), (2, 5)])
def test_sym2_and_wedge2_chi_match_bott_through_adams_operations(ring_args):
    # psi^2 multiplies ch_m by 2^m, and ch(Sym^2 E), ch(Wedge^2 E) are
    # (ch(E)^2 + psi^2 ch(E)) / 2 and (ch(E)^2 - psi^2 ch(E)) / 2;
    # Sym^2 S* = Sigma^(2,0..) S* and Wedge^2 Q = Sigma^(1,1,0..) Q
    k, n = ring_args
    ring = GrassmannRing(k, n)
    todd = tangent_todd(ring)
    cases = (
        (tautological_subbundle(ring).dual(), 1, (2,) + (0,) * k, (0,) * (n - k)),
        (tautological_quotient(ring), -1, (0,) * (k + 1), (1, 1) + (0,) * (n - k - 2)),
    )
    for bundle, sign, alpha, beta in cases:
        ch = bundle.ch()
        psi2 = ring.zero()
        for m in range(ring.dimension + 1):
            psi2 = psi2 + 2**m * ch.graded(m)
        ch_square = (ch * ch + sign * psi2) / 2
        for t in range(-(n + 3), 4):
            expected = bott_chi(k, n, tuple(a + t for a in alpha), beta)
            got = (ch_square * line_bundle(ring, t).ch()).pair(todd)
            assert got == expected, (bundle, sign, t)

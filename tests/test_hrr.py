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
)
from schubert.hrr import chi_form

from oracles import line_bundle_chi


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

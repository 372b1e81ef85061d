import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from schubert.classify import STEP3_TABLE, STEP4_TABLE, restriction_to_p3
from schubert.hrr import chi_form, tangent_todd

from oracles import bott_chi, line_bundle_chi, lower_set, twist


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
            assert poly(k) == euler_characteristic(twist(v, k))


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


# G(3,7) and G(3,8), the largest ring of the big-ring benchmark, and every
# ring of dimension at most 12
SMALL_RINGS = [GrassmannRing(k, n) for n in range(1, 13) for k in range(n) if (k + 1) * (n - k) <= 12]
BOREL_WEIL_RINGS = [(0, 3), (1, 4), (1, 6), (2, 6), (3, 7), (3, 8)]
BOREL_WEIL_RINGS += [ring for ring in SMALL_RINGS if ring not in BOREL_WEIL_RINGS]


@pytest.mark.parametrize("ring_args", BOREL_WEIL_RINGS)
def test_line_bundle_chi_matches_borel_weil(ring_args):
    # euler_characteristic reads the ring's Hilbert polynomial; the Euler
    # polynomial pairs ch(O) against h^j * td(T) / j!
    k, n = ring_args
    ring = GrassmannRing(k, n)
    poly = euler_polynomial(line_bundle(ring, 0))
    for t in range(-(n + 3), n + 4):
        expected = line_bundle_chi(k, n, t)
        assert euler_characteristic(line_bundle(ring, t)) == expected
        assert poly(t) == expected


def _chi_by_the_character(v):
    return v.ch().pair(tangent_todd(v.ring))


@pytest.mark.parametrize("ring_args", [(0, 3), (1, 4), (2, 6), (3, 7)])
def test_hilbert_polynomial_path_matches_the_character_pairing_at_rational_twists(ring_args):
    # a vector with no class above c1 = s*h has chi = P(s) + (rank - 1) * P(0)
    ring = GrassmannRing(*ring_args)
    for rank in (0, 1, 2, 3):
        for s in (0, 1, -4, Fraction(1, 2), Fraction(-1, 2), Fraction(7, 3)):
            v = ChernVector(ring, rank, {1: s * ring.hyperplane()} if s else {})
            got = euler_characteristic(v)
            assert isinstance(got, Fraction)
            assert got == _chi_by_the_character(v), (ring_args, rank, s)


@given(
    st.sampled_from(SMALL_RINGS),
    st.integers(0, 4),
    st.fractions(min_value=-12, max_value=12, max_denominator=7),
)
def test_hilbert_polynomial_oracle_matches_the_character_pairing(ring, rank, s):
    v = ChernVector(ring, rank, {1: s * ring.hyperplane()})
    assert euler_characteristic(v) == _chi_by_the_character(v)


LINE_RINGS = [ring for ring in SMALL_RINGS if ring.k == 1 and ring.n >= 3]  # s(2) and s(1,1) both fit


@st.composite
def twist_series_bundles(draw) -> ChernVector:
    """A line bundle O(t) on a ring of dimension at most 12, or rank-two data
    (e, a, b) on a ring of lines of dimension at most 12."""
    small = st.integers(-8, 8)
    if draw(st.booleans()):
        return line_bundle(draw(st.sampled_from(SMALL_RINGS)), draw(small))
    return rank_two_chern(draw(st.sampled_from(LINE_RINGS)), RankTwoData(draw(small), draw(small), draw(small)))


@given(twist_series_bundles(), st.integers(-12, 12))
def test_euler_polynomial_twist_series_oracle_matches_direct_twists(v, k):
    # the Euler polynomial, one product ch(E) * td(T) paired with each
    # hyperplane power, against chi of v twisted by k through its power sums:
    # euler_characteristic (the Hilbert polynomial for a line bundle) and the
    # pairing of the twist's own Chern character with td(T)
    w = twist(v, k)
    assert euler_polynomial(v)(k) == euler_characteristic(w) == _chi_by_the_character(w)


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


@pytest.mark.parametrize("ring_args, count", [((1, 4), 30), ((1, 5), 55), ((0, 3), 6)], ids=["G(1,4)", "G(1,5)", "P3"])
def test_chi_form_equals_the_general_path_on_a_unisolvent_node_set(ring_args, count):
    # both sides are polynomials in (e, a, b) of weighted degree at most the
    # ring's dimension, so agreement on the lower set proves the identity,
    # rational twisted data included; P^3 has no s(1,1), and the form that
    # chi_p3 reads is checked at b = 0, on the nodes with no power of b
    ring = GrassmannRing(*ring_args)
    form = chi_form(ring)
    nodes = [(i, l, r) for i, l, r in lower_set(ring.dimension) if ring.k > 0 or r == 0]
    assert len(nodes) == count
    for node in nodes:
        data = RankTwoData(*node)
        assert form(data) == euler_characteristic(rank_two_chern(ring, data)), (ring_args, data)


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


@pytest.mark.parametrize("ring_args, zero", [
    ((0, 1), "ab"),  # P^1: a 1x1 box, neither s(2) nor s(1,1)
    ((1, 2), "a"),  # G(1,2) and G(2,3): one column, no s(2)
    ((2, 3), "a"),
    ((0, 2), "b"),  # P^2 and P^3: one row, no s(1,1)
    ((0, 3), "b"),
], ids=["P1", "G(1,2)", "G(2,3)", "P2", "P3"])
def test_chi_form_matches_general_path_on_small_boxes(ring_args, zero):
    # s(2) or s(1,1) is 0 where its index does not fit the box; the data sets
    # the matching coordinate to 0, so that rank_two_chern never builds it
    ring = GrassmannRing(*ring_args)
    form = chi_form(ring)
    rng = random.Random(sum(ring_args))
    for _ in range(40):
        e, a, b = rng.randint(-9, 9), rng.randint(-30, 30), rng.randint(-30, 30)
        data = RankTwoData(e, 0 if "a" in zero else a, 0 if "b" in zero else b)
        assert form(data) == euler_characteristic(rank_two_chern(ring, data)), (ring_args, data)
    if ring_args in ((0, 1), (1, 2), (2, 3)):
        # these three are P^1, P^2 and P^3 in their Plucker embeddings: chi(O + O(1)) = 1 + (dim + 1)
        assert form(RankTwoData(1, 0, 0)) == ring.dimension + 2


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
                assert got == euler_characteristic(twist(v, t)), (c1, c2, t)


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
            assert euler_characteristic(twist(bundle, t)) == expected


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
            assert euler_characteristic(twist(bundle, t)) == expected, (bundle, t)


@pytest.mark.parametrize("ring_args", [(0, 3), (1, 4), (2, 5), (3, 7), (3, 8)])
def test_tangent_todd_matches_the_newton_path(ring_args):
    # the right side derives the tangent's power sums back from its Chern
    # classes by Newton's identities; the left reads them off ch(T)
    ring = GrassmannRing(*ring_args)
    assert tangent_todd(ring) == tangent_bundle(ring).todd()


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
        pieces = ch.graded_pieces()
        psi2 = ring.zero()
        for m in range(ring.dimension + 1):
            psi2 = psi2 + 2**m * pieces[m]
        ch_square = (ch * ch + sign * psi2) / 2
        for t in range(-(n + 3), 4):
            expected = bott_chi(k, n, tuple(a + t for a in alpha), beta)
            got = (ch_square * line_bundle(ring, t).ch()).pair(todd)
            assert got == expected, (bundle, sign, t)


def test_restricted_chi_matches_the_koszul_complex_of_a_section_of_q(g14):
    # The P^3 of lines through a point is the zero locus of a regular section
    # of Q (rank 3), so its structure sheaf is resolved by the Koszul complex
    # 0 -> Wedge^3 Q* -> Wedge^2 Q* -> Q* -> O (Eisenbud, Commutative Algebra,
    # ch. 17); with Wedge^2 Q* = Q(-1) and Wedge^3 Q* = O(-1),
    # chi(E|P^3 (t)) = chi(E(t)) - chi(E(t) x Q*) + chi(E(t-1) x Q) - chi(E(t-1)).
    # The right side is one character paired with the Todd class of G(1,4),
    # with no code of the P^3 path.
    todd = tangent_todd(g14)
    q = tautological_quotient(g14)
    ch_q, ch_q_dual = q.ch(), q.dual().ch()
    koszul = g14.one() - ch_q_dual + (ch_q - g14.one()) * line_bundle(g14, -1).ch()
    points = [(*data, t) for data, _ in STEP3_TABLE + STEP4_TABLE for t in range(-3, 3)]
    rng = random.Random(1517)
    points += [
        (rng.randint(-3, 3), rng.randint(-12, 12), rng.randint(-12, 12), rng.randint(-3, 3)) for _ in range(100)
    ]
    assert len(points) == 148
    for e, a, b, t in points:
        ch_e = rank_two_chern(g14, RankTwoData(e, a, b)).ch()
        expected = (ch_e * (koszul * line_bundle(g14, t).ch())).pair(todd)
        assert chi_p3(*restriction_to_p3(e, a, b), t) == expected, (e, a, b, t)


def test_hyperplane_chi_matches_the_koszul_complex_of_a_section_of_s_dual(g14):
    # The G(1,3) of lines in a hyperplane is the zero locus of a regular
    # section of S* (rank 2), so its structure sheaf is resolved by the Koszul
    # complex 0 -> Wedge^2 S -> S -> O (Eisenbud, Commutative Algebra, ch. 17);
    # with Wedge^2 S = O(-1), chi_{G(1,3)}(E|) = chi(E) - chi(E x S) + chi(E(-1)).
    # Each Schubert class of G(1,4) restricts to the one of the same index that
    # fits the 2x2 box, so E| has the data (e, a, b) of E.  The right side is
    # one character paired with the Todd class of G(1,4).
    todd = tangent_todd(g14)
    koszul = g14.one() - tautological_subbundle(g14).ch() + line_bundle(g14, -1).ch()
    chi_g13 = chi_form(GrassmannRing(1, 3))
    rng = random.Random(1913)
    for _ in range(200):
        data = RankTwoData(rng.randint(-3, 3), rng.randint(-12, 12), rng.randint(-12, 12))
        expected = (rank_two_chern(g14, data).ch() * koszul).pair(todd)
        assert chi_g13(data) == expected, data

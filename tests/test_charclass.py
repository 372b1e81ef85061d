import hashlib
import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from schubert import (
    ChernVector,
    ChowClass,
    GrassmannRing,
    PowerSumVector,
    RankTwoData,
    charclass,
    dual_partition,
    line_bundle,
    rank_two_chern,
    tangent_bundle,
    tautological_quotient,
    tautological_subbundle,
    todd_log_coefficients,
)
from schubert.charclass import (
    PlaneForm,
    RankTwoForm,
    line_values,
    rank_two_character,
    rank_two_form,
)
from schubert.hrr import tangent_todd

from oracles import todd_log_series, twist


def _random_vector(ring, rng, max_rank=3):
    rank = rng.randint(1, max_rank)
    comps = {}
    for d in range(1, ring.dimension + 1):
        coeffs = {la: Fraction(rng.randint(-3, 3)) for la in ring.basis(d) if rng.random() < 0.5}
        if coeffs:
            comps[d] = sum((c * ring.sigma(la) for la, c in coeffs.items()), ring.zero())
    return ChernVector(ring, rank, comps)


def test_rank_two_examples(g14):
    v = rank_two_chern(g14, RankTwoData(0, 0, 0))
    assert all(not v.c[d] for d in range(1, 7))
    taut = rank_two_chern(g14, RankTwoData(-1, 0, 1))
    assert taut.c[1] == -g14.hyperplane()
    assert taut.c[2] == g14.sigma((1, 1))
    big = rank_two_chern(g14, RankTwoData(-1, 6, 6))
    assert big.c[2] == 6 * g14.sigma((2,)) + 6 * g14.sigma((1, 1))


def test_tautological_subbundle_data(g14):
    # dual of the sub-dual: c1 = -s(1), c2 = s(1,1), i.e. data (-1, 0, 1)
    assert tautological_subbundle(g14) == rank_two_chern(g14, RankTwoData(-1, 0, 1))


def test_power_sums_single_root(g14):
    v = line_bundle(g14, 1)
    ps = v.power_sums()
    h = g14.hyperplane()
    for m in range(1, 7):
        assert ps.p[m] == h**m


def test_power_sums_rank_two(g14):
    v = rank_two_chern(g14, RankTwoData(0, -1, -1))
    ps = v.power_sums()
    assert ps.p[1] == g14.zero()
    assert ps.p[2] == 2 * g14.sigma((2,)) + 2 * g14.sigma((1, 1))
    # with c1 = 0, the second power sum is -2 c2
    assert ps.p[2] == -2 * v.c[2]


def test_newton_round_trip_randomized(g14):
    rng = random.Random(8644)
    for _ in range(100):
        v = _random_vector(g14, rng)
        assert v.power_sums().to_chern() == v


def test_chern_character_trivial(g14):
    assert ChernVector(g14, 5).ch() == 5 * g14.one()


def test_chern_character_line_bundle(g14):
    t = Fraction(3)
    expected = g14.zero()
    h = g14.hyperplane()
    for m in range(7):
        expected = expected + (t**m) * (h**m) / factorial(m)
    assert line_bundle(g14, t).ch() == expected


def test_ch_additive_td_multiplicative(g14):
    rng = random.Random(4631)
    for _ in range(10):
        v, w = _random_vector(g14, rng), _random_vector(g14, rng)
        s = v.direct_sum(w)
        assert s.ch() == v.ch() + w.ch()
        assert s.todd() == v.todd() * w.todd()


def test_todd_trivial(g14):
    assert ChernVector(g14, 3).todd() == g14.one()


def test_todd_p3(p3):
    h = p3.hyperplane()
    expected = p3.one() + 2 * h + Fraction(11, 6) * h**2 + h**3
    assert tangent_bundle(p3).todd() == expected


def test_todd_log_coefficients_invert_the_series():
    # exp of the log series must reproduce x / (1 - exp(-x)) as a power
    # series; the inverse series is computed here by an independent route.
    n = 8
    a = todd_log_coefficients(n)
    assert a[0] == Fraction(1, 2)
    assert a[1] == Fraction(-1, 24)
    assert a[2] == 0
    log_series = [Fraction(0), *a]
    exp_series = [Fraction(1)] + [Fraction(0)] * n
    for m in range(1, n + 1):
        exp_series[m] = sum(
            j * log_series[j] * exp_series[m - j] for j in range(1, m + 1)
        ) / m
    q = [Fraction((-1) ** i, factorial(i + 1)) for i in range(n + 1)]
    inverse_q = [Fraction(1)] + [Fraction(0)] * n
    for m in range(1, n + 1):
        inverse_q[m] = -sum(q[j] * inverse_q[m - j] for j in range(1, m + 1))
    assert exp_series == inverse_q


def test_todd_log_coefficients_closed_form_matches_the_series():
    # the closed form from the tangent numbers against the truncated-series
    # recurrence, far past the dimension of any ring the engine builds
    for n in range(41):
        assert todd_log_coefficients(n) == todd_log_series(n), n


@pytest.mark.parametrize("t", [-7, 2, Fraction(5, 3)])
def test_line_bundle_power_sums_are_powers_of_the_twist(monkeypatch, t):
    # p_m(O(t)) = t^m h^m on G(3,8) by Newton's recurrence, which skips the
    # terms of zero classes: p_1 = c1 is one term and each p_m = c1 * p_(m-1)
    # one more.  With c2 = s(2) alone, p_2 = -2*c2 is one term, each even
    # p_m = -c2 * p_(m-2) one more, and each odd p_m none
    ring = GrassmannRing(3, 8)
    h = ring.hyperplane()
    s2 = ring.sigma((2,))
    sizes = []
    plain = charclass.sum_of_products

    def recording(ring, terms, divisor=1):
        sizes.append(len(terms))
        return plain(ring, terms, divisor)

    monkeypatch.setattr(charclass, "sum_of_products", recording)
    p = line_bundle(ring, t).power_sums().p
    assert sizes == [1] * ring.dimension
    sizes.clear()
    c2_alone = ChernVector(ring, 2, {2: s2}).power_sums().p
    monkeypatch.undo()
    assert sizes == [1 - m % 2 for m in range(1, ring.dimension + 1)]
    for m in range(1, ring.dimension + 1):
        assert p[m] == t**m * h**m
        # the roots are the two square roots of -c2
        assert c2_alone[m] == (2 * (-1) ** (m // 2) * s2 ** (m // 2) if m % 2 == 0 else ring.zero()), m


def test_twist_identity_and_composition(g14):
    rng = random.Random(977)
    for _ in range(10):
        v = _random_vector(g14, rng)
        assert twist(v, 0) == v
        s, t = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))), Fraction(rng.randint(-6, 6), 2)
        assert twist(twist(v, s), t) == twist(v, s + t)


def test_twist_matches_coordinate_twist(g14):
    for data in (RankTwoData(0, -4, -4), RankTwoData(-1, 6, 6), RankTwoData(-1, 0, 1)):
        for t in (1, -2, 5, Fraction(5, 2), Fraction(-3, 2)):
            assert twist(rank_two_chern(g14, data), t) == rank_two_chern(g14, data.twisted(t))


def test_rational_twist_shifts(g14):
    # the ample normalizing twist m = 5/2 adds me + m^2 = 25/4 to both
    # second-Chern coordinates when e = 0
    data = RankTwoData(0, -6, 2).twisted(Fraction(5, 2))
    assert data.e == 5
    assert data.a == -6 + Fraction(25, 4)
    assert data.b == 2 + Fraction(25, 4)
    assert RankTwoData(-1, 6, 6).twisted(5).e == 9


def test_normalized_representative():
    # the twist by -((e + 1) // 2) takes any e to 0 or -1, and leaves both
    # normalized e alone
    def normalized(data):
        return data.twisted(-((data.e + 1) // 2))

    for e in range(-5, 6):
        for a, b in ((3, -2), (5, -3)):
            data = normalized(RankTwoData(e, a, b))
            assert data.e in (0, -1)
            assert normalized(data) == data
    assert normalized(RankTwoData(0, -4, -4)) == RankTwoData(0, -4, -4)


def test_dual(g14):
    rng = random.Random(31)
    for _ in range(10):
        v = _random_vector(g14, rng)
        assert v.dual().dual() == v
    assert line_bundle(g14, 2).dual() == line_bundle(g14, -2)


def test_direct_sum_of_line_bundles(g14):
    h = g14.hyperplane()
    for p, q in ((2, 3), (-2, 2), (0, -1)):
        s = line_bundle(g14, p).direct_sum(line_bundle(g14, q))
        assert s.rank == 2
        assert s.c[1] == (p + q) * h
        assert s.c[2] == (p * q) * (h * h)
        # so split bundles carry coordinates a = b = pq
        assert s == rank_two_chern(g14, RankTwoData(p + q, p * q, p * q))


def test_tensor_ch_matches_twist(g14):
    v = rank_two_chern(g14, RankTwoData(-1, 6, 6))
    assert v.ch() * line_bundle(g14, 5).ch() == twist(v, 5).ch()


def test_tangent_bundle(g14, p3):
    t3 = tangent_bundle(p3)
    assert t3.rank == 3
    assert t3.c[1] == 4 * p3.hyperplane()
    t = tangent_bundle(g14)
    assert t.rank == 6
    assert t.c[1] == 5 * g14.hyperplane()
    assert t.c[6].integrate() == 10


@pytest.mark.parametrize(
    "ring_args, euler_number", [((3, 7), 70), ((2, 8), 84), ((3, 8), 126)]
)
def test_tangent_bundle_gauss_bonnet_on_the_benchmark_rings(ring_args, euler_number):
    # the inverse Newton recurrence on the rings of the big-ring benchmark:
    # the top Chern class integrates to the Euler number C(n+1, k+1), the
    # number of torus-fixed points
    k, n = ring_args
    ring = GrassmannRing(k, n)
    t = tangent_bundle(ring)
    assert t.rank == ring.dimension
    assert t.c[1] == (n + 1) * ring.hyperplane()
    assert t.c[ring.dimension].integrate() == comb(n + 1, k + 1) == euler_number


# SHA-256 of repr(tangent_bundle(R).c) and repr(tangent_todd(R)) on the
# rings of the big-ring benchmark: a coefficient moved anywhere in the
# product table, the LR layer or the recurrences changes one of them
BIG_RING_CLASS_SHA256 = {
    (3, 7): (
        "5e7b7d64eac32488ba468d11835d45edfb33debf16bf69d08064bb4ca9b81e67",
        "0287fe306720ac78aab2118070ccc27829974079af28fcfc28b2767fcf4be061",
    ),
    (2, 8): (
        "9833d0205afa44fddb743cff4fd573932f525f365c831df3166772f08a7d51f1",
        "9ee55bf01ce0f7389e088ff7df97d7498f4822a9740fc5909e931e8e88b4948d",
    ),
    (3, 8): (
        "3afbb998ba7caa15dc0e3ec7d1cb8e1a8f28163957d8969b649d9ea342419827",
        "0e6fc0e5a25f5304974b1dcd250de2a77646058673bf2ee4298535a0ff13b72a",
    ),
}


@pytest.mark.parametrize("ring_args", sorted(BIG_RING_CLASS_SHA256))
def test_big_ring_tangent_and_todd_classes_are_pinned(ring_args):
    ring = GrassmannRing(*ring_args)
    got = tuple(
        hashlib.sha256(repr(cls).encode()).hexdigest() for cls in (tangent_bundle(ring).c, tangent_todd(ring))
    )
    assert got == BIG_RING_CLASS_SHA256[ring_args]


# S of rank 3 and 4 on the last two: c_3(S) and c_4(S) carry the signs (-1)^d
@pytest.mark.parametrize("ring_args", [(0, 3), (1, 3), (1, 4), (2, 5), (3, 7)])
def test_tautological_sequence(ring_args):
    ring = GrassmannRing(*ring_args)
    product = tautological_subbundle(ring).total() * tautological_quotient(ring).total()
    assert product == ring.one()


# every G(k, n) of dimension at most 20, dual pairs G(k, n) and G(n-k-1, n) both
SMALL_RINGS = [(k, n) for n in range(1, 21) for k in range(n) if (k + 1) * (n - k) <= 20]


def _hook_power_sum(ring, m):
    """p_m(Q) by the Murnaghan-Nakayama rule read with sigma_la = s_la'(Q):
    the hooks of size m in the box, each signed by (-1)^(arm length)."""
    acc = ring.zero()
    for la in ring.basis(m):
        if all(part == 1 for part in la[1:]):
            acc = acc + (-1) ** (la[0] - 1) * ring.sigma(la)
    return acc


def test_tangent_power_sums_closed_form_matches_newton_on_every_small_ring():
    # the hook sums against Newton's identities on the Chern classes of Q
    # and of S-dual, then the tangent's power sums against the character
    # product of the two Newton paths, field for field
    assert len(SMALL_RINGS) == 66
    for ring_args in SMALL_RINGS:
        ring = GrassmannRing(*ring_args)
        quotient = tautological_quotient(ring)
        sub_dual = tautological_subbundle(ring).dual()
        for m in range(1, ring.dimension + 1):
            hooks = _hook_power_sum(ring, m)
            assert quotient.power_sums().p[m] == hooks, (ring_args, m)
            assert sub_dual.power_sums().p[m] == (-1) ** (m + 1) * hooks, (ring_args, m)
        # p_m = m! * ch_m of the product of the two Newton characters
        character = (sub_dual.ch() * quotient.ch()).graded_pieces()
        newton = [factorial(m) * character[m] for m in range(1, ring.dimension + 1)]
        got = charclass.tangent_power_sums(ring)
        assert (got.ring, got.rank, got.p[0]) == (ring, sub_dual.rank * quotient.rank, ring.zero()), ring_args
        assert list(got.p[1:]) == newton, ring_args


def _schubert_degree(k, n):
    """deg G(k, n) = dim! * prod_{i=0..k} i! / (n - k + i)! (Schubert)."""
    degree = Fraction(factorial((k + 1) * (n - k)))
    for i in range(k + 1):
        degree *= Fraction(factorial(i), factorial(n - k + i))
    return degree


def test_hyperplane_powers_match_the_product_chain_on_every_small_ring():
    # the tableau counts against h^m built as the product chain h * h * ... * h,
    # and the chain's top degree, the Plucker degree, against Schubert's formula
    for ring_args in SMALL_RINGS:
        ring = GrassmannRing(*ring_args)
        h = ring.hyperplane()
        powers = ring.hyperplane_powers()
        assert len(powers) == ring.dimension + 1
        chain = ring.one()
        for m, power in enumerate(powers):
            assert power == chain, (ring_args, m)
            chain = chain * h
        assert ring.plucker_degree() == _schubert_degree(*ring_args), ring_args


def _power_sums_by_products(v):
    """p_m = c1*p_(m-1) - c2*p_(m-2) from p_0 = rank and p_1 = c1, each
    class built by explicit products: Newton's identities for a vector with
    no class above c2 whose c2 is zero unless its rank is 2."""
    ring, c = v.ring, v.c
    p = [v.rank * ring.one(), c[1]]
    for _ in range(2, ring.dimension + 1):
        p.append(c[1] * p[-1] - c[2] * p[-2])
    return p[1:]


def test_power_sums_without_higher_classes_match_explicit_products_on_every_small_ring():
    # Newton's identities against explicit products: line bundles, a rank-3
    # vector with c1 alone and a rank-two vector with c2 != 0
    for ring_args in SMALL_RINGS:
        ring = GrassmannRing(*ring_args)
        h = ring.hyperplane()
        c2 = ChowClass(ring, {la: Fraction(-3, 2) for la in ring.basis(2)})
        vectors = [line_bundle(ring, t) for t in (-12, -1, 0, 3, Fraction(5, 2))]
        vectors += [ChernVector(ring, 3, {1: Fraction(-2, 3) * h}), ChernVector(ring, 2, {1: 5 * h, 2: c2})]
        for v in vectors:
            got = v.power_sums()
            assert (got.ring, got.rank, got.p[0]) == (ring, v.rank, ring.zero())
            assert list(got.p[1:]) == _power_sums_by_products(v), (ring_args, v)


def test_chern_from_character_round_trip(g14):
    # the power sums read off the character, p_m = m! * ch_m, give the Chern classes back
    rng = random.Random(555)
    for _ in range(10):
        v = _random_vector(g14, rng)
        ch = v.ch().graded_pieces()
        p = [g14.zero()] + [factorial(m) * ch[m] for m in range(1, g14.dimension + 1)]
        assert PowerSumVector(g14, v.rank, tuple(p)).to_chern() == v


def _exp_by_powers(x):
    """exp(x) as sum_j x^j / j!, each power one full product of the whole
    class: the definition, with none of the graded recurrence."""
    ring = x.ring
    acc, power = ring.one(), ring.one()
    for j in range(1, ring.dimension + 1):
        power = power * x
        acc = acc + power / factorial(j)
    return acc


ZERO_PIECE_RINGS = (GrassmannRing(1, 4), GrassmannRing(2, 5), GrassmannRing(3, 7))


def _todd_by_powers(v):
    """td = exp(sum_m a_m * p_m), the a_m from the truncated log series of
    the oracles and exp the power series of full powers: none of the
    tangent numbers or the graded recurrence."""
    ring = v.ring
    x = ring.zero()
    for m, a in enumerate(todd_log_series(ring.dimension), 1):
        x = x + a * v.p[m]
    return _exp_by_powers(x)


@st.composite
def inhomogeneous_power_sums(draw, ring):
    """A power-sum vector on ``ring`` with pieces in at least two degrees:
    up to six basis classes of positive degree with nonzero Fraction
    coefficients, split by degree."""
    basis = [la for la in ring.all_partitions() if la]
    coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    indices = draw(
        st.lists(st.sampled_from(basis), min_size=2, max_size=6, unique=True).filter(
            lambda las: len({sum(la) for la in las}) > 1
        )
    )
    p = [ring.zero()] * (ring.dimension + 1)
    for la in indices:
        p[sum(la)] = p[sum(la)] + draw(coefficients) * ring.sigma(la)
    return PowerSumVector(ring, draw(st.integers(0, 3)), tuple(p))


@pytest.mark.parametrize("ring_args", [(1, 4), (2, 5), (3, 7)])
@given(data=st.data())
def test_exp_nilpotent_matches_the_power_series(ring_args, data):
    # td(p) is the exponential of the nilpotent class sum a_m * p_m: checked
    # against exp by full powers, then multiplicative over direct sums,
    # td(p + q) = td(p) * td(q), and td(p) * td(-p) = 1
    ring = GrassmannRing(*ring_args)
    p = data.draw(inhomogeneous_power_sums(ring))
    q = data.draw(inhomogeneous_power_sums(ring))
    td = p.todd()
    assert td == _todd_by_powers(p)
    both = PowerSumVector(ring, p.rank + q.rank, tuple(x + y for x, y in zip(p.p, q.p)))
    assert both.todd() == td * q.todd()
    negated = PowerSumVector(ring, -p.rank, tuple(-x for x in p.p))
    assert td * negated.todd() == ring.one()


@st.composite
def zero_piece_cases(draw):
    """A ring and graded pieces that vanish in some degrees: only degree 2,
    only the even degrees, or any set of degrees; each nonzero piece is a
    sum of up to three basis classes with nonzero Fraction coefficients."""
    ring = draw(st.sampled_from(ZERO_PIECE_RINGS))
    dim = ring.dimension
    degrees = draw(
        st.one_of(
            st.just([2]),
            st.just(list(range(2, dim + 1, 2))),
            st.lists(st.integers(1, dim), min_size=1, max_size=dim, unique=True),
        )
    )
    coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    pieces = {}
    for d in degrees:
        indices = draw(st.lists(st.sampled_from(ring.basis(d)), min_size=1, max_size=3, unique=True))
        pieces[d] = ChowClass(ring, {la: draw(coefficients) for la in indices})
    return ring, pieces


def _log_of_chern(ring, p):
    """log c = sum_m (-1)^(m-1) p_m / m for power sums p_1..p_dim, summed
    class by class."""
    acc = ring.zero()
    for m in range(1, ring.dimension + 1):
        acc = acc + p[m] * Fraction((-1) ** (m - 1), m)
    return acc


@given(zero_piece_cases())
@example((ZERO_PIECE_RINGS[2], {2: ZERO_PIECE_RINGS[2].sigma((1, 1))}))
def test_recurrences_with_zero_pieces_match_the_exponential_of_powers(case):
    # c = exp(sum (-1)^(m-1) p_m / m) and td = exp(sum a_m p_m), with exp
    # the power series of full powers: none of Newton's identities or the
    # graded recurrences
    ring, pieces = case
    dim = ring.dimension
    as_chern = ChernVector(ring, 2, pieces)
    p = as_chern.power_sums().p
    assert _exp_by_powers(_log_of_chern(ring, p)) == as_chern.total()
    as_power_sums = PowerSumVector(ring, 2, tuple(pieces.get(m, ring.zero()) for m in range(dim + 1)))
    log_c = _log_of_chern(ring, as_power_sums.p)
    assert as_power_sums.to_chern().total() == _exp_by_powers(log_c)
    for v in (as_power_sums, as_chern.power_sums()):
        assert v.todd() == _todd_by_powers(v)


def test_rank_is_an_integer(g14):
    # a Fraction rank once passed, with chi = 19/2 for rank 1/2, and a float
    # rank equal to an int made an equal vector with an equal hash; power
    # sums of rank 0.5 twisted into classes with float numerators
    p = line_bundle(g14, 1).power_sums().p
    for rank in (Fraction(1, 2), Fraction(1), 1.0, 2.5, "2", None):
        with pytest.raises(TypeError):
            ChernVector(g14, rank, {1: g14.hyperplane()})
        with pytest.raises(TypeError):
            PowerSumVector(g14, rank, p)
    v = ChernVector(g14, True, {1: g14.hyperplane()})
    assert type(v.rank) is int and v == ChernVector(g14, 1, {1: g14.hyperplane()})
    assert type(PowerSumVector(g14, True, p).rank) is int


def test_component_validation(g14):
    with pytest.raises(ValueError):
        ChernVector(g14, 2, {1: g14.sigma((2,))})  # wrong degree
    with pytest.raises(ValueError):
        ChernVector(g14, 2, {0: g14.one()})
    # a key of another type is a ValueError too, not a failed comparison,
    # and True is not degree 1
    for key in ("2", None, True, 2.0, -1):
        with pytest.raises(ValueError, match="positive integers"):
            ChernVector(g14, 2, {key: g14.hyperplane()})
    # above the ring dimension only the zero class is homogeneous: a nonzero
    # one was once skipped, and the vector was silently trivial with chi = 1
    with pytest.raises(ValueError, match="not homogeneous of degree 7"):
        ChernVector(g14, 1, {7: g14.hyperplane()})
    assert ChernVector(g14, 1, {7: g14.zero()}) == ChernVector(g14, 1)


@pytest.mark.parametrize("degree", [1, 2])
def test_a_component_from_another_ring_is_refused(g14, degree):
    # a foreign c1 once passed, and chi read its coefficient as if it were
    # one of G(1,4): 50 for 2h on G(1,5), the value of O(2) on G(1,4)
    foreign = 2 * GrassmannRing(1, 5).hyperplane() ** degree
    with pytest.raises(ValueError, match="classes live in different rings"):
        ChernVector(g14, 1, {degree: foreign})


@pytest.mark.parametrize("t", [0.5, 2.0, "1/2", None])
def test_power_sum_twist_refuses_inexact_scalars(g14, t):
    with pytest.raises(TypeError):
        line_bundle(g14, 1).power_sums().twisted(t)


def test_rank_two_form_call_matches_naive_sum():
    terms = {(0, 0, 0): 7, (3, 0, 0): -2, (1, 1, 0): Fraction(5, 12), (0, 1, 2): 3, (2, 0, 1): Fraction(-1, 8)}
    form = RankTwoForm.from_terms(terms)
    assert (form.den, form.top) == (24, 6)
    rng = random.Random(161)
    for denominators in ((1,), (1, 2, 3, 4)):
        for _ in range(30):
            data = RankTwoData(
                *(Fraction(rng.randint(-20, 20), rng.choice(denominators)) for _ in range(3))
            )
            if all(x.denominator == 1 for x in data):
                data = RankTwoData(*map(int, data))  # the int path of the scan's twists
            naive = sum(c * data.e**i * data.a**l * data.b**r for (i, l, r), c in terms.items())
            assert form(data) == naive


@st.composite
def line_forms(draw) -> tuple[tuple[int, ...], int]:
    """A line form, the (coefficients, denominator) pair ``PlaneForm.line``
    returns, whose coefficients are mostly multiples of its denominator, so
    that many values are integers."""
    den = draw(st.sampled_from((1, 2, 6, 720)) | st.integers(1, 10**6))
    offsets = st.just(0) | st.integers(-(10**6), 10**6)
    coeffs = draw(st.lists(st.builds(lambda q, r: den * q + r, st.integers(-(10**9), 10**9), offsets),
                           min_size=1, max_size=8))
    return tuple(coeffs), den


@given(st.lists(line_forms(), max_size=8).map(tuple), st.lists(st.integers(-40, 40) | st.integers(), max_size=6))
def test_horner_line_values_equal_each_line_form_call(forms, bs):
    # the scan's one loop over a line's forms and a run of b against each
    # form's polynomial at each b, summed power by power over its
    # denominator: each value as its reduced pair, the sign on the
    # numerator, one entry per b in the run's order
    got = line_values(forms, bs)
    assert len(got) == len(bs)
    for b, (values, integral) in zip(bs, got):
        expected = [
            Fraction(sum(c * b ** (len(coeffs) - 1 - k) for k, c in enumerate(coeffs)), den)
            for coeffs, den in forms
        ]
        assert values == tuple(n for v in expected for n in (v.numerator, v.denominator))
        assert all(type(n) is int for n in values)
        assert integral is all(v.denominator == 1 for v in expected)


@st.composite
def at_twist_planes(draw) -> tuple[PlaneForm, int, int]:
    """A plane form with the columns ``RankTwoForm.at_twist`` builds, the
    column of b^(half - k) of length k + 1, and a point (a, b)."""
    half = draw(st.integers(0, 5))
    coeff = st.integers(-(10**6), 10**6)
    cols = tuple(tuple(draw(st.lists(coeff, min_size=k + 1, max_size=k + 1))) for k in range(half + 1))
    point = st.integers(-30, 30) | st.integers(-(10**12), 10**12)
    return PlaneForm(cols, draw(st.integers(1, 10**4))), draw(point), draw(point)


@given(at_twist_planes())
def test_horner_plane_restriction_equals_the_plane_polynomial(case):
    # the restriction to a line, one Horner loop in a per column, read
    # through the scan's line_values, against the polynomial in (a, b)
    plane, a, b = case
    cols = plane.cols
    value = sum(
        c * a ** (len(col) - 1 - i) * b ** (len(cols) - 1 - j)
        for j, col in enumerate(cols)
        for i, c in enumerate(col)
    )
    line = plane.line(a)
    assert type(line) is tuple and len(line) == 2
    coeffs, den = line
    assert type(coeffs) is tuple and den == plane.den
    assert len(coeffs) == len(cols)
    expected = Fraction(value, plane.den)
    assert line_values((line,), (b,)) == [((expected.numerator, expected.denominator), expected.denominator == 1)]


@pytest.mark.parametrize("ring_args", [(1, 4), (1, 5), (2, 5)])
def test_rank_two_character_matches_ch(ring_args):
    # the (e, a, b)-form of ch(E) paired with each basis class is ch(E)'s coefficient
    ring = GrassmannRing(*ring_args)
    weights = rank_two_character(ring.dimension)
    rng = random.Random(2024)
    for la in ring.all_partitions():
        form = rank_two_form(ring, weights, ring.sigma(dual_partition(ring, la)))
        for _ in range(5):
            data = RankTwoData(rng.randint(-3, 3), rng.randint(-6, 6), Fraction(rng.randint(-6, 6), 2))
            assert form(data) == rank_two_chern(ring, data).ch().coefficient(la)

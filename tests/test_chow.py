import random
from fractions import Fraction
from math import gcd

import pytest

from schubert import GrassmannRing, chow, dual_partition
from schubert.chow import ChowClass
from schubert.partitions import conjugate, weight

from oracles import catalan, pieri_product


def test_ring_validation():
    with pytest.raises(ValueError):
        GrassmannRing(4, 4)
    with pytest.raises(ValueError):
        GrassmannRing(-1, 3)


def test_ring_shape(g14):
    assert g14.box == (2, 3)
    assert g14.dimension == 6
    assert [len(g14.basis(d)) for d in range(7)] == [1, 1, 2, 2, 2, 1, 1]
    assert len(g14.all_partitions()) == 10


def test_sigma_basics(g14):
    assert g14.sigma(()) == g14.one()
    assert g14.sigma((1,)) == g14.hyperplane()
    assert g14.sigma((3, 3)) == g14.point()
    with pytest.raises(ValueError):
        g14.sigma((4,))
    with pytest.raises(ValueError):
        g14.sigma((1, 1, 1))


def test_omega_dictionary(g14):
    assert g14.omega(2, 4) == g14.sigma((1,))
    assert g14.omega(1, 4) == g14.sigma((2,))
    assert g14.omega(2, 3) == g14.sigma((1, 1))
    assert g14.omega(0, 4) == g14.sigma((3,))
    assert g14.omega(1, 3) == g14.sigma((2, 1))
    assert g14.omega(1, 2) == g14.sigma((2, 2))


def test_omega_codimension(g14):
    for i in range(0, 4):
        for j in range(i + 1, 5):
            cls = g14.omega(i, j)
            (codim,) = cls.degrees()
            assert codim == 2 * g14.n - 1 - i - j


def test_omega_validation(g14, p3):
    with pytest.raises(ValueError):
        g14.omega(4, 4)
    with pytest.raises(ValueError):
        g14.omega(-1, 2)
    with pytest.raises(ValueError):
        p3.omega(0, 2)


def test_mul_examples(g14):
    s = g14.sigma
    assert s((1,)) * s((1,)) == s((2,)) + s((1, 1))
    assert s((1, 1)) * s((1, 1)) == s((2, 2))
    assert s((3, 3)) * s((1,)) == g14.zero()


def test_integrate_examples(g14):
    s = g14.sigma
    assert (s((3,)) * s((3,))).integrate() == 1
    assert (s((2, 1)) * s((3,))).integrate() == 0
    assert (s((1,)) ** 6).integrate() == 5


def test_dictionary_consistency(g14):
    # the (1,1)-type class of codimension two kills the point-class cycle
    assert g14.sigma((1, 1)) * g14.sigma((3,)) == g14.zero()
    assert (g14.sigma((2,)) ** 3).integrate() == 1


def test_degree_examples(g14, g13, p3):
    assert g14.plucker_degree() == 5
    assert g13.plucker_degree() == 2
    assert p3.plucker_degree() == 1


def test_degree_catalan_law():
    for n in range(2, 7):
        assert GrassmannRing(1, n).plucker_degree() == catalan(n - 1)


def test_poincare_duality_exhaustive(g14):
    basis = g14.all_partitions()
    for la in basis:
        for mu in basis:
            expected = int(mu == dual_partition(g14, la))
            assert (g14.sigma(la) * g14.sigma(mu)).integrate() == expected


@pytest.mark.parametrize("ring_args", [(1, 4), (1, 3), (2, 5), (3, 5)])
def test_pieri_oracle_agrees_with_lr_product(ring_args):
    ring = GrassmannRing(*ring_args)
    basis = ring.all_partitions()
    for la in basis:
        for mu in basis:
            got = (ring.sigma(la) * ring.sigma(mu)).coeffs
            expected = pieri_product(ring, la, mu)
            assert {k: Fraction(v) for k, v in expected.items()} == got


def test_pieri_oracle_on_random_pairs():
    # a 4 x 4 box, where products carry up to four LR labels; pairs are drawn
    # with |la| + |mu| <= dim, so that most products are not zero by degree
    ring = GrassmannRing(3, 7)
    basis = ring.all_partitions()
    rng = random.Random(2718)
    for _ in range(60):
        la = rng.choice(basis)
        mu = rng.choice([m for m in basis if weight(la) + weight(m) <= ring.dimension])
        got = (ring.sigma(la) * ring.sigma(mu)).coeffs
        assert {k: Fraction(v) for k, v in pieri_product(ring, la, mu).items()} == got


@pytest.mark.parametrize("ring_args", [(2, 6), (1, 5)])
def test_grassmann_duality_transposes_products(ring_args):
    # G(k, n) and G(n-k-1, n) are isomorphic, with sigma_la matching
    # sigma_la' (conjugate partition) and the boxes transposed
    ring = GrassmannRing(*ring_args)
    dual = GrassmannRing(ring.n - ring.k - 1, ring.n)
    assert dual.box == (ring.box.cols, ring.box.rows)
    basis = ring.all_partitions()
    for la in basis:
        for mu in basis:
            got = ring.sigma(la) * ring.sigma(mu)
            transposed = dual.sigma(conjugate(la)) * dual.sigma(conjugate(mu))
            assert {conjugate(nu): c for nu, c in got.num.items()} == transposed.num


def test_products_in_a_long_box_do_not_recurse():
    # P^2400: sigma_(1) * sigma_(1) fills a one-row skew shape of 2398 cells
    ring = GrassmannRing(0, 2400)
    assert ring.sigma((1,)) * ring.sigma((1,)) == ring.sigma((2,))
    assert ring.sigma((1200,)) * ring.sigma((1200,)) == ring.point()


def test_box_is_computed_once():
    ring = GrassmannRing(1, 4)
    assert ring.box is ring.box
    other = GrassmannRing(1, 4)
    assert ring == other and hash(ring) == hash(other)
    assert ring != GrassmannRing(1, 3)


def _random_class(ring, rng):
    coeffs = {}
    for la in ring.all_partitions():
        if rng.random() < 0.4:
            coeffs[la] = Fraction(rng.randint(-4, 4))
    return ChowClass(ring, coeffs)


@pytest.mark.parametrize("ring_args", [(1, 4), (1, 3), (2, 5)])
def test_mul_commutative_associative(ring_args):
    ring = GrassmannRing(*ring_args)
    rng = random.Random(1391)
    for _ in range(25):
        x, y, z = (_random_class(ring, rng) for _ in range(3))
        assert x * y == y * x
        assert x.pair(y) == (x * y).integrate()
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("ring_args", [(1, 4), (1, 3), (2, 5)])
def test_canonical_form(ring_args):
    # numerators over one positive denominator in lowest terms, no zero
    # numerators, so that equal classes have equal fields and hashes
    ring = GrassmannRing(*ring_args)
    rng = random.Random(3301)
    for _ in range(25):
        x = _random_class(ring, rng) * Fraction(rng.randint(-6, 6), rng.randint(1, 12))
        x = x + _random_class(ring, rng) / rng.randint(1, 12)
        y = _random_class(ring, rng) / 6
        for z in (x, y, x * y, x + y, x - y, -x, x.graded(2), 4 * y):
            assert z.den > 0
            assert gcd(z.den, *z.num.values()) == 1
            assert all(z.num.values())
        rebuilt = ChowClass(ring, x.coeffs)
        assert rebuilt == x
        assert hash(rebuilt) == hash(x)
        assert (x / 3) * 3 == x
        assert (x - x).den == 1


def test_inhomogeneous_classes(g14):
    x = g14.one() + g14.hyperplane()
    sq = x * x
    assert sq.graded(0) == g14.one()
    assert sq.graded(1) == 2 * g14.hyperplane()
    assert sq.graded(2) == g14.sigma((2,)) + g14.sigma((1, 1))
    assert sq.degrees() == [0, 1, 2]
    assert not sq.is_homogeneous(1)
    assert g14.zero().is_homogeneous(3)


def test_scalar_arithmetic(g14):
    h = g14.hyperplane()
    assert Fraction(1, 2) * h + Fraction(1, 2) * h == h
    assert (3 * h) / 3 == h
    assert 0 * h == g14.zero()
    assert h - h == g14.zero()
    assert -(-h) == h


def test_mismatched_rings_rejected(g14, g13):
    with pytest.raises(ValueError):
        g14.hyperplane() * g13.hyperplane()
    with pytest.raises(ValueError):
        g14.hyperplane() + g13.hyperplane()
    with pytest.raises(ValueError):
        g14.hyperplane().pair(g13.hyperplane())


def test_zero_coefficients_pruned(g14):
    cls = ChowClass(g14, {(1,): Fraction(0), (2,): Fraction(3)})
    assert (1,) not in cls.coeffs
    assert cls.coefficient((2,)) == 3
    assert cls.coefficient((1,)) == 0


@pytest.mark.parametrize("ring_args", [(1, 4), (2, 5)])
def test_products_skip_pairs_above_the_top_degree(monkeypatch, ring_args):
    ring = GrassmannRing(*ring_args)
    full = ChowClass(ring, {la: 1 for la in ring.all_partitions()})
    expected = ChowClass(ring, {})
    for la in ring.all_partitions():
        for mu in ring.all_partitions():
            expected = expected + ring.sigma(la) * ring.sigma(mu)
    looked_up = []
    plain = chow._basis_product

    def recording(box, la, mu):
        looked_up.append((la, mu))
        return plain(box, la, mu)

    monkeypatch.setattr(chow, "_basis_product", recording)
    assert full * full == expected
    dim = ring.dimension
    assert all(weight(la) + weight(mu) <= dim for la, mu in looked_up)
    basis = ring.all_partitions()
    assert len(looked_up) == sum(weight(la) + weight(mu) <= dim for la in basis for mu in basis)


@pytest.mark.parametrize("ring_args", [(1, 4), (2, 5)])
def test_products_look_up_each_unordered_pair_in_one_order(monkeypatch, ring_args):
    ring = GrassmannRing(*ring_args)
    basis = ring.all_partitions()
    full = ChowClass(ring, {la: 1 for la in basis})
    expected = ChowClass(ring, {})
    for la in basis:
        for mu in basis:
            expected = expected + ring.sigma(mu) * ring.sigma(la)
    looked_up = []
    plain = chow._basis_product

    def recording(box, la, mu):
        looked_up.append((la, mu))
        return plain(box, la, mu)

    monkeypatch.setattr(chow, "_basis_product", recording)
    assert full * full == expected
    assert looked_up and all(la <= mu for la, mu in looked_up)
    monkeypatch.undo()
    # so the cache holds one row per unordered pair below the top degree
    chow._basis_product.cache_clear()
    assert full * full == expected
    dim = ring.dimension
    unordered = sum(la <= mu and weight(la) + weight(mu) <= dim for la in basis for mu in basis)
    assert chow._basis_product.cache_info().currsize == unordered

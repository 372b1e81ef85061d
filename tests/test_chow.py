import operator
import random
import time
from decimal import Decimal
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from schubert import GrassmannRing, chow, dual_partition
from schubert.chow import ChowClass, linear_combination, sum_of_products
from schubert.partitions import contains, skew_lr_expansion, weight

from oracles import catalan, conjugate, pieri_product


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
            (codim,) = {weight(la) for la in cls.num}
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


def test_powers_stop_at_the_first_zero_power(g14):
    # sigma_1 is nilpotent: its seventh power is zero, so no further product is made
    start = time.perf_counter()
    assert g14.hyperplane() ** 10**9 == g14.zero()
    assert time.perf_counter() - start < 1.0
    assert (g14.hyperplane() ** 6).integrate() == 5
    assert g14.zero() ** 0 == g14.one()


def test_powers_of_a_class_with_a_constant_term_square_and_multiply(g14, monkeypatch):
    h = g14.hyperplane()
    expected = sum((comb(10**4, d) * h**d for d in range(7)), g14.zero())
    products = []
    plain_mul = ChowClass.__mul__

    def counted_mul(x, y):
        if isinstance(y, ChowClass):
            products.append(1)
        return plain_mul(x, y)

    monkeypatch.setattr(ChowClass, "__mul__", counted_mul)
    assert (g14.one() + h) ** 10**4 == expected
    # 10**4 has 14 binary digits: at most one squaring and one multiply per digit
    assert len(products) <= 2 * 14
    assert (g14.one() + h) ** 0 == g14.one()
    with pytest.raises(ValueError):
        h ** -1


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


def test_degree_refuses_a_non_integer_integral(g14, monkeypatch):
    # an error, not an assert: `python -O` would strip an assert and int() truncate 5/2 to 2
    monkeypatch.setattr(ChowClass, "integrate", lambda self: Fraction(5, 2))
    with pytest.raises(ArithmeticError, match="5/2"):
        g14.plucker_degree()


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
    # P^2400: sigma_(1) * sigma_(1) is read off the degree block (1, 2398),
    # whose rows are one-cell shapes; sigma_(1200)^2 off block (1200, 1200)
    ring = GrassmannRing(0, 2400)
    assert ring.sigma((1,)) * ring.sigma((1,)) == ring.sigma((2,))
    assert ring.sigma((1200,)) * ring.sigma((1200,)) == ring.point()


def test_rings_with_equal_k_and_n_are_equal():
    ring = GrassmannRing(1, 4)
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
        for z in (x, y, x * y, x + y, x - y, -x, x.graded_pieces()[2], 4 * y):
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
    pieces = sq.graded_pieces()
    assert pieces[0] == g14.one()
    assert pieces[1] == 2 * g14.hyperplane()
    assert pieces[2] == g14.sigma((2,)) + g14.sigma((1, 1))
    assert sorted({weight(la) for la in sq.num}) == [0, 1, 2]
    assert not sq.is_homogeneous(1)
    assert g14.zero().is_homogeneous(3)


def test_scalar_arithmetic(g14):
    h = g14.hyperplane()
    assert Fraction(1, 2) * h + Fraction(1, 2) * h == h
    assert (3 * h) / 3 == h
    assert 0 * h == g14.zero()
    assert h - h == g14.zero()
    assert -(-h) == h


@pytest.mark.parametrize("scalar", [0.1, 2.0, "1/3", "2", Decimal("0.5"), None])
def test_inexact_scalars_are_refused(g14, scalar):
    # only ints and Fractions enter the class arithmetic; 0.1 used to become
    # 3602879701896397/36028797018963968 of a class
    h = g14.hyperplane()
    for op in (operator.mul, lambda x, s: s * x, operator.truediv):
        with pytest.raises(TypeError):
            op(h, scalar)
    with pytest.raises(TypeError):
        ChowClass(g14, {(1,): scalar})


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


def _record_rows_from_a_cold_clear(monkeypatch):
    """Empty the product caches and record every row ``_lr_row`` builds
    from then on, as (la, mu, row), until ``monkeypatch.undo()``."""
    chow._table.cache_clear()
    chow._basis_product.cache_clear()
    built = []
    plain = chow._lr_row

    def recording(duals, la, mu):
        expansion, row = plain(duals, la, mu)
        built.append((la, mu, row))
        return expansion, row

    monkeypatch.setattr(chow, "_lr_row", recording)
    return built


def _full_square_after_a_cold_clear(monkeypatch, ring):
    """``full * full`` with every basis coefficient 1, from empty product
    caches, and every ``_lr_row`` row it built, with the row."""
    basis = ring.all_partitions()
    full = ChowClass(ring, {la: 1 for la in basis})
    expected = ChowClass(ring, {})
    for la in basis:
        for mu in basis:
            expected = expected + ring.sigma(la) * ring.sigma(mu)
    built = _record_rows_from_a_cold_clear(monkeypatch)
    assert full * full == expected
    assert full * full == expected  # a second product reads the table and builds nothing
    monkeypatch.undo()
    return built


def _enumerated_rows(ring, triples):
    """The rows the block fill enumerates for the given degree triples
    p <= q <= r: the pairs (la, mu) of block (q, r), |la| = q and |mu| = r,
    each unordered pair once (la <= mu when q == r), with mu inside la's
    dual."""
    basis = ring.all_partitions()
    return {
        (la, mu)
        for la in basis
        for mu in basis
        if (ring.dimension - weight(la) - weight(mu), weight(la), weight(mu)) in triples
        and (weight(la) < weight(mu) or la <= mu)
        and contains(dual_partition(ring, la), mu)
    }


def _degree_triples(ring):
    dim = ring.dimension
    return {(p, q, dim - p - q) for p in range(dim + 1) for q in range(p, dim + 1) if q <= dim - p - q}


@pytest.mark.parametrize("ring_args", [(1, 4), (2, 5)])
def test_products_skip_pairs_above_the_top_degree(monkeypatch, ring_args):
    # and every pair with mu outside la's dual, whose product is zero too
    ring = GrassmannRing(*ring_args)
    built = _full_square_after_a_cold_clear(monkeypatch, ring)
    dim = ring.dimension
    assert built
    for la, mu, row in built:
        assert weight(la) + weight(mu) <= dim
        assert contains(dual_partition(ring, la), mu)
        assert row  # no empty row is built, so none is cached
    # the rows are built uncached: the tracer-only ``_basis_product`` is never asked
    info = chow._basis_product.cache_info()
    assert (info.currsize, info.misses) == (0, 0)
    # products of zero pairs alone, from cold caches, do no LR work at all
    basis = ring.all_partitions()
    built = _record_rows_from_a_cold_clear(monkeypatch)
    for la in basis:
        for mu in basis:
            if not contains(dual_partition(ring, la), mu):
                assert ring.sigma(la) * ring.sigma(mu) == ring.zero()
    monkeypatch.undo()
    assert built == []


@pytest.mark.parametrize("ring_args", [(1, 4), (2, 5)])
def test_products_look_up_each_unordered_pair_in_one_order(monkeypatch, ring_args):
    ring = GrassmannRing(*ring_args)
    built = _full_square_after_a_cold_clear(monkeypatch, ring)
    pairs = [(la, mu) for la, mu, _ in built]
    assert len(pairs) == len(set(pairs))  # each row is built once
    # the dense square touches every block: the rows built are exactly the
    # enumerated rows of every degree triple
    assert set(pairs) == _enumerated_rows(ring, _degree_triples(ring))
    # one nonzero pair from cold caches: a pair of its triple's enumerated
    # block is built and stored alone; any other pair builds the rows of
    # that block and stores every pair of the triple's three blocks, in
    # both orders
    basis = ring.all_partitions()
    for la in basis:
        for mu in basis:
            if not contains(dual_partition(ring, la), mu):
                continue
            triple = tuple(sorted((weight(la), weight(mu), ring.dimension - weight(la) - weight(mu))))
            p, q, r = triple
            built = _record_rows_from_a_cold_clear(monkeypatch)
            ring.sigma(la) * ring.sigma(mu)
            monkeypatch.undo()
            built = [(x, y) for x, y, _ in built]
            stored = {(x, y) for x, row in chow._table(ring.box).items() for y in row}
            if ring.dimension - weight(la) - weight(mu) == p:
                assert built == [min((la, mu), (mu, la), key=lambda pair: (weight(pair[0]), pair))]
                assert stored == {(la, mu), (mu, la)}
                continue
            assert len(built) == len(set(built))
            assert set(built) == _enumerated_rows(ring, {triple})
            blocks = {(p, q), (p, r), (q, r)}
            assert stored == {
                (x, y) for x in basis for y in basis if tuple(sorted((weight(x), weight(y)))) in blocks
            }


def _assert_rows_are_the_skew_expansion(ring):
    """Every row stored in ``ring``'s product table is the skew expansion
    of la'/mu mapped through the duals, each index once; the pair is stored
    in both orders, as the empty row exactly when mu is not inside la';
    and a nonzero row outside its triple's enumerated block (the one whose
    content degree is the smallest of the three) comes with every pair of
    the three blocks of its degree triple."""
    table = chow._table(ring.box)
    dim = ring.dimension
    triples = set()
    for la, rows in table.items():
        dual = dual_partition(ring, la)
        for mu, row in rows.items():
            expected = {dual_partition(ring, ka): c for ka, c in skew_lr_expansion(dual, mu).items()}
            assert dict(row) == expected
            assert len(row) == len(expected)  # no index twice
            assert (row == ()) == (not contains(dual, mu))
            assert la in table[mu]
            triple = sorted((weight(la), weight(mu), dim - weight(la) - weight(mu)))
            if row and dim - weight(la) - weight(mu) > triple[0]:
                triples.add(tuple(triple))
    grades = {d: ring.basis(d) for d in range(dim + 1)}
    for p, q, r in triples:
        for i, j in ((p, q), (p, r), (q, r)):
            for x in grades[i]:
                assert all(y in table[x] for y in grades[j])


@pytest.mark.parametrize("ring_args", [(2, 6), (3, 8), (1, 4), (2, 5)])
def test_dense_product_stores_every_row_of_the_skew_expansion(ring_args):
    # G(2,5) has the tie p = q = r = 3; the others every other tie
    ring = GrassmannRing(*ring_args)
    basis = ring.all_partitions()
    full = ChowClass(ring, {la: 1 for la in basis})
    chow._table.cache_clear()
    full * full
    table = chow._table(ring.box)
    assert all(len(table[la]) == len(basis) for la in basis)  # one product fills the table
    _assert_rows_are_the_skew_expansion(ring)


@st.composite
def sparse_products(draw):
    """A ring whose box has at most 20 cells, and the indices of two
    classes of it, each a sum of up to eight basis classes."""
    rows, cols = draw(st.sampled_from(_SMALL_BOXES))
    ring = GrassmannRing(rows - 1, rows - 1 + cols)
    indices = st.lists(st.sampled_from(ring.all_partitions()), min_size=1, max_size=8, unique=True)
    return ring, draw(indices), draw(indices)


_SMALL_BOXES = [(rows, cols) for rows in range(1, 21) for cols in range(1, 20 // rows + 1)]


@given(sparse_products())
# degrees 1 <= 4 = 4 on G(2,5): the unordered pairs of block (4, 4) are
# enumerated once, and (2, 2) is not (3, 1)
@example((GrassmannRing(2, 5), [(3, 1)], [(2, 2)]))
def test_block_fill_on_random_boxes_matches_the_skew_expansion(case):
    ring, xs, ys = case
    chow._table.cache_clear()
    ChowClass(ring, {la: 1 for la in xs}) * ChowClass(ring, {mu: 1 for mu in ys})
    table = chow._table(ring.box)
    assert all(mu in table[la] and la in table[mu] for la in xs for mu in ys)
    _assert_rows_are_the_skew_expansion(ring)


KERNEL_RINGS = (GrassmannRing(1, 4), GrassmannRing(2, 5), GrassmannRing(3, 7))


def _classes(ring, max_size):
    """Sparse inhomogeneous classes of ``ring`` with Fraction coefficients,
    the zero class among them."""
    coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    return st.dictionaries(st.sampled_from(ring.all_partitions()), coefficients, max_size=max_size).map(
        lambda coeffs: ChowClass(ring, coeffs)
    )


def _kernel_terms(ring):
    """(weight, x, y) terms of classes of ``ring``."""
    classes = _classes(ring, 4)
    return st.lists(st.tuples(st.integers(-5, 5), classes, classes), max_size=4)


_KERNEL_TERMS = {ring: _kernel_terms(ring) for ring in KERNEL_RINGS}


_SCALARS = st.fractions(min_value=-6, max_value=6, max_denominator=12).filter(bool)


@st.composite
def kernel_cases(draw):
    """A ring, its terms, a divisor and a nonzero scalar; a term may be
    followed by its negation, so that the two cancel."""
    ring = draw(st.sampled_from(KERNEL_RINGS))
    terms = draw(_KERNEL_TERMS[ring])
    if terms and draw(st.booleans()):
        w, x, y = draw(st.sampled_from(terms))
        terms.append((-w, x, y))
    return ring, terms, draw(st.integers(1, 30)), draw(_SCALARS)


def _product_by_basis(x, y):
    """x * y as an {index: Fraction} dict, expanded bilinearly over products
    of basis classes, which the Pieri oracle checks; every other sum and
    product is taken on Fractions, outside the class layer."""
    ring = x.ring
    acc = {}
    for la, a in x.coeffs.items():
        for mu, b in y.coeffs.items():
            for nu, c in (ring.sigma(la) * ring.sigma(mu)).coeffs.items():
                acc[nu] = acc.get(nu, 0) + a * b * c
    return acc


def _weighted_sum(ring, weighted, divisor):
    """(1/divisor) * sum of w * v over the (w, v) in ``weighted``, Fraction
    weights and {index: Fraction} dicts, summed as Fractions and built into
    a class once, by the constructor."""
    acc = {}
    for w, v in weighted:
        for la, c in v.items():
            acc[la] = acc.get(la, 0) + w * c
    return ChowClass(ring, {la: c / divisor for la, c in acc.items()})


def _assert_canonical(z):
    assert z.den > 0
    assert gcd(z.den, *z.num.values()) == 1
    assert all(z.num.values())


_G37 = KERNEL_RINGS[2]
_X = ChowClass(_G37, {(1,): Fraction(1, 6), (2, 1): Fraction(-3, 4), (4, 4, 4, 4): 2})
_Y = ChowClass(_G37, {(): Fraction(5, 9), (3, 1): Fraction(7, 10)})
_MINUS_X = ChowClass(_G37, {la: -c for la, c in _X.coeffs.items()})


@given(kernel_cases())
@example((_G37, [(3, _X, _Y), (-2, _G37.zero(), _Y), (-3, _X, _Y), (4, _Y, _X)], 12, Fraction(-3, 4)))
@example((_G37, [(1, _X, _Y), (1, _MINUS_X, _Y)], 7, Fraction(5)))  # cancels to zero
def test_kernel_matches_products_sums_and_quotients(case):
    # the expected values use no class arithmetic beyond one-term basis products
    ring, terms, divisor, r = case
    linear = [(w, x) for w, x, _ in terms] + [(w, y) for w, _, y in terms]
    checks = [
        (sum_of_products(ring, terms, divisor), [(w, _product_by_basis(x, y)) for w, x, y in terms], divisor),
        (linear_combination(ring, linear, divisor), [(w, x.coeffs) for w, x in linear], divisor),
    ]
    # every class operation is a case of the linear kernel
    for w, x, y in terms:
        checks += [
            (x + y, [(1, x.coeffs), (1, y.coeffs)], 1),
            (x - y, [(1, x.coeffs), (-1, y.coeffs)], 1),
            (-x, [(-1, x.coeffs)], 1),
            (w * x, [(w, x.coeffs)], 1),
            (x * r, [(r, x.coeffs)], 1),
            (x / -abs(r), [(-1 / abs(r), x.coeffs)], 1),
            (0 * x, [], 1),
        ]
    for got, weighted, d in checks:
        expected = _weighted_sum(ring, weighted, d)
        assert (got.num, got.den) == (expected.num, expected.den)
        _assert_canonical(got)


@given(st.one_of(*(_classes(ring, 8) for ring in KERNEL_RINGS)))
@example(_G37.zero())
@example(ChowClass(_G37, {(1,): Fraction(1, 6), (2,): Fraction(1, 2), (1, 1): Fraction(3, 2), (3,): 4}))
def test_graded_pieces_split_equals_graded(x):
    # the oracle filters x.coeffs by weight and builds each piece with the constructor
    pieces = x.graded_pieces()
    coeffs = x.coeffs
    expected = [
        ChowClass(x.ring, {la: c for la, c in coeffs.items() if weight(la) == d})
        for d in range(x.ring.dimension + 1)
    ]
    assert [(p.num, p.den) for p in pieces] == [(e.num, e.den) for e in expected]
    for piece in pieces:
        _assert_canonical(piece)  # each piece in lowest terms, not over x.den


def test_kernel_refuses_mixed_rings(g14, g13):
    x, y = g14.hyperplane(), g13.hyperplane()
    for terms in ([(1, x, y)], [(1, y, x)], [(1, x, x), (2, y, y)]):
        with pytest.raises(ValueError):
            sum_of_products(g14, terms)
    with pytest.raises(ValueError):
        linear_combination(g14, [(1, x), (1, y)])
    for op in (operator.add, operator.sub):
        with pytest.raises(ValueError, match="different rings"):
            op(x, y)
    assert sum_of_products(g14, []) == linear_combination(g14, []) == g14.zero()

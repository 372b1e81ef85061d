"""Characteristic-class calculus over a Grassmann Chow ring.

A bundle is represented by its :class:`ChernVector` (rank plus the graded
pieces of the total Chern class).  Internally, Chern character and Todd
class computations run through power sums of the Chern roots
(:class:`PowerSumVector`): both are polynomial in power sums with universal
rational coefficients, which avoids transcribing degree-six universal Todd
polynomials by hand.  The Todd series coefficients are computed, never
hard-coded, in closed form from the integer tangent numbers
(``todd_log_coefficients``), and the exponential of a class is built degree
by degree by the graded recurrence of ``exp_nilpotent``.  Each graded piece
of a recurrence (Newton's identities and their inverse, ``exp`` and twists)
is one call of the ring's multiply-accumulate kernel
``chow.sum_of_products`` with int weights over one int divisor, over its
terms whose classes are both nonzero; Newton's identities, their inverse
and ``exp`` list the nonzero pieces of their input once per call, with
their signs, and keep the nonzero pieces they find by degree, so no pair of
degrees is tested for zero classes.  The inverse identities and ``exp``
share one solver of m * y_m = sum of w_i * x_i * y_{m-i} from y_0 = 1,
``_graded_solve``, each with its own weights.  Each weighted sum (``ch``,
the Todd weights, the total Chern class) is one call of
``chow.linear_combination``, so no term builds its own product, scaled copy
or partial sum.  A class is split by degree in one pass
(``ChowClass.graded_pieces``).  The tangent bundle's power sums are read
once off its Chern character ch(T) = ch(S-dual) * ch(Q)
(``tangent_power_sums``); its Chern classes and its Todd class both start
from them.  The two factors come from the hook formula, with no Newton
recurrence and no product: p_m(Q) is the signed sum of the hook classes of
size m in the box (the Murnaghan-Nakayama rule, Macdonald, Symmetric
Functions and Hall Polynomials, I.3 Ex. 11, read with sigma_la = s_la'(Q)),
and p_m(S-dual) = (-1)^(m+1) p_m(Q) since S + Q is trivial, so each
character is one ``linear_combination`` of basis classes over dim!, and
their product is the one product.  Newton's identities
(``ChernVector.power_sums``) serve every other bundle, a line bundle O(t)
among them.  The Euler characteristic of a bundle with no Chern class above
c1 needs no power sum: ``hrr.euler_characteristic`` reads it off the ring's
Hilbert polynomial, the one closed form for line bundles.

Rank-two data (e, a, b) on a ring of lines is twisted in its coordinates by
``RankTwoData.twisted``, which every pipeline path uses; a bundle v of any
rank twists through its power sums, ``v.power_sums().twisted(t).to_chern()``.
Rational twists are supported, and their "Chern classes" need not be
integral.  A ``RankTwoForm`` in (e, a, b) evaluates to an unreduced pair of
ints (``ratio``) and folds at a fixed e and twist into a ``PlaneForm`` in
(a, b) alone, one polynomial in a per power of b, which restricts at a
fixed a to a polynomial in b, a plain (coefficients, denominator) pair,
evaluated in integers over a run of b.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from typing import NamedTuple

from .chow import ChowClass, GrassmannRing, Scalar, linear_combination, sum_of_products
from .partitions import fits


class RankTwoData(NamedTuple):
    """Chern coordinates (e, a, b) of a rank-two bundle on a ring of lines:
    c1 = e*s(1) and c2 = a*s(2) + b*s(1,1)."""

    e: Scalar
    a: Scalar
    b: Scalar

    def twisted(self, t: Scalar) -> RankTwoData:
        """Coordinates after tensoring with t times the ample generator."""
        shift = t * self.e + t * t
        return RankTwoData(self.e + 2 * t, self.a + shift, self.b + shift)


class ChernVector:
    """Rank plus total Chern class of a bundle, one class per degree."""

    __slots__ = ("ring", "rank", "c")

    def __init__(self, ring: GrassmannRing, rank: int, components: dict[int, ChowClass] | None = None):
        dim = ring.dimension
        c = [ring.zero()] * (dim + 1)
        c[0] = ring.one()
        for d, cls in (components or {}).items():
            if type(d) is not int or d < 1:
                raise ValueError(f"component degrees must be positive integers, got {d}")
            if cls.ring != ring:
                raise ValueError(f"classes live in different rings: {ring} vs {cls.ring}")
            if not cls.is_homogeneous(d):
                raise ValueError(f"component {cls!r} is not homogeneous of degree {d}")
            if d <= dim:  # above the ring dimension only the zero class passes
                c[d] = cls
        self.ring = ring
        self.rank = rank
        self.c = tuple(c)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChernVector)
            and self.ring == other.ring
            and self.rank == other.rank
            and self.c == other.c
        )

    def __hash__(self):
        return hash((self.ring, self.rank, self.c))

    def __repr__(self) -> str:
        parts = [f"c{d}={cls!r}" for d, cls in enumerate(self.c) if d and cls]
        return f"ChernVector(rank={self.rank}, {', '.join(parts) if parts else 'trivial'})"

    def total(self) -> ChowClass:
        """The total Chern class 1 + c1 + c2 + ..."""
        return linear_combination(self.ring, [(1, cls) for cls in self.c])

    def power_sums(self) -> PowerSumVector:
        """Power sums of the Chern roots via Newton's identities:
        p_m = c1*p_{m-1} - c2*p_{m-2} + ... + (-1)^{m-1} m*c_m."""
        ring, c = self.ring, self.c
        one = ring.one()
        # the nonzero c_i with their signs, and the nonzero p_j met so far
        signed = [(i, -1 if i % 2 == 0 else 1, c[i]) for i in range(1, ring.dimension + 1) if c[i]]
        p = [ring.zero()]
        nonzero: dict[int, ChowClass] = {}
        for m in range(1, ring.dimension + 1):
            terms = [(s, ci, nonzero[m - i]) for i, s, ci in signed if i < m and m - i in nonzero]
            if c[m]:
                terms.append(((-1 if m % 2 == 0 else 1) * m, c[m], one))
            pm = sum_of_products(ring, terms)
            p.append(pm)
            if pm:
                nonzero[m] = pm
        return PowerSumVector(ring, self.rank, tuple(p))

    def ch(self) -> ChowClass:
        """Chern character: rank + sum of p_m / m!."""
        return self.power_sums().ch()

    def todd(self) -> ChowClass:
        """Todd class, from the power sums (``PowerSumVector.todd``)."""
        return self.power_sums().todd()

    def dual(self) -> ChernVector:
        """Negate the Chern roots: c_d picks up the sign (-1)^d."""
        comps = {d: ((-1) ** d) * self.c[d] for d in range(1, self.ring.dimension + 1)}
        return ChernVector(self.ring, self.rank, comps)

    def direct_sum(self, other: ChernVector) -> ChernVector:
        """Whitney sum: total Chern classes multiply, ranks add."""
        if self.ring != other.ring:
            raise ValueError("direct sum needs bundles over the same ring")
        total = (self.total() * other.total()).graded_pieces()
        return ChernVector(self.ring, self.rank + other.rank, dict(enumerate(total[1:], 1)))


class PowerSumVector:
    """Power sums p_m of the Chern roots; p_0 is the rank."""

    __slots__ = ("ring", "rank", "p")

    def __init__(self, ring: GrassmannRing, rank: int, p: tuple[ChowClass, ...]):
        self.ring = ring
        self.rank = rank
        self.p = p  # p[m] homogeneous of degree m; index 0 is an unused zero slot

    def to_chern(self) -> ChernVector:
        """Invert Newton's identities: m*c_m = sum (-1)^{i-1} p_i c_{m-i}."""
        ring, p = self.ring, self.p
        # the nonzero p_i with their signs
        signed = [(i, -1 if i % 2 == 0 else 1, p[i]) for i in range(1, ring.dimension + 1) if p[i]]
        c = _graded_solve(ring, signed)
        return ChernVector(ring, self.rank, dict(enumerate(c[1:], 1)))

    def ch(self) -> ChowClass:
        """rank + sum of p_m / m!, over the one divisor dim!."""
        ring = self.ring
        dim = ring.dimension
        d = factorial(dim)
        terms = [(d // factorial(m), self.p[m]) for m in range(1, dim + 1)]
        return linear_combination(ring, [(self.rank * d, ring.one()), *terms], d)

    def todd(self) -> ChowClass:
        """Todd class: exp of the power sums weighted by the series
        log(x / (1 - exp(-x)))."""
        coeffs = todd_log_coefficients(self.ring.dimension)
        d = lcm(*(a.denominator for a in coeffs))
        terms = [(a.numerator * (d // a.denominator), pm) for a, pm in zip(coeffs, self.p[1:]) if a and pm]
        return exp_nilpotent(linear_combination(self.ring, terms, d))

    def twisted(self, t: Scalar) -> PowerSumVector:
        """Shift every Chern root by t*h: p_m becomes
        sum_j C(m, j) t^j h^j p_{m-j} with p_0 the rank.  With t = s/q in
        lowest terms the weights C(m, j) s^j q^(m-j) are ints over q^m."""
        if not isinstance(t, Scalar):
            raise TypeError(f"a twist must be an int or a Fraction, got {t!r}")
        if not t:
            return self
        s, q = t.numerator, t.denominator
        ring, p = self.ring, self.p
        one = ring.one()
        h = ring.hyperplane_powers()
        out = [ring.zero()]
        for m in range(1, ring.dimension + 1):
            terms = [(comb(m, j) * s**j * q ** (m - j), h[j], p[m - j]) for j in range(m) if p[m - j]]
            if self.rank:
                terms.append((self.rank * s**m, h[m], one))
            out.append(sum_of_products(ring, terms, q**m))
        return PowerSumVector(ring, self.rank, tuple(out))


def todd_log_coefficients(n: int) -> tuple[Fraction, ...]:
    """Coefficients a_1..a_n of log(x / (1 - exp(-x))) in closed form.

    The series is x/2 + log((x/2) / sinh(x/2)), so a_1 = 1/2, every odd
    a_j with j > 1 is 0, and a_2k = -B_2k / (2k (2k)!).  With the Bernoulli
    numbers written through the integer tangent numbers T_k (1, 2, 16, 272,
    ...), B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), this is
    a_2k = (-1)^k T_k / (4^k (4^k - 1) (2k)!).  The T_k come from the
    integer recurrence of Brent and Harvey ("Fast computation of Bernoulli,
    tangent and secant numbers", arXiv:1108.0286, algorithm TangentNumbers)."""
    half = n // 2
    tangent = [0, 1] + [0] * (half - 1)  # tangent[k] = T_k, from k = 1
    for k in range(2, half + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    out = [Fraction(1, 2)] + [Fraction(0)] * (n - 1)
    for k in range(1, half + 1):
        out[2 * k - 1] = Fraction((-1) ** k * tangent[k], 4**k * (4**k - 1) * factorial(2 * k))
    return tuple(out[:n])


def exp_nilpotent(x: ChowClass) -> ChowClass:
    """exp of a class with no degree-zero part (a finite sum in a truncated ring).

    Built degree by degree: y = exp(x) solves dy = y * dx, so its graded
    pieces obey m * y_m = sum_{j=1..m} j * x_j * y_{m-j} from y_0 = 1, one
    ``sum_of_products`` per degree, so no power of the whole class is ever
    formed."""
    if x.coefficient(()):
        raise ValueError("exp needs a class with vanishing degree-zero part")
    ring = x.ring
    xs = x.graded_pieces()
    # the nonzero x_j, each with its weight j
    y = _graded_solve(ring, [(j, j, xs[j]) for j in range(1, ring.dimension + 1) if xs[j]])
    return linear_combination(ring, [(1, ym) for ym in y])


def _graded_solve(ring: GrassmannRing, pieces: list[tuple[int, int, ChowClass]]) -> list[ChowClass]:
    """y_0..y_dim with m * y_m = sum of w_i * x_i * y_{m-i} from y_0 = 1,
    for the listed pieces (i, w_i, x_i) with x_i nonzero of degree i >= 1:
    one ``sum_of_products`` per degree, over the nonzero y_j met so far."""
    y = [ring.one()]
    nonzero = {0: y[0]}
    for m in range(1, ring.dimension + 1):
        terms = [(w, xi, nonzero[m - i]) for i, w, xi in pieces if i <= m and m - i in nonzero]
        ym = sum_of_products(ring, terms, m)
        y.append(ym)
        if ym:
            nonzero[m] = ym
    return y


def line_bundle(ring: GrassmannRing, t: Scalar) -> ChernVector:
    """The Chern vector of O(t): first Chern class t times the hyperplane."""
    return ChernVector(ring, 1, {1: t * ring.hyperplane()})


def rank_two_chern(ring: GrassmannRing, data: RankTwoData) -> ChernVector:
    """Rank-two Chern vector with c1 = e*s(1) and c2 = a*s(2) + b*s(1,1)."""
    e, a, b = data
    c2 = ring.zero()
    if a:
        c2 = c2 + a * ring.sigma((2,))
    if b:
        c2 = c2 + b * ring.sigma((1, 1))
    return ChernVector(ring, 2, {1: e * ring.hyperplane(), 2: c2})


class RankTwoForm(NamedTuple):
    """A polynomial in rank-two coordinates (e, a, b) with integer
    coefficients over one positive denominator ``den``.

    ``top`` bounds the weighted degree i + 2(l + r) of every term
    e^i * a^l * b^r.  Each row (l, r, coeffs) is a^l * b^r times a
    polynomial in e of degree d = top - 2(l + r), whose coefficients
    ``coeffs`` run from that of e^d down to that of e^0.
    """

    rows: tuple[tuple[int, int, tuple[int, ...]], ...]
    den: int
    top: int

    @classmethod
    def from_terms(cls, terms: dict[tuple[int, int, int], Scalar]) -> RankTwoForm:
        """The form sum c * e^i * a^l * b^r over ``terms`` {(i, l, r): c}."""
        terms = {key: Fraction(c) for key, c in terms.items() if c}
        den = lcm(*(c.denominator for c in terms.values()))
        top = max((i + 2 * (l + r) for i, l, r in terms), default=0)
        rows = []
        for l, r in sorted({(l, r) for _, l, r in terms}):
            d = top - 2 * (l + r)
            coeffs = (terms.get((i, l, r), 0) * den for i in range(d, -1, -1))
            rows.append((l, r, tuple(int(c) for c in coeffs)))
        return cls(tuple(rows), den, top)

    def __call__(self, data: RankTwoData) -> Fraction:
        return Fraction(*self.ratio(data))

    def ratio(self, data: RankTwoData) -> tuple[int, int]:
        """The value at ``data``: an unreduced (numerator, denominator) pair, the denominator positive."""
        # With q a common denominator of the coordinates, x = e*q, y = a*q^2
        # and z = b*q^2 are integers, and q^top times the value is
        # sum y^l * z^r * (sum_i c_i * x^i * q^(d - i)) over the rows, each
        # inner sum by Horner; int data takes q = 1 and skips its powers.
        e, a, b = data
        acc = 0
        if type(e) is int and type(a) is int and type(b) is int:
            for l, r, coeffs in self.rows:
                inner = 0
                for c in coeffs:
                    inner = inner * e + c
                acc += inner * a**l * b**r
            return acc, self.den
        q = lcm(e.denominator, a.denominator, b.denominator)
        qq = q * q
        x = e.numerator * (q // e.denominator)
        y = a.numerator * (qq // a.denominator)
        z = b.numerator * (qq // b.denominator)
        for l, r, coeffs in self.rows:
            inner, q_power = 0, 1
            for c in coeffs:
                inner = inner * x + c * q_power
                q_power *= q
            acc += inner * y**l * z**r
        return acc, self.den * q**self.top

    def at_twist(self, e: Scalar, t: Scalar) -> PlaneForm:
        """The form at ``RankTwoData(e, a, b).twisted(t)`` as a polynomial in
        (a, b) alone.

        The twist sends (e, a, b) to (x, a + s, b + s), so the row
        (l, r, coeffs) becomes P(x) * (a + s)^l * (b + s)^r with P(x) a
        constant, and each power of a sum expands binomially.  With q the
        least common multiple of the denominators of x and s, x*q and s*q^2
        are integers, and the coefficient of a^i * b^j is an integer over
        den * q^top."""
        x, s, _ = RankTwoData(e, 0, 0).twisted(t)
        q = lcm(x.denominator, s.denominator)
        xq, sqq = int(x * q), int(s * q * q)
        half = self.top // 2
        # binomial[l][i]: the coefficient of a^i in q^(2l) * (a + s)^l, and of b^i in q^(2l) * (b + s)^l
        binomial = [[comb(l, i) * sqq ** (l - i) * q ** (2 * i) for i in range(l + 1)] for l in range(half + 1)]
        out = [[0] * (half + 1 - j) for j in range(half + 1)]  # out[j][i]: a^i * b^j
        for l, r, coeffs in self.rows:
            # q^d * P(x) by Horner, for d = top - 2(l + r)
            p, q_power = 0, 1
            for c in coeffs:
                p = p * xq + c * q_power
                q_power *= q
            for j, bj in enumerate(binomial[r]):
                for i, ai in enumerate(binomial[l]):
                    out[j][i] += p * ai * bj
        return PlaneForm(tuple(tuple(reversed(col)) for col in reversed(out)), self.den * q**self.top)


def line_values(forms: tuple[tuple[tuple[int, ...], int], ...], bs) -> list[tuple[tuple[int, ...], bool]]:
    """For each integer b of the run ``bs``, in its order: the value at b of
    each of ``forms``, a pair (integer coefficients of a polynomial in b,
    highest power first; one positive denominator), as its reduced
    (numerator, denominator) pair, the denominator positive, the pairs laid
    out in one flat tuple; and whether every value is an integer.  Each value is one
    Horner loop in integers, its integrality read off the numerator; no
    Fraction is built."""
    out = []
    for b in bs:
        values = []
        integral = True
        for coeffs, den in forms:
            acc = 0
            for c in coeffs:
                acc = acc * b + c
            if acc % den:
                integral = False
                g = gcd(acc, den)
                values.append(acc // g)
                values.append(den // g)
            else:
                values.append(acc // den)
                values.append(1)
        out.append((tuple(values), integral))
    return out


class PlaneForm(NamedTuple):
    """A polynomial in (a, b) with integer coefficients over one positive
    denominator ``den``: ``cols`` runs from the polynomial in a multiplying
    the highest power of b down to the one multiplying b^0, each with its
    coefficients from the highest power of a down to a^0."""

    cols: tuple[tuple[int, ...], ...]
    den: int

    def line(self, a: int) -> tuple[tuple[int, ...], int]:
        """The form on the line of fixed a, as the pair (coefficients of b,
        highest power first; ``den``): each column one Horner loop in a."""
        out = []
        for col in self.cols:
            acc = 0
            for c in col:
                acc = acc * a + c
            out.append(acc)
        return tuple(out), self.den


def rank_two_character(dim: int) -> dict[tuple[int, int], Fraction]:
    """ch of a rank-two bundle up to degree ``dim``, as the coefficient of
    c1^i * c2^j for each (i, j): ch = 2 + sum_m p_m / m!, where the power
    sums obey p_m = c1*p_{m-1} - c2*p_{m-2} from p_0 = 2 and p_1 = c1."""
    p = [{(0, 0): 2}, {(1, 0): 1}]
    for _ in range(2, dim + 1):
        pm = {(i + 1, j): w for (i, j), w in p[-1].items()}
        for (i, j), w in p[-2].items():
            pm[(i, j + 1)] = pm.get((i, j + 1), 0) - w
        p.append(pm)
    out = {(0, 0): Fraction(2)}
    for m in range(1, dim + 1):
        for key, w in p[m].items():
            out[key] = Fraction(w, factorial(m))
    return out


@lru_cache(maxsize=None)
def _rank_two_monomials(ring: GrassmannRing) -> dict[tuple[int, int, int], ChowClass]:
    """h^i * s(2)^l * s(1,1)^r for every (i, l, r) with i + 2(l + r) <= dim;
    s(2) or s(1,1) is 0 where its index does not fit the ring's box."""
    dim = ring.dimension
    h = ring.hyperplane_powers()
    s2, s11 = (ring.sigma(la) if fits(la, ring.box) else ring.zero() for la in ((2,), (1, 1)))
    out = {}
    s2_power = ring.one()
    for l in range(dim // 2 + 1):
        base = s2_power
        for r in range(dim // 2 - l + 1):
            for i in range(dim - 2 * (l + r) + 1):
                out[(i, l, r)] = h[i] * base
            base = base * s11
        s2_power = s2_power * s2
    return out


def rank_two_form(
    ring: GrassmannRing, weights: dict[tuple[int, int], Scalar], kernel: ChowClass
) -> RankTwoForm:
    """The integral of P(c1, c2) * kernel for rank-two data (e, a, b), as a
    form: ``weights`` maps (i, j) to the coefficient of c1^i * c2^j in P.

    With c1 = e*h and c2 = a*s(2) + b*s(1,1), c1^i * c2^j expands to
    sum_l C(j, l) * e^i * a^l * b^(j-l) * h^i * s(2)^l * s(1,1)^(j-l), so
    each coefficient of the form is one pairing of a monomial class."""
    monomials = _rank_two_monomials(ring)
    terms = {}
    for (i, j), w in weights.items():
        for l in range(j + 1):
            monomial = monomials.get((i, l, j - l))
            if monomial is not None:  # None above the top degree
                terms[(i, l, j - l)] = w * comb(j, l) * monomial.pair(kernel)
    return RankTwoForm.from_terms(terms)


def _power_sums_from_character(ring: GrassmannRing, rank: int, character: ChowClass) -> PowerSumVector:
    """Power sums of the Chern roots from the Chern character: p_m = m! * ch_m."""
    pieces = character.graded_pieces()
    p = [ring.zero()] + [factorial(m) * pieces[m] for m in range(1, ring.dimension + 1)]
    return PowerSumVector(ring, rank, tuple(p))


@lru_cache(maxsize=None)
def tangent_power_sums(ring: GrassmannRing) -> PowerSumVector:
    """Power sums of the Chern roots of the tangent bundle of G(k, n), read
    off ch(T) = ch(S-dual) * ch(Q); its Chern classes and its Todd class
    both start here.

    The two factors need no product: with sigma_la = s_la'(Q), the
    Murnaghan-Nakayama rule (Macdonald, Symmetric Functions and Hall
    Polynomials, I.3 Ex. 11) gives p_m(Q) as the signed sum of the hooks
    of the box, sum_r (-1)^r sigma_(r+1, 1^(m-1-r)), and S + Q trivial
    gives p_m(S-dual) = (-1)^(m+1) p_m(Q), so each character is one
    combination of basis classes over dim!."""
    rows, cols = ring.box  # the ranks of S-dual and Q
    dim = ring.dimension
    d = factorial(dim)
    # (m, the weight of the hook in p_m(Q) / m! over d, the hook's class)
    hooks = [
        (m, (-1) ** r * (d // factorial(m)), ChowClass._raw(ring, {(r + 1,) + (1,) * (m - 1 - r): 1}))
        for m in range(1, dim + 1)
        for r in range(min(m, cols))
        if m - r <= rows
    ]
    one = ring.one()
    quotient = linear_combination(ring, [(cols * d, one), *((w, x) for _, w, x in hooks)], d)
    sub_dual = linear_combination(ring, [(rows * d, one), *(((-1) ** (m + 1) * w, x) for m, w, x in hooks)], d)
    return _power_sums_from_character(ring, rows * cols, sub_dual * quotient)


def tangent_bundle(ring: GrassmannRing) -> ChernVector:
    """Tangent bundle of G(k, n), recovered from its cached power sums."""
    return tangent_power_sums(ring).to_chern()


def tautological_subbundle(ring: GrassmannRing) -> ChernVector:
    """The rank k+1 tautological subbundle, as the dual of S-dual (c_i = sigma_(1^i))."""
    sub_rank = ring.k + 1
    sub_dual = ChernVector(
        ring, sub_rank, {d: ring.sigma((1,) * d) for d in range(1, sub_rank + 1)}
    )
    return sub_dual.dual()


def tautological_quotient(ring: GrassmannRing) -> ChernVector:
    """The rank n-k tautological quotient bundle, c_i = sigma_(i)."""
    quot_rank = ring.n - ring.k
    return ChernVector(ring, quot_rank, {d: ring.sigma((d,)) for d in range(1, quot_rank + 1)})

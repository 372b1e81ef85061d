"""Characteristic-class calculus over a Grassmann Chow ring.

A bundle is represented by its :class:`ChernVector` (rank plus the graded
pieces of the total Chern class).  Internally, Chern character and Todd
class computations run through power sums of the Chern roots
(:class:`PowerSumVector`): both are polynomial in power sums with universal
rational coefficients, which avoids transcribing degree-six universal Todd
polynomials by hand.  The Todd series coefficients are derived at first use
by exact truncated power-series arithmetic, never hard-coded.

Rank-two data (e, a, b) on a ring of lines is twisted in its coordinates by
``RankTwoData.twisted``, which every pipeline path uses; ``ChernVector.twist``
twists a bundle of any rank through its power sums.  Rational twists are
supported, and their "Chern classes" need not be integral.  A
``RankTwoForm`` in (e, a, b) folds at a fixed e and twist into a
``PlaneForm`` in (a, b) alone, which evaluates in integers at integer (a, b).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import NamedTuple

from .chow import ChowClass, GrassmannRing, Scalar


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

    def normalized(self) -> RankTwoData:
        """The twist-equivalent representative with e in {0, -1}."""
        return self.twisted(-((self.e + 1) // 2))


class ChernVector:
    """Rank plus total Chern class of a bundle, one class per degree."""

    __slots__ = ("ring", "rank", "c")

    def __init__(self, ring: GrassmannRing, rank: int, components: dict[int, ChowClass] | None = None):
        dim = ring.dimension
        c = [ring.zero()] * (dim + 1)
        c[0] = ring.one()
        for d, cls in (components or {}).items():
            if d < 1 or not isinstance(d, int):
                raise ValueError(f"component degrees must be positive integers, got {d}")
            if d > dim:
                continue  # classes above the ring dimension vanish
            if not cls.is_homogeneous(d):
                raise ValueError(f"component {cls!r} is not homogeneous of degree {d}")
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
        acc = self.ring.zero()
        for cls in self.c:
            acc = acc + cls
        return acc

    def power_sums(self) -> PowerSumVector:
        """Power sums of the Chern roots via Newton's identities:
        p_m = c1*p_{m-1} - c2*p_{m-2} + ... + (-1)^{m-1} m*c_m."""
        dim = self.ring.dimension
        c = self.c
        p = [self.ring.zero()] * (dim + 1)
        for m in range(1, dim + 1):
            acc = ((-1) ** (m - 1) * m) * c[m]
            for i in range(1, m):
                if c[i]:  # a zero Chern class contributes no term
                    acc = acc + ((-1) ** (i - 1)) * (c[i] * p[m - i])
            p[m] = acc
        return PowerSumVector(self.ring, self.rank, tuple(p))

    def ch(self) -> ChowClass:
        """Chern character: rank + sum of p_m / m!."""
        return self.power_sums().ch()

    def todd(self) -> ChowClass:
        """Todd class: exp of the power sums weighted by the series
        log(x / (1 - exp(-x)))."""
        coeffs = todd_log_coefficients(self.ring.dimension)
        ps = self.power_sums()
        acc = self.ring.zero()
        for m in range(1, self.ring.dimension + 1):
            if coeffs[m - 1]:
                acc = acc + coeffs[m - 1] * ps.p[m]
        return exp_nilpotent(acc)

    def twist(self, t: Scalar) -> ChernVector:
        """Chern data of the tensor with t times the hyperplane bundle."""
        return self.power_sums().twisted(t).to_chern()

    def dual(self) -> ChernVector:
        """Negate the Chern roots: c_d picks up the sign (-1)^d."""
        comps = {d: ((-1) ** d) * self.c[d] for d in range(1, self.ring.dimension + 1)}
        return ChernVector(self.ring, self.rank, comps)

    def direct_sum(self, other: ChernVector) -> ChernVector:
        """Whitney sum: total Chern classes multiply, ranks add."""
        if self.ring != other.ring:
            raise ValueError("direct sum needs bundles over the same ring")
        total = self.total() * other.total()
        comps = {d: total.graded(d) for d in range(1, self.ring.dimension + 1)}
        return ChernVector(self.ring, self.rank + other.rank, comps)

    def tensor_ch(self, other: ChernVector) -> ChowClass:
        """Chern character of the tensor product."""
        if self.ring != other.ring:
            raise ValueError("tensor needs bundles over the same ring")
        return self.ch() * other.ch()


class PowerSumVector:
    """Power sums p_m of the Chern roots; p_0 is the rank."""

    __slots__ = ("ring", "rank", "p")

    def __init__(self, ring: GrassmannRing, rank: int, p: tuple[ChowClass, ...]):
        self.ring = ring
        self.rank = rank
        self.p = p  # p[m] homogeneous of degree m; index 0 is an unused zero slot

    def to_chern(self) -> ChernVector:
        """Invert Newton's identities: m*c_m = sum (-1)^{i-1} p_i c_{m-i}."""
        dim = self.ring.dimension
        c = [self.ring.zero()] * (dim + 1)
        c[0] = self.ring.one()
        for m in range(1, dim + 1):
            acc = self.ring.zero()
            for i in range(1, m + 1):
                if c[m - i]:  # a zero Chern class contributes no term
                    acc = acc + ((-1) ** (i - 1)) * (self.p[i] * c[m - i])
            c[m] = acc / m
        return ChernVector(self.ring, self.rank, {d: c[d] for d in range(1, dim + 1)})

    def ch(self) -> ChowClass:
        acc = self.rank * self.ring.one()
        for m in range(1, self.ring.dimension + 1):
            acc = acc + self.p[m] / factorial(m)
        return acc

    def twisted(self, t: Scalar) -> PowerSumVector:
        """Shift every Chern root by t*h: p_m becomes
        sum_j C(m, j) t^j h^j p_{m-j} with p_0 the rank."""
        t = Fraction(t)
        ring = self.ring
        dim = ring.dimension
        h = _hyperplane_powers(ring)
        out = [ring.zero()] * (dim + 1)
        for m in range(1, dim + 1):
            acc = (Fraction(self.rank) * t**m) * h[m]
            for j in range(m):
                if t == 0 and j > 0:
                    break
                acc = acc + (comb(m, j) * t**j) * (h[j] * self.p[m - j])
            out[m] = acc
        return PowerSumVector(ring, self.rank, tuple(out))


@lru_cache(maxsize=None)
def _hyperplane_powers(ring: GrassmannRing) -> tuple[ChowClass, ...]:
    powers = [ring.one()]
    for _ in range(ring.dimension):
        powers.append(powers[-1] * ring.hyperplane())
    return tuple(powers)


@lru_cache(maxsize=None)
def todd_log_coefficients(n: int) -> tuple[Fraction, ...]:
    """Coefficients a_1..a_n of log(x / (1 - exp(-x))), computed by exact
    truncated series arithmetic: the log of q(x) = (1 - exp(-x))/x is built
    from the recurrence m*l_m = m*q_m - sum_{j<m} j*l_j*q_{m-j}, then negated."""
    q = [Fraction((-1) ** i, factorial(i + 1)) for i in range(n + 1)]
    log_q = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        acc = m * q[m]
        for j in range(1, m):
            acc -= j * log_q[j] * q[m - j]
        log_q[m] = acc / m
    return tuple(-c for c in log_q[1:])


def exp_nilpotent(x: ChowClass) -> ChowClass:
    """exp of a class with no degree-zero part (a finite sum in a truncated ring)."""
    if x.coefficient(()):
        raise ValueError("exp needs a class with vanishing degree-zero part")
    ring = x.ring
    acc = ring.one()
    power = ring.one()
    for j in range(1, ring.dimension + 1):
        power = power * x
        if not power:
            break
        acc = acc + power / factorial(j)
    return acc


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
        # With q a common denominator of the coordinates, x = e*q, y = a*q^2
        # and z = b*q^2 are integers, and q^top times the value is
        # sum y^l * z^r * (sum_i c_i * x^i * q^(d - i)) over the rows, each
        # inner sum by Horner; for integer data q = 1.
        e, a, b = data
        q = lcm(e.denominator, a.denominator, b.denominator)
        qq = q * q
        x = e.numerator * (q // e.denominator)
        y = a.numerator * (qq // a.denominator)
        z = b.numerator * (qq // b.denominator)
        acc = 0
        for l, r, coeffs in self.rows:
            inner, q_power = 0, 1
            for c in coeffs:
                inner = inner * x + c * q_power
                q_power *= q
            acc += inner * y**l * z**r
        return Fraction(acc, self.den * q**self.top)

    def at_twist(self, e: Scalar, t: Scalar) -> PlaneForm:
        """The form at ``RankTwoData(e, a, b).twisted(t)`` as a polynomial in
        (a, b) alone.

        The twist sends (e, a, b) to (x, a + s, b + s), so the row
        (l, r, coeffs) becomes P(x) * (a + s)^l * (b + s)^r with P(x) a
        constant, and each power of a sum expands binomially.  With q the
        least common multiple of the denominators of x and s, x*q and s*q^2
        are integers, and the coefficient of a^i * b^j is an integer over
        den * q^top."""
        x, s, _ = RankTwoData(Fraction(e), 0, 0).twisted(Fraction(t))
        q = lcm(x.denominator, s.denominator)
        xq, sqq = int(x * q), int(s * q * q)
        half = self.top // 2
        out = [[0] * (half + 1 - i) for i in range(half + 1)]  # out[i][j]: a^i * b^j
        for l, r, coeffs in self.rows:
            # q^d * P(x) by Horner, for d = top - 2(l + r)
            p, q_power = 0, 1
            for c in coeffs:
                p = p * xq + c * q_power
                q_power *= q
            for i in range(l + 1):
                for j in range(r + 1):
                    out[i][j] += p * comb(l, i) * comb(r, j) * sqq ** (l - i + r - j) * q ** (2 * (i + j))
        return PlaneForm(tuple(tuple(reversed(row)) for row in reversed(out)), self.den * q**self.top)


class PlaneForm(NamedTuple):
    """A polynomial in (a, b) with integer coefficients over one positive
    denominator ``den``: ``rows`` runs from the polynomial in b multiplying
    the highest power of a down to the one multiplying a^0, each with its
    coefficients from the highest power of b down to b^0."""

    rows: tuple[tuple[int, ...], ...]
    den: int

    def __call__(self, a: int, b: int) -> Fraction:
        acc = 0
        for row in self.rows:
            inner = 0
            for c in row:
                inner = inner * b + c
            acc = acc * a + inner
        return Fraction(acc, self.den)


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
    """h^i * s(2)^l * s(1,1)^r for every (i, l, r) with i + 2(l + r) <= dim; s(1,1) is 0 if k = 0."""
    dim = ring.dimension
    h = _hyperplane_powers(ring)
    s2, s11 = ring.sigma((2,)), ring.sigma((1, 1)) if ring.k else ring.zero()
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


def chern_from_character(ring: GrassmannRing, rank: int, character: ChowClass) -> ChernVector:
    """Recover a Chern vector from its Chern character: p_m = m! * ch_m."""
    dim = ring.dimension
    p = [ring.zero()] * (dim + 1)
    for m in range(1, dim + 1):
        p[m] = factorial(m) * character.graded(m)
    return PowerSumVector(ring, rank, tuple(p)).to_chern()


@lru_cache(maxsize=None)
def tangent_bundle(ring: GrassmannRing) -> ChernVector:
    """Tangent bundle of G(k, n), recovered from ch(T) = ch(S-dual) * ch(Q)."""
    sub_dual = tautological_subbundle(ring).dual()
    quotient = tautological_quotient(ring)
    return chern_from_character(ring, sub_dual.rank * quotient.rank, sub_dual.tensor_ch(quotient))


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

"""Chow rings of Grassmannians with their Schubert bases.

``GrassmannRing(k, n)`` is the Chow ring of the variety of k-planes in
projective n-space; projective space itself is the k = 0 case.  Classes are
finite rational combinations of Schubert classes indexed by partitions in
the (k+1) x (n-k) box.  By Poincare duality the product of two basis
classes, truncated to the box, is read off one skew Littlewood-Richardson
expansion, so no coefficient outside the box is ever computed.

A class holds integer numerators over one common positive denominator,
kept in lowest terms, so ring arithmetic runs on ints and cancels once per
operation; :class:`fractions.Fraction` appears only where a single number
leaves the class (``coefficient``, ``integrate``, ``pair``, ``coeffs`` and
the repr).  No floating point enters the engine anywhere.

Products read one table per ring: for each basis index la, the rows of
sigma_la * sigma_mu met so far, by mu.  A missed pair with mu not inside
the dual of la has product zero and maps to an empty tuple with no LR work
(so does every pair above the top degree: containment implies the degree
bound).  Any other missed pair is filled by ``_fill_pair``.  The triple
intersection number T(la, mu, ka), the integral of
sigma_la * sigma_mu * sigma_ka, is symmetric in its three indices (the
duality theorem, Fulton, Young Tableaux, 1997, 9.4), so the three degree
blocks of a degree triple (a block is the rows with |la| and |mu| fixed)
hold the same numbers, and only the block whose skew shapes have the
fewest cells is ever enumerated, one uncached ``_lr_row`` per nonzero pair:
the pair's skew expansion, read from the LR layer without a copy, and the
row built from it.  A missed pair of that block is enumerated alone; a pair
of either other block has the whole enumerated block filled, and each
coefficient found is written into the other two blocks as well, at the
expansion's content itself, gathered in one dict per index of the larger
degree, so no pair of indices is built or hashed per coefficient.  So each
LR triple is enumerated once, and no empty row is ever enumerated.  A row
whose skew shape falls apart into pieces is the product of the pieces'
expansions, which ``partitions`` enumerates once per set of pieces.  Rings
are immutable and shareable; the product table, its rows and the dual
indices are pure caches (identical inputs always produce identical rows,
only complete rows are stored, and a stored row never changes), so
concurrent use needs no coordination.

The table is read by one multiply-accumulate kernel, ``sum_of_products``:
(1/d) * sum of w * x * y over (int weight, class, class) terms, collected
as integer numerators in one dict over the lcm of the terms' denominators
and cancelled once; ``linear_combination`` is its linear counterpart,
(1/d) * sum of w * x.  Every class operation is a case of one of the two:
the product of two classes is the one-term case of ``sum_of_products``,
and ``+``, binary and unary ``-``, and ``*`` or ``/`` by a scalar p/q are
one- or two-term cases of ``linear_combination`` (a scalar is the weight p
over the divisor q).  The graded recurrences of the characteristic-class
layer make one kernel call per degree.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import le
from typing import Iterable, NamedTuple

from .partitions import (
    Box,
    Partition,
    _skew_expansion,
    complement,
    enumerate_partitions,
    fits,
    lr_coefficient,  # unused here; the benchmark's tracer rebinds it by name in this module
    partition,
    weight,
)

Scalar = int | Fraction


class _RingFields(NamedTuple):
    k: int
    n: int


class GrassmannRing(_RingFields):
    """The Chow ring of G(k, n), k-dimensional planes in P^n: the pair
    (k, n), checked on construction."""

    __slots__ = ()

    def __new__(cls, k: int, n: int) -> GrassmannRing:
        if not 0 <= k < n:
            raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
        return super().__new__(cls, k, n)

    @property
    def box(self) -> Box:
        return Box(self.k + 1, self.n - self.k)

    @property
    def dimension(self) -> int:
        return (self.k + 1) * (self.n - self.k)

    @property
    def top(self) -> Partition:
        """Index of the point class: the full box."""
        return (self.n - self.k,) * (self.k + 1)

    def basis(self, degree: int) -> list[Partition]:
        return enumerate_partitions(self.box, degree)

    def all_partitions(self) -> list[Partition]:
        """Every basis index, by increasing degree."""
        return [la for d in range(self.dimension + 1) for la in self.basis(d)]

    def zero(self) -> ChowClass:
        return ChowClass._raw(self, {})

    def one(self) -> ChowClass:
        return ChowClass._raw(self, {(): 1})

    def point(self) -> ChowClass:
        return ChowClass._raw(self, {self.top: 1})

    def hyperplane(self) -> ChowClass:
        """The ample generator sigma_(1)."""
        return self.sigma((1,))

    def sigma(self, la: Iterable[int] | Partition) -> ChowClass:
        """The Schubert basis class with index ``la``."""
        la = partition(la)
        if not fits(la, self.box):
            raise ValueError(f"partition {la} outside the {self.box.rows}x{self.box.cols} box")
        return ChowClass._raw(self, {la: 1})

    def omega(self, i: int, j: int) -> ChowClass:
        """Class of lines meeting a fixed i-plane inside a fixed j-plane.

        Classical incidence notation for rings of lines (k = 1): the class
        equals sigma_(n-1-i, n-j) and has codimension 2n - 1 - i - j.
        """
        if self.k != 1:
            raise ValueError("incidence classes need a ring of lines (k = 1)")
        if not 0 <= i < j <= self.n:
            raise ValueError(f"need 0 <= i < j <= {self.n}, got ({i}, {j})")
        return self.sigma((self.n - 1 - i, self.n - j))

    def hyperplane_powers(self) -> tuple[ChowClass, ...]:
        """h^0, h^1, ..., h^dim for the ample generator h, each a full product."""
        h = self.hyperplane()
        powers = [self.one()]
        for _ in range(self.dimension):
            powers.append(powers[-1] * h)
        return tuple(powers)

    def plucker_degree(self) -> int:
        """Degree of the ring's variety in its Plucker embedding."""
        deg = self.hyperplane_powers()[-1].integrate()
        if deg.denominator != 1:
            raise ArithmeticError(f"the Plucker degree of {self} came out as {deg}, not an integer")
        return deg.numerator


class ChowClass:
    """Finite rational combination of Schubert classes, possibly inhomogeneous.

    Stored in lowest terms: nonzero integer numerators ``num`` keyed by
    partition over one denominator ``den > 0`` with
    ``gcd(den, *num.values()) == 1``, so equal classes have equal fields.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: GrassmannRing, coeffs: dict):
        clean: dict[Partition, Scalar] = {}
        for la, c in coeffs.items():
            if not isinstance(c, Scalar):
                raise TypeError(f"a coefficient must be an int or a Fraction, got {c!r}")
            if not c:
                continue
            la = partition(la)
            if not fits(la, ring.box):
                raise ValueError(f"partition {la} outside the box of {ring}")
            clean[la] = c
        # over the lcm of the denominators the numerators are already coprime to it
        den = lcm(*(c.denominator for c in clean.values()))
        self.ring = ring
        self.num = {la: c.numerator * (den // c.denominator) for la, c in clean.items()}
        self.den = den

    @classmethod
    def _raw(cls, ring: GrassmannRing, num: dict[Partition, int], den: int = 1) -> ChowClass:
        # internal fast path: keys already normalized and in the box, numerators
        # nonzero, den > 0; only the common factor is left to cancel
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {la: x // g for la, x in num.items()}
        self = object.__new__(cls)
        self.ring = ring
        self.num = num
        self.den = den
        return self

    @property
    def coeffs(self) -> dict[Partition, Fraction]:
        """The nonzero coefficients, by Schubert index (a fresh dict)."""
        den = self.den
        return {la: Fraction(x, den) for la, x in self.num.items()}

    # -- arithmetic: every operation but ** is one kernel call -------------

    def __add__(self, other: ChowClass) -> ChowClass:
        return linear_combination(self.ring, ((1, self), (1, other)))

    def __sub__(self, other: ChowClass) -> ChowClass:
        return linear_combination(self.ring, ((1, self), (-1, other)))

    def __neg__(self) -> ChowClass:
        return linear_combination(self.ring, ((-1, self),))

    # a scalar is an int or a Fraction: any other operand is NotImplemented (a TypeError)
    def __mul__(self, other):
        if isinstance(other, ChowClass):
            return sum_of_products(self.ring, ((1, self, other),))
        if not isinstance(other, Scalar):
            return NotImplemented
        return linear_combination(self.ring, ((other.numerator, self),), other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> ChowClass:
        if not isinstance(scalar, Scalar):
            return NotImplemented
        p, q = scalar.numerator, scalar.denominator
        if not p:
            raise ZeroDivisionError("division of a class by zero")
        return linear_combination(self.ring, ((q if p > 0 else -q, self),), abs(p))

    def __pow__(self, exponent: int) -> ChowClass:
        """Square and multiply: about 2 * log2(exponent) products."""
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        if exponent > self.ring.dimension and () not in self.num:
            return ChowClass._raw(self.ring, {})  # more than dim factors of positive degree
        acc = self.ring.one()
        base = self
        while exponent:
            if exponent & 1:
                acc = acc * base
            exponent >>= 1
            if exponent:
                base = base * base
        return acc

    # -- structure ------------------------------------------------------------

    def coefficient(self, la) -> Fraction:
        return Fraction(self.num.get(partition(la), 0), self.den)

    def graded_pieces(self) -> list[ChowClass]:
        """The homogeneous components of degrees 0..dim, split in one pass
        over the terms, each in lowest terms."""
        parts: list[dict[Partition, int]] = [{} for _ in range(self.ring.dimension + 1)]
        for la, x in self.num.items():
            parts[sum(la)][la] = x
        return [ChowClass._raw(self.ring, part, self.den) for part in parts]

    def is_homogeneous(self, degree: int) -> bool:
        return all(weight(la) == degree for la in self.num)

    def integrate(self) -> Fraction:
        """Pushforward to a point: the coefficient of the point class."""
        return Fraction(self.num.get(self.ring.top, 0), self.den)

    def pair(self, other: ChowClass) -> Fraction:
        """The integral of ``self * other`` without forming the product: by
        Poincare duality sigma_la pairs to 1 with sigma_complement(la) and to
        0 with every other basis class."""
        if self.ring != other.ring:
            raise ValueError(f"classes live in different rings: {self.ring} vs {other.ring}")
        duals = _duals(self.ring.box)
        ys = other.num
        acc = 0
        for la, x in self.num.items():
            y = ys.get(duals[la])
            if y is not None:
                acc += x * y
        return Fraction(acc, self.den * other.den)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChowClass)
            and self.ring == other.ring
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.ring, self.den, tuple(sorted(self.num.items()))))

    def __repr__(self) -> str:
        if not self.num:
            return "0"
        terms = []
        for la in sorted(self.num, key=lambda p: (weight(p), p)):
            c = Fraction(self.num[la], self.den)
            name = "s(" + ",".join(map(str, la)) + ")"
            terms.append(name if c == 1 else f"{c}*{name}")
        return " + ".join(terms)


def sum_of_products(ring: GrassmannRing, terms, divisor: int = 1) -> ChowClass:
    """(1/divisor) * sum of w * x * y over the (w, x, y) in ``terms``, a
    sequence of int weights and classes of ``ring``; ``divisor`` is a
    positive int.

    The engine's one product loop (``ChowClass.__mul__`` is its one-term
    case): every term pair reads its row of the ring's table, filling it
    at first meeting, and is accumulated into one dict of integer
    numerators over the lcm of the terms' denominators, which is cancelled
    once at the end, so no intermediate product, scaled copy or partial
    sum is built."""
    den = lcm(*(x.den * y.den for _, x, y in terms))
    box = ring.box
    table = _table(box)
    duals = _duals(box)
    acc: dict[Partition, int] = {}
    get = acc.get
    for w, x, y in terms:
        if x.ring != ring or y.ring != ring:
            other = y.ring if x.ring == ring else x.ring
            raise ValueError(f"classes live in different rings: {ring} vs {other}")
        w *= den // (x.den * y.den)
        ys = y.num.items()
        for la, a in x.num.items():
            rows = table[la]
            row_of = rows.get
            wa = w * a
            for mu, b in ys:
                row = row_of(mu)
                if row is None:
                    # First met.  The product is zero unless mu lies inside
                    # la's dual, which implies the degree bound
                    # |la| + |mu| <= dim, as |la'| = dim - |la|: then the
                    # pair is stored in both orders with no LR work.
                    dual = duals[la]
                    if len(mu) <= len(dual) and all(map(le, mu, dual)):
                        row = _fill_pair(box, la, mu)
                    else:
                        row = rows[mu] = table[mu][la] = ()
                if row:
                    wab = wa * b
                    for nu, c in row:
                        acc[nu] = get(nu, 0) + wab * c
    return ChowClass._raw(ring, {nu: s for nu, s in acc.items() if s}, den * divisor)


def linear_combination(ring: GrassmannRing, terms, divisor: int = 1) -> ChowClass:
    """(1/divisor) * sum of w * x over the (w, x) in ``terms``, a sequence of
    int weights and classes of ``ring``, summed and cancelled once like
    ``sum_of_products``; ``divisor`` is a positive int."""
    den = lcm(*(x.den for _, x in terms))
    acc: dict[Partition, int] = {}
    get = acc.get
    for w, x in terms:
        if x.ring != ring:
            raise ValueError(f"classes live in different rings: {ring} vs {x.ring}")
        w *= den // x.den
        for la, a in x.num.items():
            acc[la] = get(la, 0) + w * a
    return ChowClass._raw(ring, {la: s for la, s in acc.items() if s}, den * divisor)


@lru_cache(maxsize=None)
def _table(box: Box) -> dict[Partition, dict[Partition, tuple[tuple[Partition, int], ...]]]:
    """The ring's product table: for each basis index la, the rows of
    sigma_la * sigma_mu met so far, by mu (shared; only ``sum_of_products``
    and ``_fill_pair`` add to it).  A pair whose product is zero maps to
    ``()``."""
    return {la: {} for la in _duals(box)}


def _fill_pair(box: Box, la: Partition, mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """The row of a missed pair (la, mu) with mu inside la', stored in both
    orders.

    Degree block (i, j) is the rows sigma_la * sigma_mu with |la| = i and
    |mu| = j; the entry at ka' of such a row is T(la, mu, ka), the integral
    of sigma_la * sigma_mu * sigma_ka, with |ka| = d = dim - i - j.  T is
    symmetric in its three indices (the duality theorem, Fulton, Young
    Tableaux, 1997, 9.4), so with p <= q <= r the degrees i, j, d sorted,
    blocks (q, r), (p, r) and (p, q) hold the same numbers; the skew shapes
    of block (q, r) have p cells, the fewest of the three.

    A pair of block (q, r) itself (d == p) is enumerated alone, as one
    ``_lr_row``: a sparse product, and every product into the top degree,
    needs no more.  For any other pair every row of block (q, r) with mu
    inside la' is enumerated (a row already stored is read, not rebuilt),
    and each coefficient found is also written into one row of each other
    block, at the content ka itself, so no entry goes through its dual
    index and back.  Those rows are collected in ``found`` first, row
    (ka, z) with |ka| = p as ``found[z][ka]``, so the table only ever
    receives complete rows; then every pair of the blocks is stored in both
    orders, ``()`` for the zero pairs.

    A tie of degrees merges blocks, and each entry is still written once:
    with q == r only the unordered pairs of block (q, q) are enumerated,
    and block (p, r) is block (p, q); with p == q the enumerated rows are
    already block (p, r), and block (p, p) takes each unordered pair once;
    with p == q == r every pair is enumerated alone.
    """
    table, duals, grades = _table(box), _duals(box), _grades(box)
    i, j = sum(la), sum(mu)
    d = len(grades) - 1 - i - j
    if d <= i and d <= j:
        # ordered as block (q, r) is enumerated: |la| <= |mu|, la <= mu within a degree
        row = _lr_row(duals, la, mu)[1] if (i, la) <= (j, mu) else _lr_row(duals, mu, la)[1]
        table[la][mu] = table[mu][la] = row
        return row
    p, q, r = sorted((i, j, d))
    found = {z: defaultdict(list) for z in grades[q] + grades[r]}
    for x, ys in _block_pairs(grades, q, r):
        x_rows, x_dual, found_x = table[x], duals[x], found[x]
        for y in ys:
            row = x_rows.get(y)
            if row is not None:
                contents = [(duals[nu], c) for nu, c in row]  # stored by an earlier lone pair
            elif len(y) <= len(x_dual) and all(map(le, y, x_dual)):
                expansion, row = _lr_row(duals, x, y)
                contents = expansion.items()
                x_rows[y] = table[y][x] = row
            else:
                x_rows[y] = table[y][x] = ()
                continue
            y_dual = duals[y]
            if p < q:
                # T(x, y, ka) is entry x' of row (ka, y) and y' of row (ka, x)
                found_y = found[y]
                for ka, c in contents:
                    found_y[ka].append((x_dual, c))
                if x != y:
                    for ka, c in contents:
                        found_x[ka].append((y_dual, c))
            else:
                # block (p, r) is this one (q < r, as d > p); block (p, p) keeps row (ka, x) for ka <= x
                for ka, c in contents:
                    if ka <= x:
                        found_x[ka].append((y_dual, c))
    for block in {(p, r), (p, q)} - {(q, r)}:
        for x, ys in _block_pairs(grades, *block):
            x_rows = table[x]
            for y in ys:
                x_rows[y] = table[y][x] = tuple(found[y].get(x, ()))
    return table[la][mu]


def _block_pairs(
    grades: tuple[list[Partition], ...], i: int, j: int
) -> list[tuple[Partition, list[Partition]]]:
    """The pairs (la, mu) of degree block (i, j), each unordered pair once
    (la <= mu when i == j), grouped by la: a list of (la, its mu)."""
    mus = grades[j]
    # a grade is lexicographically descending: mus[: a + 1] are the mu >= la
    return [(la, mus[: a + 1] if i == j else mus) for a, la in enumerate(grades[i])]


def _lr_row(
    duals: dict[Partition, Partition], la: Partition, mu: Partition
) -> tuple[dict[Partition, int], tuple[tuple[Partition, int], ...]]:
    """The skew expansion of la'/mu and the row sigma_la * sigma_mu built
    from it, for mu inside la' (not checked; ``duals`` is the box's).

    With ' the box complement, the coefficient of sigma_nu is the integral of
    sigma_la * sigma_mu * sigma_nu', which is c^{la'}_{mu,nu'}: the whole row
    is the skew expansion of la'/mu, content ka landing on sigma_ka'.  The
    expansion may be shared with the LR layer's cache (never mutate it);
    ``_fill_pair`` scatters its contents into the other blocks as they are.
    ``_fill_pair`` asks for each row once, only for rows of the degree block
    it enumerates, with |la| <= |mu| (la <= mu within one degree), so no row
    here is empty.
    """
    expansion = _skew_expansion(duals[la], mu)
    return expansion, tuple(zip(map(duals.__getitem__, expansion), expansion.values()))


# Kept only for the benchmark's tracer, which reads this cache's statistics
# by name (no engine caller).
@lru_cache(maxsize=None)
def _basis_product(box: Box, la: Partition, mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """sigma_la * sigma_mu expanded in the Schubert basis, truncated to the
    box, for mu inside la': the row of ``_lr_row``, cached.  No engine code
    calls it; ``bench/tracing.py`` reports its cache as
    ``chow.basis_product``."""
    return _lr_row(_duals(box), la, mu)[1]


@lru_cache(maxsize=None)
def _grades(box: Box) -> tuple[list[Partition], ...]:
    """The box's indices by degree, each grade lexicographically descending
    (shared; never mutate)."""
    return tuple(enumerate_partitions(box, d) for d in range(box.rows * box.cols + 1))


@lru_cache(maxsize=None)
def _duals(box: Box) -> dict[Partition, Partition]:
    """Every index in the box mapped to its Poincare-dual index (shared; never mutate)."""
    return {la: complement(la, box) for grade in _grades(box) for la in grade}


def dual_partition(ring: GrassmannRing, la) -> Partition:
    """Index pairing to 1 against ``la`` under the intersection form."""
    return complement(partition(la), ring.box)

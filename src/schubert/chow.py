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
the repr).  No floating point enters the engine anywhere.  Rings are
immutable and shareable; the memoized tables of structure constants and
dual indices are pure caches (identical inputs always produce identical
rows), so concurrent use needs no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Iterable

from .partitions import (
    Box,
    Partition,
    complement,
    enumerate_partitions,
    fits,
    lr_coefficient,  # unused here; the benchmark's tracer rebinds it by name in this module
    partition,
    skew_lr_expansion,
    weight,
)

Scalar = int | Fraction


@dataclass(frozen=True)
class GrassmannRing:
    """The Chow ring of G(k, n), k-dimensional planes in P^n."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.k < self.n:
            raise ValueError(f"need 0 <= k < n, got k={self.k}, n={self.n}")

    @cached_property
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

    def plucker_degree(self) -> int:
        """Degree of the ring's variety in its Plucker embedding."""
        h = self.hyperplane()
        acc = self.one()
        for _ in range(self.dimension):
            acc = acc * h
        deg = acc.integrate()
        assert deg.denominator == 1
        return int(deg)


class ChowClass:
    """Finite rational combination of Schubert classes, possibly inhomogeneous.

    Stored in lowest terms: nonzero integer numerators ``num`` keyed by
    partition over one denominator ``den > 0`` with
    ``gcd(den, *num.values()) == 1``, so equal classes have equal fields.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: GrassmannRing, coeffs: dict):
        clean: dict[Partition, Fraction] = {}
        for la, c in coeffs.items():
            c = Fraction(c)
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

    def _require_same_ring(self, other: ChowClass) -> None:
        if self.ring != other.ring:
            raise ValueError(f"classes live in different rings: {self.ring} vs {other.ring}")

    @property
    def coeffs(self) -> dict[Partition, Fraction]:
        """The nonzero coefficients, by Schubert index (a fresh dict)."""
        den = self.den
        return {la: Fraction(x, den) for la, x in self.num.items()}

    # -- additive structure ------------------------------------------------

    def __add__(self, other: ChowClass) -> ChowClass:
        self._require_same_ring(other)
        den = lcm(self.den, other.den)
        sx, sy = den // self.den, den // other.den
        acc = dict(self.num) if sx == 1 else {la: x * sx for la, x in self.num.items()}
        for la, y in other.num.items():
            s = acc.get(la, 0) + y * sy
            if s:
                acc[la] = s
            else:
                acc.pop(la, None)
        return ChowClass._raw(self.ring, acc, den)

    def __neg__(self) -> ChowClass:
        return ChowClass._raw(self.ring, {la: -x for la, x in self.num.items()}, self.den)

    def __sub__(self, other: ChowClass) -> ChowClass:
        return self + (-other)

    # -- multiplicative structure -------------------------------------------

    def __mul__(self, other):
        if isinstance(other, ChowClass):
            self._require_same_ring(other)
            box = self.ring.box
            weights = _weights(box)
            dim = box.rows * box.cols
            acc: dict[Partition, int] = {}
            get = acc.get
            for la, x in self.num.items():
                room = dim - weights[la]
                for mu, y in other.num.items():
                    if weights[mu] > room:
                        continue  # the product lies above the top degree
                    xy = x * y
                    pair = (la, mu) if la <= mu else (mu, la)  # one cache entry per unordered pair
                    for nu, c in _basis_product(box, *pair):
                        acc[nu] = get(nu, 0) + xy * c
            num = {nu: s for nu, s in acc.items() if s}
            return ChowClass._raw(self.ring, num, self.den * other.den)
        return self._scaled(*_ratio(other))

    def __rmul__(self, scalar: Scalar) -> ChowClass:
        return self._scaled(*_ratio(scalar))

    def __truediv__(self, scalar: Scalar) -> ChowClass:
        p, q = _ratio(scalar)
        if not p:
            raise ZeroDivisionError("division of a class by zero")
        return self._scaled(q, p) if p > 0 else self._scaled(-q, -p)

    def _scaled(self, p: int, q: int) -> ChowClass:
        """Multiply by p/q, given q > 0."""
        if not p:
            return ChowClass._raw(self.ring, {})
        return ChowClass._raw(self.ring, {la: p * x for la, x in self.num.items()}, q * self.den)

    def __pow__(self, exponent: int) -> ChowClass:
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        acc = self.ring.one()
        for _ in range(exponent):
            acc = acc * self
        return acc

    # -- structure ------------------------------------------------------------

    def coefficient(self, la) -> Fraction:
        return Fraction(self.num.get(partition(la), 0), self.den)

    def graded(self, degree: int) -> ChowClass:
        """The homogeneous component of the given degree."""
        return ChowClass._raw(
            self.ring, {la: x for la, x in self.num.items() if weight(la) == degree}, self.den
        )

    def degrees(self) -> list[int]:
        return sorted({weight(la) for la in self.num})

    def is_homogeneous(self, degree: int) -> bool:
        return all(weight(la) == degree for la in self.num)

    def integrate(self) -> Fraction:
        """Pushforward to a point: the coefficient of the point class."""
        return Fraction(self.num.get(self.ring.top, 0), self.den)

    def pair(self, other: ChowClass) -> Fraction:
        """The integral of ``self * other`` without forming the product: by
        Poincare duality sigma_la pairs to 1 with sigma_complement(la) and to
        0 with every other basis class."""
        self._require_same_ring(other)
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


def _ratio(scalar: Scalar) -> tuple[int, int]:
    """Numerator and positive denominator of an exact scalar; ints and
    Fractions are read as they are, anything else goes through Fraction."""
    if not isinstance(scalar, (int, Fraction)):
        scalar = Fraction(scalar)
    return scalar.numerator, scalar.denominator


@lru_cache(maxsize=None)
def _basis_product(box: Box, la: Partition, mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """sigma_la * sigma_mu expanded in the Schubert basis, truncated to the box.

    With ' the box complement, the coefficient of sigma_nu is the integral of
    sigma_la * sigma_mu * sigma_nu', which is c^{la'}_{mu,nu'}: the whole row
    is the skew expansion of la'/mu, content ka landing on sigma_ka'.
    ``ChowClass.__mul__`` passes each unordered pair once, as la <= mu.
    """
    duals = _duals(box)
    row = skew_lr_expansion(duals[la], mu)
    return tuple((duals[ka], c) for ka, c in row.items())


@lru_cache(maxsize=None)
def _duals(box: Box) -> dict[Partition, Partition]:
    """Every index in the box mapped to its Poincare-dual index (shared; never mutate)."""
    return {
        la: complement(la, box)
        for d in range(box.rows * box.cols + 1)
        for la in enumerate_partitions(box, d)
    }


@lru_cache(maxsize=None)
def _weights(box: Box) -> dict[Partition, int]:
    """Every index in the box mapped to its degree (shared; never mutate)."""
    return {la: weight(la) for la in _duals(box)}


def dual_partition(ring: GrassmannRing, la) -> Partition:
    """Index pairing to 1 against ``la`` under the intersection form."""
    return complement(partition(la), ring.box)

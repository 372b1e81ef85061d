"""Chow rings of Grassmannians with their Schubert bases.

``GrassmannRing(k, n)`` is the Chow ring of the variety of k-planes in
projective n-space; projective space itself is the k = 0 case.  Classes are
finite rational combinations of Schubert classes indexed by partitions in
the (k+1) x (n-k) box, and multiplication expands through
Littlewood-Richardson coefficients truncated to the box.

Coefficients are exact :class:`fractions.Fraction` values throughout; no
floating point enters the engine anywhere.  Rings are immutable and
shareable; the memoized table of structure constants is a pure cache
(identical inputs always produce identical rows), so concurrent use needs
no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .partitions import (
    Box,
    Partition,
    complement,
    enumerate_partitions,
    fits,
    lr_coefficient,
    partition,
    weight,
)

Scalar = int | Fraction

_ZERO = Fraction(0)


@dataclass(frozen=True)
class GrassmannRing:
    """The Chow ring of G(k, n), k-dimensional planes in P^n."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.k < self.n:
            raise ValueError(f"need 0 <= k < n, got k={self.k}, n={self.n}")

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
        return ChowClass._raw(self, {(): Fraction(1)})

    def point(self) -> ChowClass:
        return ChowClass._raw(self, {self.top: Fraction(1)})

    def hyperplane(self) -> ChowClass:
        """The ample generator sigma_(1)."""
        return self.sigma((1,))

    def sigma(self, la: Iterable[int] | Partition) -> ChowClass:
        """The Schubert basis class with index ``la``."""
        la = partition(la)
        if not fits(la, self.box):
            raise ValueError(f"partition {la} outside the {self.box.rows}x{self.box.cols} box")
        return ChowClass._raw(self, {la: Fraction(1)})

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
    """Finite rational combination of Schubert classes, possibly inhomogeneous."""

    __slots__ = ("ring", "coeffs")

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
        self.ring = ring
        self.coeffs = clean

    @classmethod
    def _raw(cls, ring: GrassmannRing, coeffs: dict[Partition, Fraction]) -> ChowClass:
        # internal fast path: keys already normalized, in the box, nonzero
        self = object.__new__(cls)
        self.ring = ring
        self.coeffs = coeffs
        return self

    def _require_same_ring(self, other: ChowClass) -> None:
        if self.ring != other.ring:
            raise ValueError(f"classes live in different rings: {self.ring} vs {other.ring}")

    # -- additive structure ------------------------------------------------

    def __add__(self, other: ChowClass) -> ChowClass:
        self._require_same_ring(other)
        acc = dict(self.coeffs)
        for la, c in other.coeffs.items():
            s = acc.get(la, _ZERO) + c
            if s:
                acc[la] = s
            else:
                acc.pop(la, None)
        return ChowClass._raw(self.ring, acc)

    def __neg__(self) -> ChowClass:
        return ChowClass._raw(self.ring, {la: -c for la, c in self.coeffs.items()})

    def __sub__(self, other: ChowClass) -> ChowClass:
        return self + (-other)

    # -- multiplicative structure -------------------------------------------

    def __mul__(self, other):
        if isinstance(other, ChowClass):
            self._require_same_ring(other)
            box = self.ring.box
            acc: dict[Partition, Fraction] = {}
            for la, x in self.coeffs.items():
                for mu, y in other.coeffs.items():
                    xy = x * y
                    for nu, c in _basis_product(box, la, mu):
                        s = acc.get(nu, _ZERO) + xy * c
                        if s:
                            acc[nu] = s
                        else:
                            acc.pop(nu, None)
            return ChowClass._raw(self.ring, acc)
        return self._scaled(other)

    def __rmul__(self, scalar: Scalar) -> ChowClass:
        return self._scaled(scalar)

    def __truediv__(self, scalar: Scalar) -> ChowClass:
        return self._scaled(Fraction(1, 1) / Fraction(scalar))

    def _scaled(self, scalar: Scalar) -> ChowClass:
        scalar = Fraction(scalar)
        if not scalar:
            return ChowClass._raw(self.ring, {})
        return ChowClass._raw(self.ring, {la: scalar * c for la, c in self.coeffs.items()})

    def __pow__(self, exponent: int) -> ChowClass:
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        acc = self.ring.one()
        for _ in range(exponent):
            acc = acc * self
        return acc

    # -- structure ------------------------------------------------------------

    def coefficient(self, la) -> Fraction:
        return self.coeffs.get(partition(la), _ZERO)

    def graded(self, degree: int) -> ChowClass:
        """The homogeneous component of the given degree."""
        return ChowClass._raw(
            self.ring, {la: c for la, c in self.coeffs.items() if weight(la) == degree}
        )

    def degrees(self) -> list[int]:
        return sorted({weight(la) for la in self.coeffs})

    def is_homogeneous(self, degree: int) -> bool:
        return all(weight(la) == degree for la in self.coeffs)

    def integrate(self) -> Fraction:
        """Pushforward to a point: the coefficient of the point class."""
        return self.coeffs.get(self.ring.top, _ZERO)

    def pair(self, other: ChowClass) -> Fraction:
        """The integral of ``self * other`` without forming the product: by
        Poincare duality sigma_la pairs to 1 with sigma_complement(la) and to
        0 with every other basis class."""
        self._require_same_ring(other)
        box = self.ring.box
        acc = _ZERO
        for la, x in self.coeffs.items():
            y = other.coeffs.get(complement(la, box))
            if y is not None:
                acc += x * y
        return acc

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChowClass)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.coeffs.items()))))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for la in sorted(self.coeffs, key=lambda p: (weight(p), p)):
            c = self.coeffs[la]
            name = "s(" + ",".join(map(str, la)) + ")"
            terms.append(name if c == 1 else f"{c}*{name}")
        return " + ".join(terms)


@lru_cache(maxsize=None)
def _basis_product(box: Box, la: Partition, mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """sigma_la * sigma_mu expanded in the Schubert basis, truncated to the box."""
    if mu < la:
        la, mu = mu, la  # LR symmetry halves the cache
    rows = []
    for nu in enumerate_partitions(box, weight(la) + weight(mu)):
        c = lr_coefficient(la, mu, nu)
        if c:
            rows.append((nu, c))
    return tuple(rows)


def duality_pairing(ring: GrassmannRing, la, mu) -> Fraction:
    """The integral of sigma_la * sigma_mu; 1 exactly on complementary pairs."""
    return (ring.sigma(la) * ring.sigma(mu)).integrate()


def dual_partition(ring: GrassmannRing, la) -> Partition:
    """Index pairing to 1 against ``la`` under the intersection form."""
    return complement(partition(la), ring.box)

"""Hirzebruch-Riemann-Roch on Grassmannians.

The Euler characteristic of a bundle is the exact rational
``integral(ch(E) * td(T))``, read as one Poincare pairing; it is an integer
whenever the Chern data comes from an actual bundle, and the value is
returned unreduced as a Fraction so integrality filters can see a failure.
``euler_polynomial`` packages chi(E(k)) as a polynomial in the twist k:
twisting multiplies ch(E) by exp(k*h), so the coefficient of k^j is the
pairing of ch(E) with h^j * td(T) / j!.

For rank-two data (e, a, b) on a ring of lines or on a projective space,
chi(E) is a fixed polynomial in the coordinates: ``chi_form`` builds it once
per ring from the pairings of the monomial classes h^i * s(2)^l * s(1,1)^r
with td(T), weighted by the rank-two Newton coefficients of ch, and
evaluates it in integers.  Every rank-two chi the CLI and the replay print
reads it: the candidate scan, folded at each twist into a polynomial in
(a, b) (``RankTwoForm.at_twist``), the ``chi`` command, step 2 of the replay
and ``chi_p3``, whose form on P^3 has no b terms.  The general path above
(``euler_characteristic`` of a Chern vector) serves bundles of other ranks
and is the oracle the form is checked against, in the replay's preflight
and in the tests.  Every path twists rank-two data in its coordinates, by
``RankTwoData.twisted``, and everything is stateless given the immutable
ring inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .charclass import (
    ChernVector,
    RankTwoData,
    RankTwoForm,
    rank_two_character,
    rank_two_form,
    tangent_bundle,
)
from .chow import ChowClass, GrassmannRing, Scalar


@lru_cache(maxsize=None)
def tangent_todd(ring: GrassmannRing) -> ChowClass:
    return tangent_bundle(ring).todd()


@lru_cache(maxsize=None)
def _twist_kernels(ring: GrassmannRing) -> tuple[ChowClass, ...]:
    # h^j * td(T) / j! for j = 0..dim: twisting by O(k) multiplies the Chern
    # character by exp(k*h) = sum_j k^j * h^j / j!, so the coefficient of k^j
    # in chi(E(k)) is one pairing against the j-th kernel.
    kernel = tangent_todd(ring)
    h = ring.hyperplane()
    kernels = [kernel]
    for j in range(1, ring.dimension + 1):
        kernel = kernel * h / j
        kernels.append(kernel)
    return tuple(kernels)


def euler_characteristic(v: ChernVector) -> Fraction:
    """chi(E) = integral of ch(E) * td(T)."""
    return v.ch().pair(tangent_todd(v.ring))


@lru_cache(maxsize=None)
def chi_form(ring: GrassmannRing) -> RankTwoForm:
    """chi(E) of rank-two data (e, a, b) on ``ring`` as one form: the pairing
    of ch(E), written in c1 and c2, with td(T)."""
    return rank_two_form(ring, rank_two_character(ring.dimension), tangent_todd(ring))


@dataclass(frozen=True)
class EulerPolynomial:
    """chi(E(k)) as a polynomial in the integer twist k, low coefficients first."""

    coefficients: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, k: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * k + c
        return acc

    def is_integer_valued(self) -> bool:
        """Integrality at degree+1 consecutive integers, which (by the
        binomial-basis theorem for integer-valued polynomials) settles
        integrality at every integer."""
        return all(self(k).denominator == 1 for k in range(self.degree + 1))


def euler_polynomial(v: ChernVector) -> EulerPolynomial:
    """chi(E(k)) = sum_j k^j * integral(ch(E) * h^j * td(T)) / j!."""
    character = v.ch()
    return EulerPolynomial(tuple(character.pair(kernel) for kernel in _twist_kernels(v.ring)))


PROJECTIVE_3_SPACE = GrassmannRing(0, 3)


def chi_p3(c1: int, c2: int, t: int) -> Fraction:
    """chi on P^3 of rank-two data (c1, c2) twisted by t (``RankTwoData.twisted``), i.e. of
    (c1 + 2t, c2 + t*c1 + t^2), read off ``chi_form``; P^3 has no s(1,1), so b stays 0."""
    e, a, _ = RankTwoData(c1, c2, 0).twisted(t)
    return chi_form(PROJECTIVE_3_SPACE)(RankTwoData(e, a, 0))

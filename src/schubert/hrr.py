"""Hirzebruch-Riemann-Roch on Grassmannians.

The Euler characteristic of a bundle is the exact rational
``integral(ch(E) * td(T))``; it is an integer whenever the Chern data comes
from an actual bundle, and the value is returned as a Fraction, exact and
never rounded, so integrality filters can see a failure.
``euler_characteristic`` takes one of two paths.  A Chern vector with no
class above c1 = s*h, every line bundle O(t) among them, has the Chern
roots s*h and rank - 1 zeros, so chi(E) = P(s) + (rank - 1) * P(0) with P
the ring's Hilbert polynomial P(t) = chi(O(t)) = sum_m t^m *
integral(h^m * td(T)) / m!.  P is built once per ring from the hyperplane
powers, which need no product, as integer coefficients over one
denominator, and read by one integer Horner loop, homogenised in q for
s = x/q; no power sum or Chern character is built.  Every other vector
pairs its Chern character with td(T) in one Poincare pairing.  The replay's
preflight compares the two paths on every run: its chi(O(p)+O(q)) check
sets chi(O(p)) + chi(O(q)), read off P, against chi of the split bundle,
whose c2 = pq*h^2 is nonzero at (p, q) = (-2, 2) and (1, 3), so that chi
takes the pairing.
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

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import NamedTuple

from .charclass import (
    ChernVector,
    RankTwoData,
    RankTwoForm,
    rank_two_character,
    rank_two_form,
    tangent_bundle,  # unused here; the benchmark's tracer rebinds it by name in this module
    tangent_power_sums,
)
from .chow import ChowClass, GrassmannRing, Scalar, sum_of_products


@lru_cache(maxsize=None)
def tangent_todd(ring: GrassmannRing) -> ChowClass:
    # straight from the tangent's own power sums, with no Newton round trip
    # through its Chern classes
    return tangent_power_sums(ring).todd()


def _twist_kernels(ring: GrassmannRing) -> tuple[ChowClass, ...]:
    # h^j * td(T) / j! for j = 0..dim: twisting by O(k) multiplies the Chern
    # character by exp(k*h) = sum_j k^j * h^j / j!, so the coefficient of k^j
    # in chi(E(k)) is one pairing against the j-th kernel.
    kernel = tangent_todd(ring)
    h = ring.hyperplane()
    kernels = [kernel]
    for j in range(1, ring.dimension + 1):
        kernel = sum_of_products(ring, ((1, kernel, h),), j)
        kernels.append(kernel)
    return tuple(kernels)


@lru_cache(maxsize=None)
def _hilbert_polynomial(ring: GrassmannRing) -> tuple[tuple[int, ...], int]:
    """P(t) = chi(O(t)) = sum_m t^m * integral(h^m * td(T)) / m!, as its
    integer coefficients of t^0..t^dim over one positive denominator: one
    pairing of each hyperplane power, which needs no product, with td(T)."""
    todd = tangent_todd(ring)
    coeffs = [hm.pair(todd) / factorial(m) for m, hm in enumerate(ring.hyperplane_powers())]
    den = lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * den) for c in coeffs), den


def euler_characteristic(v: ChernVector) -> Fraction:
    """chi(E) = integral of ch(E) * td(T).

    With no Chern class above c1 = s*h, the Chern roots are s*h and
    rank - 1 zeros, so chi(E) = P(s) + (rank - 1) * P(0) for the ring's
    Hilbert polynomial P, read in integers: with s = x/q and P_m the
    coefficient of t^m, q^dim * P(s) = sum_m P_m * x^m * q^(dim - m) by
    Horner."""
    ring, c = v.ring, v.c
    if any(c[2:]):
        return v.ch().pair(tangent_todd(ring))
    coeffs, den = _hilbert_polynomial(ring)
    x, q = c[1].num.get((1,), 0), c[1].den
    dim = ring.dimension
    acc = 0
    for m in range(dim, -1, -1):
        acc = acc * x + coeffs[m] * q ** (dim - m)
    return Fraction(acc + (v.rank - 1) * coeffs[0] * q**dim, den * q**dim)


@lru_cache(maxsize=None)
def chi_form(ring: GrassmannRing) -> RankTwoForm:
    """chi(E) of rank-two data (e, a, b) on ``ring`` as one form: the pairing
    of ch(E), written in c1 and c2, with td(T)."""
    return rank_two_form(ring, rank_two_character(ring.dimension), tangent_todd(ring))


class EulerPolynomial(NamedTuple):
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
    (c1 + 2t, c2 + t*c1 + t^2), read off ``chi_form``, which has no b term: s(1,1) is not in P^3."""
    return chi_form(PROJECTIVE_3_SPACE)(RankTwoData(c1, c2, 0).twisted(t))

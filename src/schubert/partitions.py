"""Partitions in a bounded box and Littlewood-Richardson coefficients.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the empty partition.  ``partition()`` normalizes away
trailing zeros and every function here returns normalized tuples, so
partitions compare and hash structurally.

Littlewood-Richardson coefficients come from one iterative enumerator of
lattice-word skew tableaux, ``skew_lr_expansion``, which collects every
content of a skew shape at once.  Direct enumeration is easy to audit and,
at the box sizes this library targets, beats asymptotic cleverness.
Everything in this module is a pure function on immutable
values and safe to call concurrently.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

Partition = tuple[int, ...]


class Box(NamedTuple):
    """Bounding rectangle: at most ``rows`` parts, each at most ``cols``."""

    rows: int
    cols: int


def partition(parts: Iterable[int]) -> Partition:
    """Normalize ``parts`` to a partition tuple, dropping trailing zeros."""
    t = tuple(int(x) for x in parts)
    end = len(t)
    while end and t[end - 1] == 0:
        end -= 1
    t = t[:end]  # one slice, not one per trailing zero
    if (t and t[-1] < 0) or any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"not a weakly decreasing sequence of non-negative parts: {parts!r}")
    return t


def weight(la: Partition) -> int:
    """Number of boxes |la|."""
    return sum(la)


def fits(la: Partition, box: Box) -> bool:
    return len(la) <= box.rows and (not la or la[0] <= box.cols)


def contains(outer: Partition, inner: Partition) -> bool:
    """Diagram containment inner <= outer."""
    return len(inner) <= len(outer) and all(inner[i] <= outer[i] for i in range(len(inner)))


def enumerate_partitions(box: Box, degree: int) -> list[Partition]:
    """All partitions of ``degree`` fitting in ``box``, lexicographically descending."""
    out: list[Partition] = []

    def grow(prefix: list[int], remaining: int, cap: int, rows_left: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if rows_left == 0:
            return
        lo = -(-remaining // rows_left)  # smallest head part that can still absorb the rest
        for part in range(min(cap, remaining), lo - 1, -1):
            prefix.append(part)
            grow(prefix, remaining - part, part, rows_left - 1)
            prefix.pop()

    if 0 <= degree <= box.rows * box.cols:
        grow([], degree, box.cols, box.rows)
    return out


def conjugate(la: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not la:
        return ()
    return tuple(sum(1 for part in la if part > i) for i in range(la[0]))


def complement(la: Partition, box: Box) -> Partition:
    """Rotated box complement: the Poincare-dual index inside ``box``."""
    if not fits(la, box):
        raise ValueError(f"{la} does not fit in {box}")
    padded = la + (0,) * (box.rows - len(la))
    return partition(box.cols - padded[i] for i in reversed(range(box.rows)))


def is_horizontal_strip(mu: Partition, la: Partition) -> bool:
    """True iff la <= mu and mu/la has at most one box in every column."""
    if not contains(mu, la):
        return False
    padded = la + (0,) * (len(mu) - len(la))
    return all(mu[i + 1] <= padded[i] for i in range(len(mu) - 1))


def is_vertical_strip(mu: Partition, la: Partition) -> bool:
    """True iff la <= mu and mu/la has at most one box in every row."""
    if not contains(mu, la):
        return False
    padded = la + (0,) * (len(mu) - len(la))
    return all(mu[i] - padded[i] <= 1 for i in range(len(mu)))


def skew_lr_expansion(outer: Partition, inner: Partition) -> dict[Partition, int]:
    """s_{outer/inner} in the Schur basis: ``{ka: c^outer_{inner,ka}}`` over
    the nonzero coefficients; empty unless inner <= outer.

    Each column-strict filling of outer/inner whose reverse reading word (rows
    top to bottom, right to left within a row) is a lattice word adds one at
    its content ka.  The cells, in reading order, form an explicit stack, so
    the search depth meets no recursion limit.
    """
    if not contains(outer, inner):
        return {}
    rows = len(outer)
    inner = inner + (0,) * (rows - len(inner))
    cells = [(r, c) for r in range(rows) for c in range(outer[r] - 1, inner[r] - 1, -1)]
    size = len(cells)
    at = {cell: i for i, cell in enumerate(cells)}
    # fill[i] is the label of cell i, 0 while unset; past the cells it holds 0
    # (no cell above) and then r + 1, the largest label row r may take
    fill = [0] * (size + 1) + list(range(1, rows + 1))
    above = [at.get((r - 1, c), size) for r, c in cells]  # labels strictly exceed it
    right = [at.get((r, c + 1), size + 1 + r) for r, c in cells]  # and do not exceed this
    counts = [size + 1] + [0] * (rows + 1)  # cells per label; counts[0] admits label 1
    out: dict[Partition, int] = {}
    i = 0
    while i >= 0:
        if i == size:
            ka = tuple(counts[1 : counts.index(0)])
            out[ka] = out.get(ka, 0) + 1
            i -= 1
            continue
        v = fill[i]
        if v:
            counts[v] -= 1  # move cell i on to its next label
        v = max(v, fill[above[i]]) + 1
        hi = fill[right[i]]
        while v <= hi and counts[v] >= counts[v - 1]:  # keep the word a lattice word
            v += 1
        if v > hi:
            fill[i] = 0
            i -= 1
        else:
            fill[i] = v
            counts[v] += 1
            i += 1
    return out


@lru_cache(maxsize=None)
def lr_coefficient(la: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient: multiplicity of s_nu in s_la * s_mu.

    The coefficient of s_mu in the skew Schur function s_{nu/la}, read from
    :func:`skew_lr_expansion`.  Zero whenever |nu| != |la| + |mu| or the
    shapes are not nested.
    """
    la, mu, nu = partition(la), partition(mu), partition(nu)
    if weight(la) + weight(mu) != weight(nu):
        return 0
    if not contains(nu, la) or not contains(nu, mu):
        return 0
    return skew_lr_expansion(nu, la).get(mu, 0)

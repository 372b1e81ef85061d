"""Partitions in a bounded box and Littlewood-Richardson coefficients.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the empty partition.  ``partition()`` normalizes away
trailing zeros and every function here returns normalized tuples, so
partitions compare and hash structurally.

Littlewood-Richardson coefficients come from one iterative enumerator of
lattice-word skew tableaux, ``_skew_expansion``, which collects every
content of a skew shape at once.  Direct enumeration is easy to audit and,
at the box sizes this library targets, beats asymptotic cleverness.  One
family of shapes needs no tableaux: when every nonempty row starts at one
column or every one ends at one column, the shape is a translated or a
rotated partition and its skew Schur function is the single Schur function
of its row lengths (van Willigenburg, "Equality of Schur and skew Schur
functions", Ann. Comb. 2005), so it is answered after one pad of the inner
partition and one scan from each end for the nonempty rows.  The skew
Schur function of a disconnected shape is the product of those of its
edge-connected components, wherever they sit (Macdonald, Symmetric
Functions and Hall Polynomials, I.5), so such a shape is enumerated once
per unordered set of components, placed corner to corner, and read from a
cache after that.  ``_skew_expansion`` leaves the containment test to its
callers, the product table of ``chow`` and ``lr_coefficient``, and returns
a disconnected shape's cached dict without a copy.  Everything in this
module is a pure function on immutable values (the cache only remembers
such results) and safe to call concurrently.
"""

from __future__ import annotations

from functools import lru_cache
from operator import le
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
    return len(inner) <= len(outer) and all(map(le, inner, outer))


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


def complement(la: Partition, box: Box) -> Partition:
    """Rotated box complement: the Poincare-dual index inside ``box``."""
    if not fits(la, box):
        raise ValueError(f"{la} does not fit in {box}")
    padded = la + (0,) * (box.rows - len(la))
    return partition(box.cols - padded[i] for i in reversed(range(box.rows)))


def _skew_expansion(outer: Partition, inner: Partition) -> dict[Partition, int]:
    """s_{outer/inner} in the Schur basis, ``{ka: c^outer_{inner,ka}}`` over
    the nonzero coefficients, for inner <= outer, which is not checked: the
    product table's rows come from here.  The dict of a disconnected shape
    is shared with the cache; never mutate the result.

    The empty shape returns {(): 1}, and a translated or rotated partition
    its row lengths (reversed for a rotated one) with coefficient 1.  Any
    other shape is split into its edge-connected components: rows r - 1 and
    r share an edge iff outer[r] > inner[r - 1], so an empty row shares none
    and is dropped.  A connected shape is enumerated by ``_lattice_words``.
    A disconnected one is read from ``_component_product``, keyed by its
    components, each moved to its own leftmost column, sorted.
    """
    rows = len(outer)
    if len(inner) < rows:
        inner += (0,) * (rows - len(inner))
    if inner == outer:
        return {(): 1}
    top, bottom = 0, rows  # the nonempty rows lie in [top:bottom]
    while inner[top] == outer[top]:
        top += 1
    while inner[bottom - 1] == outer[bottom - 1]:
        bottom -= 1
    # A single Schur function: the nonempty rows all start at one column (a
    # translated partition) or all end at one column (a rotated one).  Both
    # ends are weakly decreasing down the rows, so comparing the first
    # nonempty row with the last settles it.  No row between them is then
    # empty: between two rows starting at column c an empty row would have
    # both parts c, under an outer part below it that exceeds c (and
    # likewise for rows ending at one column).
    left = inner[top]
    if left == inner[bottom - 1]:
        return {tuple([o - left for o in outer[top:bottom]]): 1}
    right = outer[top]
    if right == outer[bottom - 1]:
        return {tuple([right - n for n in reversed(inner[top:bottom])]): 1}
    # Each component [start:r] is its outer rows and then its inner rows,
    # all less its leftmost column inner[r - 1].
    components = []
    start = top
    for r in range(top + 1, bottom + 1):
        if r < bottom and outer[r] > inner[r - 1]:
            continue
        if r == bottom and start == top:
            return _lattice_words(outer, inner, top, bottom)  # connected
        if r - start > 1:
            left = inner[r - 1]
            components.append(tuple([x - left for x in outer[start:r] + inner[start:r]]))
        elif outer[start] > inner[start]:  # one row, not empty
            components.append((outer[start] - inner[start], 0))
        start = r
    components.sort()
    return _component_product(tuple(components))


@lru_cache(maxsize=None)
def _component_product(components: tuple[tuple[int, ...], ...]) -> dict[Partition, int]:
    """The product of the skew Schur functions of ``components``: connected
    skew shapes, each its outer rows and then its inner rows, starting at
    column 0 (shared; never mutate).

    The components are placed corner to corner, the first at the top and
    each next one below the one before and left of it by its own width, and
    that disconnected shape is enumerated once.
    """
    outer: list[int] = []
    inner: list[int] = []
    shift = 0
    for rows in reversed(components):  # bottom up, from column 0
        k = len(rows) // 2
        outer[:0] = [o + shift for o in rows[:k]]
        inner[:0] = [n + shift for n in rows[k:]]
        shift += rows[0]
    return _lattice_words(tuple(outer), tuple(inner), 0, len(outer))


def _lattice_words(
    outer: Partition, inner: tuple[int, ...], top: int, bottom: int
) -> dict[Partition, int]:
    """The lattice-word search behind ``_skew_expansion``: ``inner``
    padded to the length of ``outer``, the nonempty rows in [top:bottom].

    Each column-strict filling of outer/inner whose reverse reading word (rows
    top to bottom, right to left within a row) is a lattice word adds one at
    its content ka.  The labels live on a grid of stride w = outer[0] + 1:
    row r of the shape is grid row r + 1 and grid row 0 is zeros, so the cell
    above position p is p - w and the bound on its right is p + 1.  The
    cells, in reading order, form an explicit stack, so the search depth
    meets no recursion limit.
    """
    rows = len(outer)
    w = outer[0] + 1
    # Label 0 marks a position with no label: unset, outside the shape, or
    # grid row 0.  Grid position (r, outer[r - 1]) holds r, the largest label
    # row r - 1 of the shape may take; no cell reads it as its upper
    # neighbour, because outer[r] <= outer[r - 1].  Only the last cell of a
    # row reads the row's mark, so only the rows from the first nonempty one
    # to the last get one.
    grid = [0] * (w * (rows + 1))
    cells: list[int] = []  # grid positions, in reading order
    for r in range(top + 1, bottom + 1):
        o, n = outer[r - 1], inner[r - 1]
        base = w * r
        grid[base + o] = r
        cells += range(base + o - 1, base + n - 1, -1)
    size = len(cells)
    counts = [size + 1] + [0] * (rows + 1)  # cells per label; counts[0] admits label 1
    out: dict[Partition, int] = {}
    i = 0
    while i >= 0:
        if i == size:
            ka = tuple(counts[1 : counts.index(0)])
            out[ka] = out.get(ka, 0) + 1
            i -= 1
            continue
        p = cells[i]
        v = grid[p]
        if v:
            counts[v] -= 1  # move cell p on to its next label
        a = grid[p - w]
        v = (v if v > a else a) + 1
        hi = grid[p + 1]
        while v <= hi and counts[v] >= counts[v - 1]:  # keep the word a lattice word
            v += 1
        if v > hi:
            grid[p] = 0
            i -= 1
        else:
            grid[p] = v
            counts[v] += 1
            i += 1
    return out


@lru_cache(maxsize=None)
def lr_coefficient(la: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient: multiplicity of s_nu in s_la * s_mu.

    The coefficient of s_mu in the skew Schur function s_{nu/la}, read from
    ``_skew_expansion`` once ``contains`` has found la <= nu.  Zero whenever
    |nu| != |la| + |mu| or the shapes are not nested.
    """
    la, mu, nu = partition(la), partition(mu), partition(nu)
    if weight(la) + weight(mu) != weight(nu):
        return 0
    if not contains(nu, la) or not contains(nu, mu):
        return 0
    return _skew_expansion(nu, la).get(mu, 0)

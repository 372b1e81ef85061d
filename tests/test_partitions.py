import random
import time
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from schubert import ChowClass, GrassmannRing
from schubert.partitions import (
    Box,
    _skew_expansion,
    complement,
    contains,
    enumerate_partitions,
    lr_coefficient,
    partition,
    weight,
)

from oracles import (
    brute_force_box_partitions,
    cells,
    conjugate,
    is_horizontal_strip_cells,
    is_vertical_strip_cells,
    partitions_of,
    pieri_product,
)

# every partition of weight <= 8 with at most 4 rows and parts <= 8
SMALL = [
    tuple(p)
    for w in range(9)
    for p in brute_force_box_partitions(4, 8, w)
]

small_partitions = st.sampled_from(SMALL)


def test_partition_normalizes_trailing_zeros():
    assert partition((3, 1, 0, 0)) == (3, 1)
    assert partition(()) == ()
    assert partition((0, 0)) == ()


def test_partition_strips_many_trailing_zeros_at_once():
    # stripping one zero at a time copies the tuple per zero: over a minute here
    start = time.perf_counter()
    assert partition((1,) + (0,) * 200_000) == (1,)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("bad", [(1, 2), (2, 3, 1), (-1,), (3, -2)])
def test_partition_rejects_non_partitions(bad):
    with pytest.raises(ValueError):
        partition(bad)


@pytest.mark.parametrize(
    "build",
    [
        lambda G: G.sigma((1.9,)),
        lambda G: G.omega(0.5, 4),
        lambda G: ChowClass(G, {(1.5,): 1}),
        lambda G: lr_coefficient((1.5,), (1,), (2,)),
        lambda G: partition((Fraction(2),)),
        lambda G: partition("21"),
    ],
    ids=["sigma", "omega", "ChowClass", "lr_coefficient", "Fraction", "str"],
)
def test_partition_refuses_parts_that_are_not_integers(build):
    # a part is read by operator.index: truncating 1.9 to 1 would name
    # another class, so a float, a Fraction or a string raises
    with pytest.raises(TypeError):
        build(GrassmannRing(1, 4))


def test_partition_reads_bool_parts_as_integers():
    assert partition((True, False)) == (1,)
    assert GrassmannRing(1, 4).sigma((True,)) == GrassmannRing(1, 4).sigma((1,))


def test_enumerate_examples():
    box = Box(2, 3)
    assert enumerate_partitions(box, 0) == [()]
    assert enumerate_partitions(box, 6) == [(3, 3)]
    assert enumerate_partitions(box, 2) == [(2,), (1, 1)]
    assert enumerate_partitions(box, 7) == []


@pytest.mark.parametrize("rows,cols", [(1, 4), (2, 3), (3, 2), (3, 4)])
def test_enumerate_matches_brute_force(rows, cols):
    for degree in range(rows * cols + 2):
        got = enumerate_partitions(Box(rows, cols), degree)
        assert got == brute_force_box_partitions(rows, cols, degree)
        assert got == sorted(got, reverse=True)  # canonical order


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)


@given(small_partitions)
def test_conjugate_involution(la):
    assert conjugate(conjugate(la)) == la
    assert weight(conjugate(la)) == weight(la)


def test_complement_examples():
    box = Box(2, 3)
    assert complement((3, 1), box) == (2,)
    assert complement((3, 3), box) == ()
    assert complement((2, 1), box) == (2, 1)
    with pytest.raises(ValueError):
        complement((4,), box)


def test_complement_involution():
    box = Box(2, 3)
    for w in range(7):
        for la in enumerate_partitions(box, w):
            assert complement(complement(la, box), box) == la


def test_strip_examples():
    assert is_horizontal_strip_cells((3, 1), (2,))
    assert not is_horizontal_strip_cells((2, 2), (1, 1))
    assert is_vertical_strip_cells((2, 2), (1, 1))


def test_lr_multiplication_by_unit():
    for la in SMALL[:20]:
        for nu in SMALL[:20]:
            assert lr_coefficient(la, (), nu) == (1 if la == nu else 0)


def test_lr_known_values():
    assert lr_coefficient((2, 1), (2, 1), (3, 3)) == 1
    assert lr_coefficient((2,), (1, 1), (3, 1)) == 1
    # first case with multiplicity two
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    # weight or containment failures vanish
    assert lr_coefficient((2,), (1,), (2,)) == 0
    assert lr_coefficient((2, 2), (1,), (3, 1, 1)) == 0


def _nested_skew(outer, inner):
    """The skew expansion of outer/inner from ``_skew_expansion``, once
    ``contains`` has checked the nesting that it leaves to its callers."""
    assert contains(outer, inner), (outer, inner)
    return _skew_expansion(outer, inner)


def test_skew_lr_expansion_examples():
    assert _nested_skew((2, 1), (1,)) == {(2,): 1, (1, 1): 1}
    assert _nested_skew((3, 2, 1), (2, 1)) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    assert _nested_skew((2, 1), (2, 1)) == {(): 1}
    # not nested: no term, so c^(2)_{(1,1),()} is zero
    assert not contains((2,), (1, 1)) and lr_coefficient((1, 1), (), (2,)) == 0
    # one row of 2399 cells, far beyond the recursion limit
    assert _nested_skew((2400,), (1,)) == {(2399,): 1}
    # one column of 200 cells: a grid 301 rows high and labels up to 200
    assert _nested_skew((1,) * 300, (1,) * 100) == {(1,) * 200: 1}
    # single-term shapes: rows ending at one column read bottom up, rows
    # starting at one column top down, a single row under a longer one
    assert _nested_skew((4, 4, 4), (2, 2)) == {(4, 2, 2): 1}
    assert _nested_skew((5, 3, 1), (2, 2, 1)) == {(3, 1): 1}
    assert _nested_skew((4, 3, 1), (4, 1, 1)) == {(2,): 1}
    assert _nested_skew((3, 2), (3, 2)) == {(): 1}
    # a disconnected shape
    assert _nested_skew((3, 1), (1,)) == {(2, 1): 1, (3,): 1}


def _random_skew_shape(rng, kind):
    """A seeded outer/inner pair of one of three kinds: inner inside outer
    with an empty middle row, inner inside outer with as many rows, or inner
    not inside outer."""
    rows = rng.randint(3 if kind == "empty middle row" else 1, 4)
    outer = sorted((rng.randint(1, 5) for _ in range(rows)), reverse=True)
    if kind == "not inside":
        while True:
            inner = sorted((rng.randint(0, 6) for _ in range(rng.randint(1, 5))), reverse=True)
            if not cells(inner) <= cells(outer):
                return tuple(outer), partition(inner)
    low = 1 if kind == "as long" else 0
    inner, cap = [], outer[0]
    for part in outer:
        cap = rng.randint(low, min(cap, part))
        inner.append(cap)
    if kind == "empty middle row":
        r = rng.randint(1, rows - 2)
        inner = [max(x, outer[r]) if i < r else x for i, x in enumerate(inner)]
        inner[r] = outer[r]
    return tuple(outer), partition(inner)


@pytest.mark.parametrize("kind", ["empty middle row", "as long", "not inside"])
def test_skew_lr_expansion_matches_the_pieri_oracle(kind):
    # c^outer_{inner,nu} is the coefficient of s_outer in s_inner * s_nu, read
    # from the Jacobi-Trudi/Pieri oracle in a box that holds outer and inner
    # whole, so nothing the coefficient needs is truncated; lr_coefficient
    # agrees on every nu, and a pair that is not nested has no term
    rng = random.Random(f"skew {kind}")
    for _ in range(30):
        outer, inner = _random_skew_shape(rng, kind)
        rows = max(len(outer), len(inner))
        cols = max(outer[0], inner[0] if inner else 0)
        ring = GrassmannRing(rows - 1, rows - 1 + cols)
        expected = {}
        for nu in partitions_of(weight(outer) - weight(inner), len(outer), outer[0]):
            c = pieri_product(ring, inner, nu).get(outer, 0)
            assert lr_coefficient(inner, nu, outer) == c, (outer, inner, nu)
            if c:
                expected[nu] = c
        if kind == "not inside":
            assert not contains(outer, inner) and expected == {}
        else:
            got = _nested_skew(outer, inner)
            assert got == expected, (outer, inner)
            assert got  # a skew Schur function of a nested pair is not zero


@pytest.mark.parametrize("rows,cols,nested", [(3, 4, 490), (5, 2, 196)])
def test_skew_lr_expansion_on_every_pair_of_a_box(rows, cols, nested):
    # Every (outer, inner) pair of the box, against the Jacobi-Trudi/Pieri
    # oracle: c^outer_{inner,nu} is the coefficient of s_outer in
    # s_inner * s_nu, and truncating that product to the box drops no outer
    # of the box.  The pairs take in an inner row as long as its outer row,
    # an empty inner shape, inner = outer and a row under a longer one.
    ring = GrassmannRing(rows - 1, rows - 1 + cols)
    shapes = [p for w in range(rows * cols + 1) for p in brute_force_box_partitions(rows, cols, w)]
    expected = defaultdict(dict)
    for inner in shapes:
        for nu in shapes:
            if weight(inner) + weight(nu) <= rows * cols:
                for outer, c in pieri_product(ring, inner, nu).items():
                    expected[outer, inner][nu] = c
    seen = 0
    for outer in shapes:
        for inner in shapes:
            if cells(inner) <= cells(outer):
                seen += 1
                assert _nested_skew(outer, inner) == expected[outer, inner], (outer, inner)
            else:
                # not nested: no term, and lr_coefficient is zero on every nu
                assert not contains(outer, inner), (outer, inner)
                for nu in shapes:
                    if weight(inner) + weight(nu) == weight(outer):
                        assert lr_coefficient(inner, nu, outer) == 0, (outer, inner, nu)
    assert seen == nested


@pytest.mark.parametrize("rows,cols", [(4, 4), (4, 5)])
def test_single_term_skew_shapes_are_the_translated_and_rotated_partitions(rows, cols):
    # On every nested pair of the box: s_{outer/inner} is one Schur function
    # with coefficient 1 exactly when the nonempty rows all start at one
    # column or all end at one column (van Willigenburg 2005), and that
    # function is s of the row lengths, read top down or bottom up.  LR
    # symmetry, c^outer_{inner,ka} = c^outer_{ka,inner}, checks each single
    # term through the skew shape outer/ka.
    shapes = [p for w in range(rows * cols + 1) for p in brute_force_box_partitions(rows, cols, w)]
    singles = 0
    for outer in shapes:
        for inner in shapes:
            if not cells(inner) <= cells(outer):
                continue
            padded = inner + (0,) * (len(outer) - len(inner))
            spans = [(n, o) for n, o in zip(padded, outer) if n < o]
            lengths = [o - n for n, o in spans]
            left = len({n for n, _ in spans}) <= 1
            right = len({o for _, o in spans}) <= 1
            got = _nested_skew(outer, inner)
            single = len(got) == 1 and list(got.values()) == [1]
            assert single == (left or right), (outer, inner, got)
            if single:
                singles += 1
                ka = tuple(lengths if left else reversed(lengths))
                assert got == {ka: 1}, (outer, inner)
                assert _nested_skew(outer, ka).get(inner) == 1, (outer, inner)
    assert singles


@st.composite
def _component(draw, budget):
    """A connected skew shape of at most ``budget`` cells and at most four
    rows, leftmost column 0: (outer rows, inner rows), both as long.
    Straight or skew, built bottom up: each row above shares an edge with
    the one below it."""
    straight = draw(st.booleans())
    o = draw(st.integers(1, min(budget, 4)))
    outer, inner, budget = [o], [0], budget - o
    while len(outer) < 4 and budget and draw(st.booleans()):
        below_o, below_n = outer[0], inner[0]
        lo = 0 if straight else max(below_n, below_o - budget)
        hi = 0 if straight else below_o - 1
        if lo > hi or below_o - lo > budget:
            break
        n = draw(st.integers(lo, hi))
        o = draw(st.integers(max(below_o, n + 1), n + budget))
        outer.insert(0, o)
        inner.insert(0, n)
        budget -= o - n
    return tuple(outer), tuple(inner)


@st.composite
def _components_and_gaps(draw):
    """Two to four components of at most 10 cells in all, and for each of
    two placements the (empty rows, empty columns) between neighbours."""
    count = draw(st.integers(2, 4))
    components, budget = [], 10
    for i in range(count):
        component = draw(_component(budget - (count - 1 - i)))
        components.append(component)
        budget -= weight(component[0]) - weight(component[1])
    gap = st.tuples(st.integers(0, 2), st.integers(0, 2))
    gaps = st.lists(gap, min_size=count - 1, max_size=count - 1)
    return components, draw(gaps), draw(gaps)


def _place(components, gaps):
    """outer/inner of ``components`` placed top to bottom, each next one
    below the one before and left of it, ``gaps[i]`` = (empty rows, empty
    columns) between components i and i + 1; (0, 0) touches at a corner."""
    outer, inner, shift = [], [], 0
    for i in reversed(range(len(components))):
        o, n = components[i]
        if i < len(components) - 1:
            rows, columns = gaps[i]
            shift += columns
            outer[:0] = inner[:0] = [shift] * rows
        outer[:0] = [x + shift for x in o]
        inner[:0] = [x + shift for x in n]
        shift += o[0]
    return partition(outer), partition(inner)


def _oracle_skew_expansion(outer, inner):
    """s_{outer/inner} from the Jacobi-Trudi/Pieri oracle: c^outer_{inner,nu}
    is the coefficient of s_outer in s_inner * s_nu, with the determinant
    taken of the shorter factor."""
    ring = GrassmannRing(len(outer) - 1, len(outer) - 1 + outer[0])
    out = {}
    for nu in partitions_of(weight(outer) - weight(inner), len(outer), outer[0]):
        la, mu = (inner, nu) if len(inner) >= len(nu) else (nu, inner)
        c = pieri_product(ring, la, mu).get(outer, 0)
        if c:
            out[nu] = c
    return out


def _oracle_product(f, g):
    """The product of two Schur expansions of at most 10 cells in all, from
    the Jacobi-Trudi/Pieri oracle in a 10 x 10 box, which truncates none."""
    ring = GrassmannRing(9, 19)
    out = defaultdict(int)
    for a, x in f.items():
        for b, y in g.items():
            la, mu = (a, b) if len(a) >= len(b) else (b, a)
            for nu, c in pieri_product(ring, la, mu).items():
                out[nu] += x * y * c
    return {nu: c for nu, c in out.items() if c}


@given(_components_and_gaps())
# touching at a corner, then apart by an empty row and by an empty column
@example(([((2, 2), (1, 0)), ((1,), (0,)), ((2,), (0,))], [(0, 0), (0, 0)], [(1, 0), (0, 1)]))
# two skew components, one a rotated partition, apart by rows and columns
@example(([((3, 2), (1, 0)), ((2, 2), (1, 0))], [(0, 0)], [(2, 2)]))
def test_disconnected_skew_shape_is_the_product_of_its_components(case):
    # The skew Schur function of a disconnected shape is the product of its
    # components' (Macdonald I.5), wherever they sit.  The components are
    # placed twice, in the drawn order and in the reverse order with other
    # gaps, and the engine's expansion of each placement is checked against
    # the oracle's product of the components' expansions.
    components, gaps, other_gaps = case
    expected = {(): 1}
    for o, n in components:
        expected = _oracle_product(expected, _oracle_skew_expansion(partition(o), partition(n)))
    first = _nested_skew(*_place(components, gaps))
    second = _nested_skew(*_place(components[::-1], other_gaps))
    assert first == expected
    assert second == first


@given(small_partitions, small_partitions)
def test_lr_symmetry(la, mu):
    w = weight(la) + weight(mu)
    for nu in partitions_of(w, 16, 16):
        assert lr_coefficient(la, mu, nu) == lr_coefficient(mu, la, nu)


@given(small_partitions, small_partitions)
def test_lr_conjugation_covariance(la, mu):
    w = weight(la) + weight(mu)
    for nu in partitions_of(w, 16, 16):
        assert lr_coefficient(la, mu, nu) == lr_coefficient(
            conjugate(la), conjugate(mu), conjugate(nu)
        )


def test_lr_pieri_rows():
    shapes = [tuple(p) for w in range(6) for p in brute_force_box_partitions(3, 3, w)]
    for la in shapes:
        for r in range(1, 4):
            for nu in partitions_of(weight(la) + r, 4, 6):
                expected = 1 if is_horizontal_strip_cells(nu, la) else 0
                assert lr_coefficient(la, (r,), nu) == expected


def test_lr_pieri_columns():
    shapes = [tuple(p) for w in range(6) for p in brute_force_box_partitions(3, 3, w)]
    for la in shapes:
        for c in range(1, 4):
            for nu in partitions_of(weight(la) + c, 6, 4):
                expected = 1 if is_vertical_strip_cells(nu, la) else 0
                assert lr_coefficient(la, (1,) * c, nu) == expected


@given(small_partitions, small_partitions)
def test_containment_is_cellwise(la, mu):
    from oracles import cells

    assert contains(mu, la) == (cells(la) <= cells(mu))

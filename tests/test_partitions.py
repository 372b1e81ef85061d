import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schubert.partitions import (
    Box,
    complement,
    conjugate,
    contains,
    enumerate_partitions,
    is_horizontal_strip,
    is_vertical_strip,
    lr_coefficient,
    partition,
    skew_lr_expansion,
    weight,
)

from oracles import (
    brute_force_box_partitions,
    is_horizontal_strip_cells,
    is_vertical_strip_cells,
    partitions_of,
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
    assert is_horizontal_strip((3, 1), (2,))
    assert not is_horizontal_strip((2, 2), (1, 1))
    assert is_vertical_strip((2, 2), (1, 1))


def test_strips_match_cell_oracle():
    shapes = [tuple(p) for w in range(7) for p in brute_force_box_partitions(3, 4, w)]
    for mu in shapes:
        for la in shapes:
            assert is_horizontal_strip(mu, la) == is_horizontal_strip_cells(mu, la)
            assert is_vertical_strip(mu, la) == is_vertical_strip_cells(mu, la)


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


def test_skew_lr_expansion_examples():
    assert skew_lr_expansion((2, 1), (1,)) == {(2,): 1, (1, 1): 1}
    assert skew_lr_expansion((3, 2, 1), (2, 1)) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    assert skew_lr_expansion((2, 1), (2, 1)) == {(): 1}
    assert skew_lr_expansion((2,), (1, 1)) == {}
    # one row of 2399 cells, far beyond the recursion limit
    assert skew_lr_expansion((2400,), (1,)) == {(2399,): 1}


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
                expected = 1 if is_horizontal_strip(nu, la) else 0
                assert lr_coefficient(la, (r,), nu) == expected


def test_lr_pieri_columns():
    shapes = [tuple(p) for w in range(6) for p in brute_force_box_partitions(3, 3, w)]
    for la in shapes:
        for c in range(1, 4):
            for nu in partitions_of(weight(la) + c, 6, 4):
                expected = 1 if is_vertical_strip(nu, la) else 0
                assert lr_coefficient(la, (1,) * c, nu) == expected


@given(small_partitions, small_partitions)
def test_containment_is_cellwise(la, mu):
    from oracles import cells

    assert contains(mu, la) == (cells(la) <= cells(mu))

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfstabu.neighborhood import (
    Move,
    NeighborhoodSlice,
    apply_move,
    decode_move,
    neighborhood_size,
)

from oracles import encode_move


@pytest.mark.parametrize("n,expected", [(2, 2), (4, 12), (50, 2450)])
def test_neighborhood_size(n, expected):
    assert neighborhood_size(n) == expected


def test_neighborhood_empty_below_two_jobs():
    assert neighborhood_size(0) == 0
    assert neighborhood_size(1) == 0
    with pytest.raises(ValueError):
        neighborhood_size(-1)


def test_decode_examples():
    assert decode_move(0, 4) == Move(0, 1)
    assert decode_move(11, 4) == Move(3, 2)


def test_decode_bijection_exhaustive():
    for n in range(2, 11):
        moves = [decode_move(k, n) for k in range(neighborhood_size(n))]
        assert len(set(moves)) == neighborhood_size(n)
        for mv in moves:
            assert 0 <= mv.from_pos < n and 0 <= mv.to_pos < n and mv.from_pos != mv.to_pos
        # every insertion move appears
        assert set(moves) == {Move(f, t) for f in range(n) for t in range(n) if f != t}


def test_decode_encode_inverse():
    for n in (2, 3, 5, 9):
        for k in range(neighborhood_size(n)):
            assert encode_move(decode_move(k, n), n) == k


def test_decode_rejects_out_of_range():
    with pytest.raises(ValueError):
        decode_move(-1, 4)
    with pytest.raises(ValueError):
        decode_move(12, 4)
    with pytest.raises(ValueError):
        decode_move(0, 1)


def test_apply_move_examples():
    assert apply_move((0, 1, 2, 3), Move(0, 2)) == (1, 2, 0, 3)
    assert apply_move((0, 1), Move(0, 1)) == (1, 0)


def test_apply_move_roundtrip():
    order = (3, 1, 4, 0, 2)
    moved = apply_move(order, Move(1, 3))
    assert moved.index(1) == 3
    back = apply_move(moved, Move(3, 1))
    assert back == order


def test_apply_move_rejects_bad_positions():
    with pytest.raises(ValueError):
        apply_move((0, 1, 2), Move(0, 3))
    with pytest.raises(ValueError):
        apply_move((0, 1, 2), Move(1, 1))


@given(st.integers(2, 12), st.data())
@settings(max_examples=80, deadline=None)
def test_apply_move_preserves_permutation(n, data):
    k = data.draw(st.integers(0, neighborhood_size(n) - 1))
    order = tuple(range(n))
    result = apply_move(order, decode_move(k, n))
    assert sorted(result) == list(range(n))


def test_slice_validation():
    s = NeighborhoodSlice(2, 5)
    assert len(s) == 3 and bool(s)
    assert not NeighborhoodSlice(4, 4)
    with pytest.raises(ValueError):
        NeighborhoodSlice(3, 2)
    with pytest.raises(ValueError):
        NeighborhoodSlice(-1, 2)

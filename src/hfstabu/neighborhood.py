"""Insertion-move neighborhood with constant-time index decoding.

A move removes the job at ``from_pos`` and reinserts it so that it ends
up at ``to_pos``. For n jobs there are exactly n*(n-1) distinct moves,
indexed 0 .. n*(n-1)-1. The index space makes splitting a neighborhood
into slices an O(1) operation: a slice is just a half-open index range.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Move:
    from_pos: int
    to_pos: int


@dataclass(frozen=True)
class NeighborhoodSlice:
    """Half-open range [begin, end) of move indices."""

    begin: int
    end: int

    def __post_init__(self):
        if self.begin < 0 or self.end < self.begin:
            raise ValueError(f"invalid slice [{self.begin}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.begin

    def __bool__(self) -> bool:
        return self.end > self.begin


def neighborhood_size(n: int) -> int:
    """Number of insertion moves for n jobs; 0 when no move exists."""
    if n < 0:
        raise ValueError(f"negative job count: {n}")
    if n < 2:
        return 0
    return n * (n - 1)


def decode_move(k: int, n: int) -> Move:
    """Map a move index to its Move; a bijection over [0, n*(n-1))."""
    if n < 2:
        raise ValueError(f"no moves exist for n={n}")
    if not 0 <= k < n * (n - 1):
        raise ValueError(f"move index {k} outside [0, {n * (n - 1)})")
    from_pos, r = divmod(k, n - 1)
    to_pos = r if r < from_pos else r + 1
    return Move(from_pos, to_pos)


def apply_move(order, mv: Move) -> tuple[int, ...]:
    """Remove the job at from_pos and reinsert it at to_pos."""
    n = len(order)
    if not (0 <= mv.from_pos < n and 0 <= mv.to_pos < n) or mv.from_pos == mv.to_pos:
        raise ValueError(f"invalid move {mv!r} for a permutation of length {n}")
    out = list(order)
    job = out.pop(mv.from_pos)
    out.insert(mv.to_pos, job)
    return tuple(out)

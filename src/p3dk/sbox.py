"""Rotation-parameterized S-box on 12-bit nibble triples.

forward(a, b, c) = (b, c, (a + c + 8 + R) mod 16) for rotation R in [0, 15].
The +8 offset starts the output sequence at the ninth hexadecimal value.
Inputs and outputs are packed as 12-bit integers (a << 8 | b << 4 | c) and
the full 4096-entry forward/inverse tables are materialized; a triple is
looked up as box.forward[a << 8 | b << 4 | c].

An SBox3D is a collections.namedtuple (rotation, forward, inverse): an
immutable tuple that compares by value.  build_sbox is memoised by
functools.cache, so it builds each rotation's record on its first call and
returns that same record after; a box cannot change, so sharing is safe.
Every table entry is taken from one tuple of the 4096 possible values, so
all 32 tables share the same 4096 int objects instead of each holding its
own copies.  R is an additive key on the first nibble,
forward_R(a, b, c) = forward_0((a + R) mod 16, b, c), so every rotation is
one table read at a keyed offset:
forward_R[i] = forward_0[(i + 256R) mod 4096], inverse_R[y] = (inverse_0[y] - 256R) mod 4096.

sub_state and inv_sub_state take the cipher state as one 744-bit int and
look up its 62 triples, the top 12 bits first, in the forward or the inverse
table; they share one loop and differ only in the table they pass it.  The
loop shifts the state once per four triples: 15 windows of 48 bits, then a
24-bit tail of two triples.
"""

import functools
from collections import namedtuple

from .cube import ENCODED_BYTES
from .errors import LengthError, RangeError

TRIPLE_COUNT = 4096
ROTATIONS = 16  # rotation counts 0..15; rotate() wraps modulo this
OFFSET = 8  # output sequence starts at the (16/2+1)th hexadecimal value

_STATE_BITS = 8 * ENCODED_BYTES
_STATE_LIMIT = 1 << _STATE_BITS
_WINDOW_SHIFTS = tuple(range(_STATE_BITS - 48, 23, -48))
_VALUES = tuple(range(TRIPLE_COUNT))
_DOWN = _VALUES[-256:] + _VALUES[:-256]  # v -> (v - 256) mod 4096

SBox3D = namedtuple("SBox3D", "rotation forward inverse")


@functools.cache
def build_sbox(rotation: int) -> SBox3D:
    """The S-box of a rotation in [0, ROTATIONS): built on its first call, the same record after."""
    if not 0 <= rotation < ROTATIONS:
        raise RangeError(f"rotation must be in [0, {ROTATIONS - 1}], got {rotation}")
    forward = [0] * TRIPLE_COUNT
    inverse = [0] * TRIPLE_COUNT
    # For fixed (b, c) the inputs (a, b, c), a = 0..15, sit 256 apart and map
    # in order onto the 16 consecutive outputs (b, c, d) rotated left by
    # c + 8 + R, so each (b, c) costs one slice assignment per table.
    for bc in range(256):
        turn = (bc + OFFSET + rotation) & 0xF
        outs = _VALUES[bc << 4 : (bc + 1) << 4]
        srcs = _VALUES[bc::256]
        forward[bc::256] = outs[turn:] + outs[:turn]
        inverse[bc << 4 : (bc + 1) << 4] = srcs[16 - turn :] + srcs[: 16 - turn]
    return SBox3D(rotation, tuple(forward), tuple(inverse))


def rotate(box: SBox3D, count: int) -> SBox3D:
    """Apply `count` >= 0 unit rotations of the output depth layer.

    Each unit is one full pass over both tables (forward read 256 entries
    further on, inverse mapped through _DOWN), so cost is linear in count.
    """
    if count < 0:
        raise RangeError(f"rotation count must be >= 0, got {count}")
    forward = box.forward
    inverse = box.inverse
    for _ in range(count):
        forward = forward[256:] + forward[:256]
        inverse = tuple(map(_DOWN.__getitem__, inverse))
    return SBox3D((box.rotation + count) % ROTATIONS, forward, inverse)


def _substitute(table: tuple[int, ...], state: int) -> int:
    if not 0 <= state < _STATE_LIMIT:
        got = "a negative int" if state < 0 else f"{state.bit_length()} bits"
        raise LengthError(f"state must be an int in [0, 2**{_STATE_BITS}), got {got}")
    out = 0
    for shift in _WINDOW_SHIFTS:
        w = (state >> shift) & 0xFFFFFFFFFFFF
        out = (out << 48 | table[w >> 36] << 36 | table[w >> 24 & 0xFFF] << 24
               | table[w >> 12 & 0xFFF] << 12 | table[w & 0xFFF])
    return (out << 24) | table[(state >> 12) & 0xFFF] << 12 | table[state & 0xFFF]


def sub_state(box: SBox3D, state: int) -> int:
    """Substitute all 62 nibble triples of a 744-bit state; an int outside [0, 2**744) raises."""
    return _substitute(box.forward, state)


def inv_sub_state(box: SBox3D, state: int) -> int:
    """Inverse of sub_state."""
    return _substitute(box.inverse, state)


def dump_sbox(box: SBox3D) -> str:
    """Render the forward table as 4096 `S[a][b][c] = Y1Y2Y3` hex lines."""
    lines = []
    for idx in range(TRIPLE_COUNT):
        out = box.forward[idx]
        lines.append(
            f"S[{idx >> 8:x}][{(idx >> 4) & 0xF:x}][{idx & 0xF:x}] = {out:03x}"
        )
    return "\n".join(lines) + "\n"

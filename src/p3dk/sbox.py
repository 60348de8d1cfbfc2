"""Rotation-parameterized S-box on 12-bit nibble triples.

forward(a, b, c) = (b, c, (a + c + 8 + R) mod 16) for rotation R in [0, 15].
The +8 offset starts the output sequence at the ninth hexadecimal value.
Inputs and outputs are packed as 12-bit integers (a << 8 | b << 4 | c) and
the full 4096-entry forward/inverse tables are materialized; a triple is
looked up as box.forward[a << 8 | b << 4 | c].

Tables for the ROTATIONS = 16 rotations are built once and shared; SBox3D is
immutable, so sharing is safe.  Every table entry is taken from one tuple of the 4096
possible values, so all 32 tables share the same 4096 int objects instead
of each holding its own copies.  rotate() deliberately performs one full
table pass per unit so its cost grows linearly with the rotation count.
"""

from typing import NamedTuple

from .cube import ENCODED_BYTES
from .errors import LengthError, RangeError

TRIPLE_COUNT = 4096
ROTATIONS = 16  # rotation counts 0..15; rotate() wraps modulo this
OFFSET = 8  # output sequence starts at the (16/2+1)th hexadecimal value

_VALUES = tuple(range(TRIPLE_COUNT))
_TABLE_CACHE: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}


class SBox3D(NamedTuple):
    """Bijection on nibble triples; forward/inverse are 4096-entry tables."""

    rotation: int
    forward: tuple[int, ...]
    inverse: tuple[int, ...]


def _tables(rotation: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    cached = _TABLE_CACHE.get(rotation)
    if cached is not None:
        return cached
    k = OFFSET + rotation
    forward = [0] * TRIPLE_COUNT
    inverse = [0] * TRIPLE_COUNT
    for a in range(16):
        for b in range(16):
            for c in range(16):
                src = (a << 8) | (b << 4) | c
                out = (b << 8) | (c << 4) | ((a + c + k) & 0xF)
                forward[src] = _VALUES[out]
                inverse[out] = _VALUES[src]
    entry = (tuple(forward), tuple(inverse))
    _TABLE_CACHE[rotation] = entry
    return entry


def build_sbox(rotation: int) -> SBox3D:
    if not 0 <= rotation < ROTATIONS:
        raise RangeError(f"rotation must be in [0, {ROTATIONS - 1}], got {rotation}")
    forward, inverse = _tables(rotation)
    return SBox3D(rotation, forward, inverse)


def rotate(box: SBox3D, count: int) -> SBox3D:
    """Apply `count` unit rotations of the output depth layer.

    Each unit physically relabels both tables, so cost is linear in count.
    """
    forward = box.forward
    inverse = box.inverse
    for _ in range(count):
        forward = tuple((e & 0xFF0) | ((e + 1) & 0xF) for e in forward)
        inverse = tuple(
            inverse[(i & 0xFF0) | ((i - 1) & 0xF)] for i in range(TRIPLE_COUNT)
        )
    return SBox3D((box.rotation + count) % ROTATIONS, forward, inverse)


def _map_state(table: tuple[int, ...], state: bytes) -> bytes:
    """Apply a triple table across a 93-byte state.

    Nibbles are taken high-first within each byte and grouped left to right
    into triples; every 3 bytes hold exactly 2 triples.
    """
    if len(state) != ENCODED_BYTES:
        raise LengthError(f"state must be {ENCODED_BYTES} bytes, got {len(state)}")
    out = bytearray(ENCODED_BYTES)
    for j in range(0, ENCODED_BYTES, 3):
        b0 = state[j]
        b1 = state[j + 1]
        b2 = state[j + 2]
        t1 = table[(b0 << 4) | (b1 >> 4)]
        t2 = table[((b1 & 0xF) << 8) | b2]
        out[j] = t1 >> 4
        out[j + 1] = ((t1 & 0xF) << 4) | (t2 >> 8)
        out[j + 2] = t2 & 0xFF
    return bytes(out)


def sub_state(box: SBox3D, state: bytes) -> bytes:
    """Substitute all 62 nibble triples of a 93-byte state."""
    return _map_state(box.forward, state)


def inv_sub_state(box: SBox3D, state: bytes) -> bytes:
    """Inverse of sub_state."""
    return _map_state(box.inverse, state)


def dump_sbox(box: SBox3D) -> str:
    """Render the forward table as 4096 `S[a][b][c] = Y1Y2Y3` hex lines."""
    lines = []
    for idx in range(TRIPLE_COUNT):
        out = box.forward[idx]
        lines.append(
            f"S[{idx >> 8:x}][{(idx >> 4) & 0xF:x}][{idx & 0xF:x}] = {out:03x}"
        )
    return "\n".join(lines) + "\n"

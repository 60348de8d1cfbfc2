"""Keyed deterministic random source (FNV-1a seeding + xorshift64).

All "random" quantities the cipher consumes (key rotation, S-box rotation)
are drawn from this generator, seeded from the key bytes, so the decryptor
can re-derive them.  Draw order is part of the cipher contract:

    draw 1: key rotation amount, next_below(state, 744)
    draw 2: S-box rotation, next_below(state, 16)

Not a CSPRNG; it is a deterministic schedule generator.
"""

from .errors import RangeError, SeedError

_MASK64 = (1 << 64) - 1
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x00000100000001B3


class RngState:
    """64-bit xorshift state; never zero once seeded."""

    __slots__ = ("s",)

    def __init__(self, s: int):
        self.s = s


def seed_from_bytes(key_bytes: bytes) -> RngState:
    """Fold key bytes with FNV-1a into a nonzero 64-bit state."""
    if len(key_bytes) == 0:
        raise SeedError("cannot seed from empty input")
    s = FNV_OFFSET
    for b in key_bytes:
        s = ((s ^ b) * FNV_PRIME) & _MASK64
    if s == 0:
        s = FNV_OFFSET
    return RngState(s)


def next_u64(state: RngState) -> int:
    """Advance the xorshift64 state in place and return the new value."""
    s = state.s
    s ^= (s << 13) & _MASK64
    s ^= s >> 7
    s ^= (s << 17) & _MASK64
    state.s = s
    return s


def next_below(state: RngState, n: int) -> int:
    """Draw a value in [0, n)."""
    if n < 1:
        raise RangeError(f"modulus must be >= 1, got {n}")
    return next_u64(state) % n

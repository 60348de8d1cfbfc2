"""243-bit block cipher pipeline and the on-disk ciphertext container.

Per block: 243 plaintext bits + 5 zero pad bits pack MSB-first into 31
bytes, the cube codec expands them to a 93-byte state (3 rows x 31 columns,
byte index 31r + j), and the state is whitened with round key 0.  Rounds
1..16 then apply the triple substitution, a row shift, a column mix on even
rounds only, and a round-key XOR.

Key schedule: the 31 master key bytes are cube-expanded to 93 bytes and
bit-rotated left by rho; round key r is that value bit-rotated left by
47*r mod 744 (47 is coprime to 744, so all 17 round keys differ).  rho and
the S-box rotation are draws 1 and 2 from the keyed generator seeded with
the master key bytes.

Blocks are independent (codebook mode) and the container records the true
plaintext bit length:

    magic "P3DK" | version 0x01 | flags 0x00 | bit length (8B LE) | blocks

The stream functions read and write CHUNK_BYTES of plaintext (CHUNK_BLOCKS
blocks) at a time, so their memory does not grow with the input when they
are given files.

Codebook mode leaks equal-block structure; this artifact makes no security
claims (see README).
"""

import io
import os
import secrets
from dataclasses import dataclass, field
from typing import BinaryIO

from . import cube
from .errors import FormatError, KeyFormatError, LengthError
from .rng import RngState, next_below, seed_from_bytes
from .sbox import SBox3D, build_sbox, inv_sub_state, sub_state

BLOCK_BITS = 243
PAD_BITS = 5
KEY_BYTES = 31
STATE_BYTES = 93
STATE_BITS = 744
ROUNDS = 16
ROUND_KEY_STRIDE = 47

MAGIC = b"P3DK"
VERSION = 1
HEADER_BYTES = 14
# 7776 bytes = 256 blocks of 243 bits exactly, so every chunk starts on both
# a block and a byte boundary.
CHUNK_BYTES = 7776
CHUNK_BLOCKS = 8 * CHUNK_BYTES // BLOCK_BITS

_STATE_MASK = (1 << STATE_BITS) - 1


def pad_block(bits: int, nbits: int) -> bytes:
    """Pack up to 243 data bits plus 5 zero pad bits into 31 bytes, MSB first."""
    if nbits > BLOCK_BITS:
        raise LengthError(f"at most {BLOCK_BITS} bits per block, got {nbits}")
    if nbits < 0 or bits < 0 or bits >> nbits:
        raise LengthError(f"bits value does not fit in {nbits} bits")
    return (bits << (BLOCK_BITS + PAD_BITS - nbits)).to_bytes(KEY_BYTES, "big")


def unpad_block(block: bytes) -> int:
    """Drop the 5 pad bits and return the 243 data bits as an integer."""
    if len(block) != KEY_BYTES:
        raise LengthError(f"expected {KEY_BYTES} bytes, got {len(block)}")
    return int.from_bytes(block, "big") >> PAD_BITS


def rotl_bits(state: bytes, count: int) -> bytes:
    """Rotate a 93-byte value left by count bits."""
    if len(state) != STATE_BYTES:
        raise LengthError(f"expected {STATE_BYTES} bytes, got {len(state)}")
    count %= STATE_BITS
    x = int.from_bytes(state, "big")
    x = ((x << count) | (x >> (STATE_BITS - count))) & _STATE_MASK
    return x.to_bytes(STATE_BYTES, "big")


@dataclass
class ExpandedKey:
    """Expanded key material plus the keyed rotation draws."""

    k93: bytes
    rho: int
    sbox_rotation: int
    round_keys: tuple[bytes, ...]
    _rk_ints: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _sbox: SBox3D = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._rk_ints = tuple(int.from_bytes(k, "big") for k in self.round_keys)
        self._sbox = build_sbox(self.sbox_rotation)


def expand_key_with(master: bytes, rho: int, sbox_rotation: int) -> ExpandedKey:
    """Deterministic key expansion for explicit rotation values."""
    if len(master) != KEY_BYTES:
        raise KeyFormatError(f"master key must be {KEY_BYTES} bytes, got {len(master)}")
    k93 = rotl_bits(cube.encode_block(master), rho)
    round_keys = tuple(
        rotl_bits(k93, (ROUND_KEY_STRIDE * r) % STATE_BITS)
        for r in range(ROUNDS + 1)
    )
    return ExpandedKey(k93, rho, sbox_rotation, round_keys)


def expand_key(master: bytes, rng: RngState) -> ExpandedKey:
    """Expand a 31-byte master key; rng must be freshly seeded from it."""
    rho = next_below(rng, STATE_BITS)
    sbox_rotation = next_below(rng, 16)
    return expand_key_with(master, rho, sbox_rotation)


def shift_rows(state: bytes) -> bytes:
    """Rotate grid row r left by r columns (row 0 unchanged)."""
    return (
        state[:31]
        + state[32:62] + state[31:32]
        + state[64:93] + state[62:64]
    )


def inv_shift_rows(state: bytes) -> bytes:
    return (
        state[:31]
        + state[61:62] + state[31:61]
        + state[91:93] + state[62:91]
    )


def mix_columns(state: bytes) -> bytes:
    """Per column (u, v, w) -> (u^v, v^w, u^v^w); XOR-linear and invertible."""
    r0 = int.from_bytes(state[:31], "big")
    r1 = int.from_bytes(state[31:62], "big")
    r2 = int.from_bytes(state[62:], "big")
    return (
        (r0 ^ r1).to_bytes(31, "big")
        + (r1 ^ r2).to_bytes(31, "big")
        + (r0 ^ r1 ^ r2).to_bytes(31, "big")
    )


def inv_mix_columns(state: bytes) -> bytes:
    """Per column (o1, o2, o3) -> (o2^o3, o1^o2^o3, o1^o3)."""
    o1 = int.from_bytes(state[:31], "big")
    o2 = int.from_bytes(state[31:62], "big")
    o3 = int.from_bytes(state[62:], "big")
    return (
        (o2 ^ o3).to_bytes(31, "big")
        + (o1 ^ o2 ^ o3).to_bytes(31, "big")
        + (o1 ^ o3).to_bytes(31, "big")
    )


def encrypt_block(p31: bytes, ek: ExpandedKey) -> bytes:
    """Encrypt one padded 31-byte block to a 93-byte ciphertext block."""
    rk = ek._rk_ints
    box = ek._sbox
    state = (int.from_bytes(cube.encode_block(p31), "big") ^ rk[0]).to_bytes(
        STATE_BYTES, "big"
    )
    for r in range(1, ROUNDS + 1):
        state = sub_state(box, state)
        state = shift_rows(state)
        if r % 2 == 0:
            state = mix_columns(state)
        state = (int.from_bytes(state, "big") ^ rk[r]).to_bytes(STATE_BYTES, "big")
    return state


def decrypt_block(c93: bytes, ek: ExpandedKey) -> bytes:
    """Invert encrypt_block; decode errors signal a wrong key or corruption."""
    if len(c93) != STATE_BYTES:
        raise LengthError(f"ciphertext block must be {STATE_BYTES} bytes, got {len(c93)}")
    rk = ek._rk_ints
    box = ek._sbox
    state = c93
    for r in range(ROUNDS, 0, -1):
        state = (int.from_bytes(state, "big") ^ rk[r]).to_bytes(STATE_BYTES, "big")
        if r % 2 == 0:
            state = inv_mix_columns(state)
        state = inv_shift_rows(state)
        state = inv_sub_state(box, state)
    state = (int.from_bytes(state, "big") ^ rk[0]).to_bytes(STATE_BYTES, "big")
    return cube.decode_block(state)


def _read_bits(data: bytes, offset: int, count: int) -> int:
    """Read `count` bits MSB-first starting at bit `offset`."""
    first = offset >> 3
    last = (offset + count + 7) >> 3
    window = int.from_bytes(data[first:last], "big")
    excess = (last - first) * 8 - (offset - first * 8) - count
    return (window >> excess) & ((1 << count) - 1)


class _BitWriter:
    """Accumulates MSB-first bit runs and flushes whole bytes."""

    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, bits: int, count: int):
        self.acc = (self.acc << count) | bits
        self.nbits += count
        whole = self.nbits & ~7
        if whole:
            rem = self.nbits - whole
            self.out += (self.acc >> rem).to_bytes(whole >> 3, "big")
            self.acc &= (1 << rem) - 1
            self.nbits = rem


def expand_key_for(master: bytes) -> ExpandedKey:
    """Seed the keyed generator from the master key and expand it."""
    return expand_key(master, seed_from_bytes(master))


def _open_source(source: bytes | BinaryIO) -> tuple[BinaryIO, int]:
    """A binary reader over bytes or a readable binary file, and the byte count left in it.

    A bytes object is wrapped without a copy.  A file that cannot seek (a
    pipe) is read whole, because the header needs the length before anything
    else.
    """
    if not hasattr(source, "read"):
        source = io.BytesIO(source)
    elif not source.seekable():
        source = io.BytesIO(source.read())
    start = source.tell()
    size = source.seek(0, os.SEEK_END) - start
    source.seek(start)
    return source, size


def _read_exact(src: BinaryIO, count: int, what: str) -> bytes:
    data = src.read(count)
    if len(data) != count:
        raise LengthError(f"{what} ended {count - len(data)} bytes early")
    return data


def _encrypt_chunk(data: bytes, ek: ExpandedKey) -> bytes:
    nbits = 8 * len(data)
    parts = []
    for off in range(0, nbits, BLOCK_BITS):
        count = min(BLOCK_BITS, nbits - off)
        parts.append(encrypt_block(pad_block(_read_bits(data, off, count), count), ek))
    return b"".join(parts)


def encrypt_stream(
    plaintext: bytes | BinaryIO, master: bytes, out: BinaryIO | None = None
) -> bytes | int:
    """Encrypt bytes or a readable binary file into a ciphertext container (codebook mode).

    Without `out`, return the container as bytes.  With a binary writer
    `out`, write each chunk as soon as it is encrypted and return the number
    of bytes written.
    """
    src, size = _open_source(plaintext)
    ek = expand_key_for(master)
    parts = []
    write = parts.append if out is None else out.write
    write(MAGIC + bytes([VERSION, 0]) + (8 * size).to_bytes(8, "little"))
    for start in range(0, size, CHUNK_BYTES):
        write(_encrypt_chunk(_read_exact(src, min(CHUNK_BYTES, size - start), "input"), ek))
    if out is None:
        return b"".join(parts)
    nblocks = (8 * size + BLOCK_BITS - 1) // BLOCK_BITS
    return HEADER_BYTES + nblocks * STATE_BYTES


def decrypt_stream(
    container: bytes | BinaryIO, master: bytes, out: BinaryIO | None = None
) -> bytes | int:
    """Invert encrypt_stream, truncating to the recorded bit length.

    Takes bytes or a readable binary file.  The header and the payload length
    are checked before the key is expanded; a corrupted block raises at that
    block.  Without `out`, return the plaintext as bytes.  With a binary
    writer `out`, write each chunk as soon as it is decrypted (chunks before
    a failing block have been written when it raises) and return the number
    of bytes written.
    """
    src, size = _open_source(container)
    header = src.read(HEADER_BYTES)
    if len(header) < HEADER_BYTES:
        raise FormatError("container shorter than its header")
    if header[:4] != MAGIC:
        raise FormatError(f"bad magic {header[:4]!r}")
    if header[4] != VERSION:
        raise FormatError(f"unsupported version {header[4]}")
    if header[5] != 0:
        raise FormatError(f"unsupported flags 0x{header[5]:02x}")
    bit_len = int.from_bytes(header[6:14], "little")
    if bit_len % 8:
        raise FormatError(f"bit length {bit_len} is not a whole number of bytes")
    nblocks = (bit_len + BLOCK_BITS - 1) // BLOCK_BITS
    if size - HEADER_BYTES != nblocks * STATE_BYTES:
        raise LengthError(
            f"payload is {size - HEADER_BYTES} bytes, header implies {nblocks * STATE_BYTES}"
        )
    ek = expand_key_for(master)
    parts = []
    write = parts.append if out is None else out.write
    remaining = bit_len
    for first in range(0, nblocks, CHUNK_BLOCKS):
        count = min(CHUNK_BLOCKS, nblocks - first)
        payload = _read_exact(src, count * STATE_BYTES, "container")
        writer = _BitWriter()
        for i in range(count):
            block = decrypt_block(payload[i * STATE_BYTES : (i + 1) * STATE_BYTES], ek)
            bits = unpad_block(block)
            nbits = min(BLOCK_BITS, remaining)
            writer.write(bits >> (BLOCK_BITS - nbits), nbits)
            remaining -= nbits
        write(writer.out)
    return b"".join(parts) if out is None else bit_len // 8


def generate_master_key() -> bytes:
    """Fresh 31-byte key from system entropy, tail bits zeroed."""
    kb = bytearray(secrets.token_bytes(KEY_BYTES))
    kb[-1] &= 0xE0
    return bytes(kb)


def validate_master_key(kb: bytes) -> bytes:
    """Check the key file rules: exactly 31 bytes, last 5 bits zero."""
    if len(kb) != KEY_BYTES:
        raise KeyFormatError(f"key must be {KEY_BYTES} bytes, got {len(kb)}")
    if kb[-1] & 0x1F:
        raise KeyFormatError("key tail bits 243..247 must be zero")
    return kb

"""243-bit block cipher pipeline and the on-disk ciphertext container.

Per block: 243 plaintext bits + 5 zero pad bits pack MSB-first into 31
bytes, the cube codec expands them to a 93-byte state (3 rows x 31 columns,
byte index 31r + j), and the state is whitened with round key 0.  Rounds
1..16 then apply the triple substitution, a row shift, a column mix on even
rounds only, and a round-key XOR.  From the whitening to the last key XOR
the state is one 744-bit int, read big-endian, so row r is a 248-bit field
and every layer takes and returns such an int.  The row shift and the column
mix are masked operations on the whole state: a few ANDs with row and column
masks, shifts and XORs, with no split into rows.

Key schedule: the 31 master key bytes are cube-expanded to 93 bytes, read
as one 744-bit integer and bit-rotated left by rho; round key r is that
integer bit-rotated left by 47*r mod 744 (47 is coprime to 744, so all 17
round keys differ), taken as a 744-bit window of the integer doubled (written
twice, end to end).  rho and the S-box rotation come from a keyed generator,
FNV-1a seeding plus xorshift64 (a deterministic schedule, not a CSPRNG),
seeded with the master key bytes so the decryptor re-derives them.  The
state is a nonzero 64-bit int; next_below(state, n) returns a draw and the
advanced state, which the next draw takes.  The draw order is part of the
cipher contract:

    draw 1: rho, next_below(state, 744)
    draw 2: S-box rotation, next_below(state, 16)

An ExpandedKey is the 17 round keys and the S-box record; rho is kept only
as the rotation of round key 0, and the S-box rotation as sbox.rotation.

Blocks are independent (codebook mode) and the container records the true
plaintext bit length:

    magic "P3DK" | version 0x01 | flags 0x00 | bit length (8B LE) | blocks

The stream functions read and write CHUNK_BYTES of plaintext (CHUNK_BLOCKS
blocks) at a time, so their memory does not grow with the input; a stream of
two chunks or more may share them with one forked child (`p3dk._twoproc`).

Codebook mode leaks equal-block structure; this artifact makes no security
claims (see README).
"""

import contextlib
import errno
import io
import os
from collections import namedtuple

from . import cube
from .errors import FormatError, IntegrityError, KeyFormatError, LengthError, RangeError
from .sbox import ROTATIONS, build_sbox, inv_sub_state, sub_state

BLOCK_BITS = 243
KEY_BYTES = cube.BLOCK_BYTES
PAD_BITS = 8 * KEY_BYTES - BLOCK_BITS
STATE_BYTES = cube.ENCODED_BYTES
STATE_BITS = 8 * STATE_BYTES
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
_PAD_MASK = (1 << PAD_BITS) - 1
_MASK64 = (1 << 64) - 1
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x00000100000001B3

# The state is a grid of 3 rows of KEY_BYTES columns held as one int, row 0 in
# the top _ROW_BITS bits; a column is one byte wide.  The layers shift the whole
# state by literal bit counts: 248 and 496 are one and two rows, 8 and 16 one
# and two columns.  _HI1 and _HI2 are the columns a row shift carries round.
_ROW_BITS = 8 * KEY_BYTES
_ROW2 = (1 << _ROW_BITS) - 1
_ROW1 = _ROW2 << _ROW_BITS
_ROW0 = _ROW1 << _ROW_BITS
_ROWS01 = _ROW0 | _ROW1
_HI1 = 0xFF << (2 * _ROW_BITS - 8)
_LO1 = _ROW1 ^ _HI1
_HI2 = 0xFFFF << (_ROW_BITS - 16)
_LO2 = _ROW2 ^ _HI2


def pad_block(bits: int, nbits: int) -> bytes:
    """Pack up to 243 data bits plus 5 zero pad bits into 31 bytes, MSB first."""
    if nbits > BLOCK_BITS:
        raise LengthError(f"at most {BLOCK_BITS} bits per block, got {nbits}")
    if nbits < 0 or bits < 0 or bits >> nbits:
        raise LengthError(f"bits value does not fit in {nbits} bits")
    return (bits << (BLOCK_BITS + PAD_BITS - nbits)).to_bytes(KEY_BYTES, "big")


def unpad_block(block: bytes) -> int:
    """Return the 243 data bits as an integer; the 5 pad bits must be zero."""
    if len(block) != KEY_BYTES:
        raise LengthError(f"expected {KEY_BYTES} bytes, got {len(block)}")
    value = int.from_bytes(block, "big")
    if value & _PAD_MASK:
        raise IntegrityError(f"pad bits are 0b{value & _PAD_MASK:0{PAD_BITS}b}, not zero")
    return value >> PAD_BITS


def _check_key_length(master: bytes) -> None:
    if len(master) != KEY_BYTES:
        raise KeyFormatError(f"master key must be {KEY_BYTES} bytes, got {len(master)}")


def rotl_bits(x: int, count: int) -> int:
    """Rotate a 744-bit value left by count bits."""
    count %= STATE_BITS
    return ((x << count) | (x >> (STATE_BITS - count))) & _STATE_MASK


def seed_from_bytes(key_bytes: bytes) -> int:
    """Fold key bytes with FNV-1a into a nonzero 64-bit xorshift state."""
    if len(key_bytes) == 0:
        raise LengthError("cannot seed from empty input")
    s = FNV_OFFSET
    for b in key_bytes:
        s = ((s ^ b) * FNV_PRIME) & _MASK64
    return s or FNV_OFFSET


def next_below(state: int, n: int) -> tuple[int, int]:
    """One xorshift64 step from a nonzero state: the new state modulo n, and the new state."""
    if n < 1:
        raise RangeError(f"modulus must be >= 1, got {n}")
    state ^= (state << 13) & _MASK64
    state ^= state >> 7
    state ^= (state << 17) & _MASK64
    return state % n, state


ExpandedKey = namedtuple("ExpandedKey", "round_keys sbox")


def expand_key_with(master: bytes, rho: int, sbox_rotation: int) -> ExpandedKey:
    """Deterministic key expansion for explicit rotation values."""
    _check_key_length(master)
    k = rotl_bits(int.from_bytes(cube.encode_block(master), "big"), rho)
    # k rotated left by n is the 744-bit window of k twice over whose top is n bits below its top.
    kk = k << STATE_BITS | k
    round_keys = tuple(
        (kk >> (STATE_BITS - ROUND_KEY_STRIDE * r % STATE_BITS)) & _STATE_MASK
        for r in range(ROUNDS + 1)
    )
    return ExpandedKey(round_keys, build_sbox(sbox_rotation))


def expand_key_for(master: bytes) -> ExpandedKey:
    """Seed the keyed generator from a 31-byte master key, draw rho and the S-box rotation, expand.

    A key of any other length raises KeyFormatError before the generator is seeded.
    """
    _check_key_length(master)
    rho, state = next_below(seed_from_bytes(master), STATE_BITS)
    sbox_rotation, _ = next_below(state, ROTATIONS)
    return expand_key_with(master, rho, sbox_rotation)


def shift_rows(state: int) -> int:
    """Rotate grid row r left by r columns (row 0 unchanged)."""
    return (state & _ROW0 | (state & _LO1) << 8 | (state & _HI1) >> 240
            | (state & _LO2) << 16 | (state & _HI2) >> 232)


def inv_shift_rows(state: int) -> int:
    return (state & _ROW0 | state >> 8 & _LO1 | state << 240 & _HI1
            | state >> 16 & _LO2 | state << 232 & _HI2)


def mix_columns(state: int) -> int:
    """Per column (u, v, w) -> (u^v, v^w, u^v^w); XOR-linear and invertible."""
    t = state ^ ((state << 248) & _ROWS01)  # (u^v, v^w, w)
    return t ^ (t >> 496)


def inv_mix_columns(state: int) -> int:
    """Per column (o1, o2, o3) -> (o2^o3, o1^o2^o3, o1^o3)."""
    t = state ^ (state >> 496)  # (o1, o2, o1^o3)
    t ^= (t << 248) & _ROW1  # (o1, o1^o2^o3, o1^o3)
    return t ^ ((t << 248) & _ROW0)


def encrypt_block(p31: bytes, ek: ExpandedKey) -> bytes:
    """Encrypt one padded 31-byte block to a 93-byte ciphertext block."""
    rk = ek.round_keys
    box = ek.sbox
    state = int.from_bytes(cube.encode_block(p31), "big") ^ rk[0]
    for r in range(1, ROUNDS + 1):
        state = sub_state(box, state)
        state = shift_rows(state)
        if r % 2 == 0:
            state = mix_columns(state)
        state ^= rk[r]
    return state.to_bytes(STATE_BYTES, "big")


def decrypt_block(c93: bytes, ek: ExpandedKey) -> bytes:
    """Invert encrypt_block; decode errors signal a wrong key or corruption."""
    if len(c93) != STATE_BYTES:
        raise LengthError(f"ciphertext block must be {STATE_BYTES} bytes, got {len(c93)}")
    rk = ek.round_keys
    box = ek.sbox
    state = int.from_bytes(c93, "big")
    for r in range(ROUNDS, 0, -1):
        state ^= rk[r]
        if r % 2 == 0:
            state = inv_mix_columns(state)
        state = inv_shift_rows(state)
        state = inv_sub_state(box, state)
    return cube.decode_block((state ^ rk[0]).to_bytes(STATE_BYTES, "big"))


@contextlib.contextmanager
def _open_source(source: bytes | io.BufferedIOBase):
    """A binary reader over bytes or a readable binary file, and the int count of bytes left in it.

    A bytes object is wrapped without a copy.  A file whose tell() or seek to
    its end raises OSError (a pipe, /proc/version) is copied a chunk at a time
    into an anonymous temp file, read instead and closed with the block.
    """
    if not hasattr(source, "read"):
        source = io.BytesIO(source)
    try:
        start = source.tell()
        end = source.seek(0, os.SEEK_END)
    except OSError:  # io.UnsupportedOperation is one
        pass
    else:
        source.seek(start)
        yield source, max(0, end - start)  # a position past the end reads nothing
        return
    import tempfile

    with tempfile.TemporaryFile() as spool:
        while spool.write(_read_up_to(source, CHUNK_BYTES)):  # one chunk held at a time
            pass
        size = spool.tell()
        spool.seek(0)
        yield spool, size


def _read_up_to(src: io.RawIOBase | io.BufferedIOBase, count: int) -> bytearray:
    """`count` bytes in one buffer, fewer only where src ends: one read of a pipe may give fewer.

    A non-blocking raw source with no byte ready (its readinto gives None) raises BlockingIOError.
    """
    data = bytearray(count)
    got = part = 0
    while got < count and (part := src.readinto(memoryview(data)[got:] if got else data)):
        got += part
    if part is None:
        raise BlockingIOError(errno.EAGAIN, "the source is non-blocking and has no byte ready")
    return data if got == count else data[:got]


def _write_all(dst: io.RawIOBase, data: bytes) -> None:
    """Write all of `data` to a raw writer, one write of which may take only part of it.

    A write that would block (it gives None) raises BlockingIOError, which counts the bytes written.
    """
    view = memoryview(data)
    while view:
        part = dst.write(view)
        if part is None:
            raise BlockingIOError(
                errno.EAGAIN, "the writer is non-blocking and has no room", len(data) - len(view)
            )
        view = view[part:]


def _writer(out: io.RawIOBase | io.BufferedIOBase | None, parts: list):
    """parts.append without `out`; else out.write, through _write_all for a raw (io.RawIOBase) `out`.

    Any other writer (a buffered file, BytesIO) is taken to take each write whole.
    """
    if out is None:
        return parts.append
    if isinstance(out, io.RawIOBase):
        return lambda data: _write_all(out, data)
    return out.write


def _read_exact(src: io.RawIOBase | io.BufferedIOBase, count: int, what: str) -> bytearray:
    data = _read_up_to(src, count)
    if len(data) != count:
        raise LengthError(f"{what} ended {count - len(data)} bytes early")
    return data


def _encrypt_chunk(data: bytes, ek: ExpandedKey) -> bytearray:
    """Encrypt a chunk, taking its bits BLOCK_BITS at a time, MSB first, from one integer.

    The blocks go into one buffer of the final size, with no list of them beside it.
    """
    value = int.from_bytes(data, "big")
    rest = 8 * len(data)
    out = bytearray(STATE_BYTES * ((rest + BLOCK_BITS - 1) // BLOCK_BITS))
    for start in range(0, len(out), STATE_BYTES):
        count = min(BLOCK_BITS, rest)
        rest -= count
        bits = (value >> rest) & ((1 << count) - 1)
        out[start : start + STATE_BYTES] = encrypt_block(pad_block(bits, count), ek)
    return out


def _decrypt_chunk(payload: bytes, first: int, bit_len: int, ek: ExpandedKey) -> bytes:
    """Decrypt a chunk that starts at block `first`; a failing block is named in the error.

    A chunk is a whole number of bytes; a run of blocks that is not, such as
    block 0 alone, comes back right-aligned in whole bytes.
    """
    count = len(payload) // STATE_BYTES
    value = 0
    try:
        for i in range(count):
            c93 = payload[i * STATE_BYTES : (i + 1) * STATE_BYTES]
            value = (value << BLOCK_BITS) | unpad_block(decrypt_block(c93, ek))
        nbits = min(BLOCK_BITS * count, bit_len - BLOCK_BITS * first)
        excess = BLOCK_BITS * count - nbits
        if value & ((1 << excess) - 1):
            raise IntegrityError(f"non-zero bits past the recorded length of {bit_len} bits")
    except (IntegrityError, RangeError) as exc:
        start = HEADER_BYTES + (first + i) * STATE_BYTES
        raise type(exc)(
            f"block {first + i} (container bytes {start}-{start + STATE_BYTES - 1}): {exc}"
        ) from None
    return (value >> excess).to_bytes((nbits + 7) // 8, "big")


def _write_in_order(nchunks: int, read, work, write) -> None:
    """write(work(i, read(i))) for i in range(nchunks), in that order.

    A stream of two chunks or more goes to p3dk._twoproc, imported only then,
    which shares its chunks with one forked child when it can.
    """
    if nchunks >= 2:
        from . import _twoproc

        if _twoproc.run(nchunks, read, work, write):
            return
    for i in range(nchunks):
        write(work(i, read(i)))


def encrypt_stream(
    plaintext: bytes | io.BufferedIOBase, master: bytes, out: io.BufferedIOBase | None = None
) -> bytes | int:
    """Encrypt bytes or a readable binary file into a ciphertext container (codebook mode).

    Without `out`, return the container as bytes; with a binary writer `out`,
    write each chunk once encrypted and return the number of bytes written.
    The header records the length, so a pipe is first spooled to a temp file
    (see _open_source).  A file that ends before its reported size, or runs
    on past it (/dev/urandom reports 0 bytes), raises LengthError.  A raw
    source or writer that would block raises BlockingIOError (see
    _read_up_to and _writer).
    """
    with _open_source(plaintext) as (src, size):
        ek = expand_key_for(master)
        parts = []
        write = _writer(out, parts)
        write(MAGIC + bytes([VERSION, 0]) + (8 * size).to_bytes(8, "little"))
        _write_in_order(
            (size + CHUNK_BYTES - 1) // CHUNK_BYTES,
            lambda i: _read_exact(src, min(CHUNK_BYTES, size - i * CHUNK_BYTES), "input"),
            lambda i, data: _encrypt_chunk(data, ek),
            write,
        )
        if src.read(1):
            raise LengthError(f"input runs past the {size} bytes it reported")
    nblocks = (8 * size + BLOCK_BITS - 1) // BLOCK_BITS
    return b"".join(parts) if out is None else HEADER_BYTES + nblocks * STATE_BYTES


def decrypt_stream(
    container: bytes | io.BufferedIOBase, master: bytes, out: io.BufferedIOBase | None = None
) -> bytes | int:
    """Invert encrypt_stream on bytes or a binary file, truncating to the recorded bit length.

    A pipe is spooled as in encrypt_stream, so for every source the header and
    the payload length are checked before the key is expanded.  A container of
    two chunks or more has block 0 read, decrypted and rewound before any
    chunk is written, so a wrong key fails there, before p3dk._twoproc forks.
    A corrupted block raises at that block, naming its index and container
    byte range.  Only the one canonical container of each plaintext is
    accepted: non-zero pad bits, or non-zero bits past the recorded length in
    the last block, raise IntegrityError.  Without `out`, return the
    plaintext as bytes.  With a binary writer `out`, write each chunk as soon
    as it is decrypted (chunks before a failing block have been written when
    it raises) and return the number of bytes written.  Raw streams are
    read and written as in encrypt_stream.
    """
    with _open_source(container) as (src, size):
        header = _read_up_to(src, HEADER_BYTES)
        if len(header) < HEADER_BYTES:
            raise FormatError("container shorter than its header")
        if header[:4] != MAGIC:
            raise FormatError(f"bad magic {bytes(header[:4])!r}")
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
        nchunks = (nblocks + CHUNK_BLOCKS - 1) // CHUNK_BLOCKS

        def read(i: int) -> bytearray:
            count = min(CHUNK_BLOCKS, nblocks - i * CHUNK_BLOCKS) * STATE_BYTES
            return _read_exact(src, count, "container")

        if nchunks >= 2:  # block 0 first, so a wrong key fails before any fork
            at = src.tell()
            _decrypt_chunk(_read_exact(src, STATE_BYTES, "container"), 0, bit_len, ek)
            src.seek(at)
        parts = []
        _write_in_order(
            nchunks,
            read,
            lambda i, payload: _decrypt_chunk(payload, i * CHUNK_BLOCKS, bit_len, ek),
            _writer(out, parts),
        )
    return b"".join(parts) if out is None else bit_len // 8


def generate_master_key() -> bytes:
    """Fresh 31-byte key from system entropy, tail bits zeroed."""
    return pad_block(int.from_bytes(os.urandom(KEY_BYTES), "big") >> PAD_BITS, BLOCK_BITS)


def validate_master_key(kb: bytes) -> bytes:
    """Check the key file rules: the length every master key needs, and the last 5 bits zero."""
    _check_key_length(kb)
    if kb[-1] & _PAD_MASK:
        raise KeyFormatError("key tail bits 243..247 must be zero")
    return kb

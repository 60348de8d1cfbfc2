"""9x9x9 symbol-cube codec: expands each byte into a three-symbol triple.

The cube holds a pair of ASCII symbols per cell over the 81-symbol alphabet
'*' (42) .. 'z' (122):

    cell(x, y, z) = (chr(42 + 9x + y), chr(42 + 9y + z))

The cube is built once, as the codec table _TRIPLES below: cell (x, y, z) is
byte b = 42 + 9x + y (so q = 0) followed by the depth symbol of b's triple at
the positions p with p mod 9 = z, and dump_cube renders it from that table.

A byte b at block position p encodes to the three ASCII bytes of its triple
(row digit, column digit, depth symbol):

    v = (b - 42) mod 256        symbol value, alphabet origin '*'
    q = v div 81                overflow plane, 0..3 (0 for printable input)
    x, y = (v mod 81) div 9, (v mod 81) mod 9
    z_eff = (p + q) mod 9
    triple = (digit(x), digit(y), chr(42 + 9y + z_eff))

The depth symbol re-encodes y alongside z_eff, so every triple carries a
redundant copy of its column; the decoder checks it and rejects corrupted
triples.  Folding q into z_eff extends the printable-alphabet scheme to all
256 byte values without changing its shape.  The map is one table and its
inverse: _TRIPLES[k][b] is the triple of byte b at every position p with
p mod 9 = k, built at import from the formulas above, and _INVERSE[k] maps
each of those 256 triples back to its byte.  encode_block expands 31 input
bytes to 93 output bytes, and decode_block accepts exactly the 256 triples
per position that encode_block emits there.  Any other triple encodes no
byte, and the error names the first such triple.
"""

from itertools import cycle, product
from operator import getitem

from .errors import IntegrityError, LengthError, RangeError

SYMBOL_BASE = 42  # '*', the alphabet origin
DIGIT_BASE = ord("0")
CUBE_SIZE = 9
BLOCK_BYTES = 31
ENCODED_BYTES = 93


# Slices that cut a run of bytes into its first 256 triples
_SPLIT = tuple(map(slice, range(0, 768, 3), range(3, 771, 3)))
_BLOCK_SPLIT = _SPLIT[:BLOCK_BYTES]


def _class_triples(k: int) -> tuple:
    """The triples of bytes 0..255 at the positions p with p mod 9 = k, from the formulas above."""
    digits = bytes(range(DIGIT_BASE, DIGIT_BASE + CUBE_SIZE))
    run = bytearray(3 * 4 * 81)  # the triples of v = 81q + 9x + y for q = 0..3
    run[0::3] = bytes(sorted(digits * 9)) * 4
    run[1::3] = digits * 36
    run[2::3] = b"".join(
        bytes(range(SYMBOL_BASE + (k + q) % 9, SYMBOL_BASE + 81, 9)) * 9 for q in range(4)
    )
    by_value = list(map(bytes(run).__getitem__, _SPLIT))  # v = 0..255
    # Byte b has value v = (b - 42) mod 256.
    return tuple(by_value[256 - SYMBOL_BASE :] + by_value[: 256 - SYMBOL_BASE])


_TRIPLES = tuple(map(_class_triples, range(CUBE_SIZE)))
_INVERSE = tuple(dict(zip(triples, range(256))) for triples in _TRIPLES)


def encode_bytes(data: bytes) -> bytes:
    """Expand each byte of data to the triple for its position: 3 bytes out per byte in."""
    return b"".join(map(getitem, cycle(_TRIPLES), data))


def encode_block(block: bytes) -> bytes:
    """Expand 31 bytes to 93, one triple per byte."""
    if len(block) != BLOCK_BYTES:
        raise LengthError(f"expected {BLOCK_BYTES} bytes, got {len(block)}")
    return encode_bytes(block)


def decode_block(encoded: bytes) -> bytes:
    """Exact inverse of encode_block; reports the first triple that encodes no byte."""
    if len(encoded) != ENCODED_BYTES:
        raise LengthError(f"expected {ENCODED_BYTES} bytes, got {len(encoded)}")
    encoded = bytes(encoded)  # bytearray slices cannot be dict keys
    try:
        return bytes(map(getitem, cycle(_INVERSE), map(encoded.__getitem__, _BLOCK_SPLIT)))
    except KeyError:
        raise _triple_error(encoded) from None


def _triple_error(encoded: bytes) -> IntegrityError | RangeError:
    """The error for the first triple of a block that encodes no byte at its position.

    IntegrityError when a value is off the alphabet or the depth symbol's
    redundant column copy does not match the column digit (corruption),
    RangeError when the depth is impossible for the position or the symbol
    value 81q + 9x + y is past 255.
    """
    p = next(
        p for p in range(BLOCK_BYTES) if encoded[3 * p : 3 * p + 3] not in _INVERSE[p % CUBE_SIZE]
    )
    x = encoded[3 * p] - DIGIT_BASE
    y = encoded[3 * p + 1] - DIGIT_BASE
    m = encoded[3 * p + 2] - SYMBOL_BASE
    where = f"triple {p}: "
    if not (0 <= x <= 8 and 0 <= y <= 8):
        return IntegrityError(f"{where}row/col digits out of range: row {x}, col {y}")
    if not (0 <= m <= 80):
        return IntegrityError(f"{where}depth symbol out of alphabet: {chr(SYMBOL_BASE + m)!r}")
    y_check, z_eff = divmod(m, 9)
    if y_check != y:
        return IntegrityError(f"{where}depth symbol encodes column {y_check}, triple says {y}")
    q = (z_eff - p) % 9
    if q > 3:
        return RangeError(f"{where}depth offset {q} impossible at position {p}")
    return RangeError(f"{where}symbol value {81 * q + 9 * x + y} past 255 at depth offset {q}")


def dump_cube() -> str:
    """Render the cube from _TRIPLES, one `arr[x][y][z] = <pair>` record per line."""
    lines = []
    for x, y, z in product(range(CUBE_SIZE), repeat=3):
        b = SYMBOL_BASE + 9 * x + y
        lines.append(f"arr[{x}][{y}][{z}] = {chr(b)}{chr(_TRIPLES[z][b][2])}")
    return "\n".join(lines) + "\n"

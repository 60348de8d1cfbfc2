"""9x9x9 symbol-cube codec: expands each byte into a three-symbol triple.

The cube holds a pair of ASCII symbols per cell over the 81-symbol alphabet
'*' (42) .. 'z' (122):

    cell(x, y, z) = (chr(42 + 9x + y), chr(42 + 9y + z))

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
256 byte values without changing its shape, and keeps the map bijective per
position: encode_block always expands 31 input bytes to 93 output bytes,
and decode_block inverts it.
"""

from .errors import IntegrityError, LengthError, RangeError

SYMBOL_BASE = 42  # '*', the alphabet origin
DIGIT_BASE = ord("0")
CUBE_SIZE = 9
BLOCK_BYTES = 31
ENCODED_BYTES = 93


def build_cube() -> list:
    """Materialize the full 9x9x9 cube of symbol pairs as nested lists."""
    return [
        [
            [
                (chr(SYMBOL_BASE + 9 * x + y), chr(SYMBOL_BASE + 9 * y + z))
                for z in range(CUBE_SIZE)
            ]
            for y in range(CUBE_SIZE)
        ]
        for x in range(CUBE_SIZE)
    ]


def _encode_coords(b: int, p: int) -> tuple[int, int, int]:
    """Map byte b at position p to (x, y, depth symbol code)."""
    v = (b - SYMBOL_BASE) & 0xFF
    q, i = divmod(v, 81)
    x, y = divmod(i, 9)
    z_eff = (p + q) % 9
    return x, y, SYMBOL_BASE + 9 * y + z_eff


def _decode_coords(x: int, y: int, m: int, p: int) -> int:
    """Invert _encode_coords: row x, column y, depth symbol value m at position p.

    Raises IntegrityError when a value is off the alphabet or the depth
    symbol's redundant column copy does not match y (corruption), RangeError
    when the depth is impossible for p.
    """
    if not (0 <= x <= 8 and 0 <= y <= 8):
        raise IntegrityError(f"row/col digits out of range: row {x}, col {y}")
    if not (0 <= m <= 80):
        raise IntegrityError(f"depth symbol out of alphabet: {chr(SYMBOL_BASE + m)!r}")
    y_check, z_eff = divmod(m, 9)
    if y_check != y:
        raise IntegrityError(
            f"depth symbol encodes column {y_check}, triple says {y}"
        )
    q = (z_eff - p) % 9
    if q > 3:
        raise RangeError(f"depth offset {q} impossible at position {p}")
    return (81 * q + 9 * x + y + SYMBOL_BASE) & 0xFF


def encode_bytes(data: bytes) -> bytes:
    """Expand each byte of data to the triple for its position: 3 bytes out per byte in."""
    out = bytearray(3 * len(data))
    for p, b in enumerate(data):
        x, y, code = _encode_coords(b, p)
        j = 3 * p
        out[j] = DIGIT_BASE + x
        out[j + 1] = DIGIT_BASE + y
        out[j + 2] = code
    return bytes(out)


def encode_block(block: bytes) -> bytes:
    """Expand 31 bytes to 93, one triple per byte."""
    if len(block) != BLOCK_BYTES:
        raise LengthError(f"expected {BLOCK_BYTES} bytes, got {len(block)}")
    return encode_bytes(block)


def decode_block(encoded: bytes) -> bytes:
    """Exact inverse of encode_block; reports the failing triple index."""
    if len(encoded) != ENCODED_BYTES:
        raise LengthError(f"expected {ENCODED_BYTES} bytes, got {len(encoded)}")
    out = bytearray(BLOCK_BYTES)
    try:
        for p in range(BLOCK_BYTES):
            j = 3 * p
            out[p] = _decode_coords(
                encoded[j] - DIGIT_BASE,
                encoded[j + 1] - DIGIT_BASE,
                encoded[j + 2] - SYMBOL_BASE,
                p,
            )
    except (IntegrityError, RangeError) as exc:
        raise type(exc)(f"triple {p}: {exc}") from None
    return bytes(out)


def dump_cube(cube: list) -> str:
    """Render the cube as one `arr[x][y][z] = <pair>` record per line."""
    lines = []
    for x in range(CUBE_SIZE):
        for y in range(CUBE_SIZE):
            for z in range(CUBE_SIZE):
                first, second = cube[x][y][z]
                lines.append(f"arr[{x}][{y}][{z}] = {first}{second}")
    return "\n".join(lines) + "\n"

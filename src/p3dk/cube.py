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

Both directions run on bytes.translate tables built at import, a few
translate calls per block rather than one Python step per byte.  The
decoder checks the whole block at once; only when a check fails does it
walk the triples one by one, to name the first bad one in its error.
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


def _by_byte(by_value: bytes) -> bytes:
    """Translate table whose entry b is by_value[(b - 42) mod 256], from one indexed by value."""
    return by_value[256 - SYMBOL_BASE : 256] + by_value[: 256 - SYMBOL_BASE]


# Translate tables, built from the formulas above over the symbol value
# v = 81q + 9x + y.  The row and column digits do not depend on the position,
# so one table each covers every triple at once.  The depth symbol depends on
# it only through p mod 9: _DEPTH[k] serves positions k, k + 9, k + 18, ...
# and is _DEPTH[k - 1] with z_eff stepped on by one (_FORWARD).
_DIGITS = bytes(range(DIGIT_BASE, DIGIT_BASE + CUBE_SIZE))
_FORWARD = bytes(range(SYMBOL_BASE)) + bytes(
    SYMBOL_BASE + m - m % 9 + (m + 1) % 9 for m in range(81)
) + bytes(range(SYMBOL_BASE + 81, 256))
_ROW = _by_byte(bytes(sorted(_DIGITS * 9)) * 4)  # digit((v mod 81) div 9)
_COL = _by_byte(_DIGITS * 29)  # digit(v mod 9)
# 42 + 9y + q, the depth symbol at p = 0
_DEPTH = [_by_byte(b"".join(bytes(range(SYMBOL_BASE + q, SYMBOL_BASE + 81, 9)) * 9 for q in range(4)))]
for _ in range(1, CUBE_SIZE):
    _DEPTH.append(_DEPTH[-1].translate(_FORWARD))

# The decoder maps each depth symbol at a position k mod 9 to its key 9q + y,
# or to _BAD when it is off the alphabet or its depth offset q is over 3.
# _COLUMN_OF[key] is the column digit the symbol encodes, and _BYTE_OF[key]
# maps the row digit to the decoded byte.
_BAD = 0xFF
_BACK = bytes.maketrans(_FORWARD, bytes(range(256)))
_key0 = bytearray([_BAD]) * 256  # at position 0, z_eff is q itself
for _q in range(4):
    _key0[SYMBOL_BASE + _q : SYMBOL_BASE + 81 : 9] = range(9 * _q, 9 * _q + 9)
_DEPTH_KEY = [bytes(_key0)]
for _ in range(1, CUBE_SIZE):
    _DEPTH_KEY.append(_BACK.translate(_DEPTH_KEY[-1]))
_COLUMN_OF = (_DIGITS * 4).ljust(256, b"\0")
# (42 + v) mod 256 for v = 0..323, that is for q = 0..3
_WRAPPED = bytes(range(SYMBOL_BASE, 256)) + bytes(range(81 * 4 - 256 + SYMBOL_BASE))
_BYTE_OF = tuple(
    bytes(DIGIT_BASE) + _WRAPPED[81 * q + y : 81 * q + 81 : 9] for q in range(4) for y in range(9)
)


def encode_bytes(data: bytes) -> bytes:
    """Expand each byte of data to the triple for its position: 3 bytes out per byte in."""
    out = bytearray(3 * len(data))
    out[0::3] = data.translate(_ROW)
    out[1::3] = data.translate(_COL)
    for k, table in enumerate(_DEPTH):
        out[3 * k + 2 :: 3 * CUBE_SIZE] = data[k::CUBE_SIZE].translate(table)
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
    rows = encoded[0::3]
    cols = encoded[1::3]
    depths = encoded[2::3]
    keys = bytearray(BLOCK_BYTES)
    for k, table in enumerate(_DEPTH_KEY):
        keys[k::CUBE_SIZE] = depths[k::CUBE_SIZE].translate(table)
    if _BAD in keys or keys.translate(_COLUMN_OF) != cols or rows.translate(None, _DIGITS):
        return _decode_triples(encoded)
    return bytes([_BYTE_OF[key][row] for key, row in zip(keys, rows)])


def _decode_triples(encoded: bytes) -> bytes:
    """decode_block one triple at a time, so that an error names the first bad triple.

    Raises IntegrityError when a value is off the alphabet or the depth
    symbol's redundant column copy does not match the column digit
    (corruption), RangeError when the depth is impossible for the position.
    """
    out = bytearray(BLOCK_BYTES)
    for p in range(BLOCK_BYTES):
        x = encoded[3 * p] - DIGIT_BASE
        y = encoded[3 * p + 1] - DIGIT_BASE
        m = encoded[3 * p + 2] - SYMBOL_BASE
        where = f"triple {p}: "
        if not (0 <= x <= 8 and 0 <= y <= 8):
            raise IntegrityError(f"{where}row/col digits out of range: row {x}, col {y}")
        if not (0 <= m <= 80):
            raise IntegrityError(f"{where}depth symbol out of alphabet: {chr(SYMBOL_BASE + m)!r}")
        y_check, z_eff = divmod(m, 9)
        if y_check != y:
            raise IntegrityError(f"{where}depth symbol encodes column {y_check}, triple says {y}")
        q = (z_eff - p) % 9
        if q > 3:
            raise RangeError(f"{where}depth offset {q} impossible at position {p}")
        out[p] = (81 * q + 9 * x + y + SYMBOL_BASE) & 0xFF
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

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kat_oracle
from p3dk.cube import (
    decode_block,
    dump_cube,
    encode_block,
    encode_bytes,
)
from p3dk.errors import IntegrityError, LengthError, RangeError


def _dump_cells() -> dict:
    """The (x, y, z) -> (first, second) symbol pairs of dump_cube's lines."""
    cells = {}
    for line in dump_cube().splitlines():
        index, pair = line.split(" = ")
        x, y, z = (int(n) for n in index[4:-1].split("]["))
        cells[x, y, z] = tuple(pair)
    return cells


def test_cube_closed_form_everywhere():
    cells = _dump_cells()
    assert len(dump_cube().splitlines()) == len(cells) == 729  # one line per cell
    for x in range(9):
        for y in range(9):
            for z in range(9):
                assert cells[x, y, z] == (chr(42 + 9 * x + y), chr(42 + 9 * y + z))


def test_cube_corner_and_spot_cells():
    cells = _dump_cells()
    assert cells[0, 0, 0] == ("*", "*")
    assert cells[0, 1, 0] == ("+", "3")
    assert cells[0, 3, 0] == ("-", "E")
    assert cells[8, 0, 7] == ("r", "1")
    assert cells[8, 8, 8] == ("z", "z")


def _triple(b: int, p: int) -> bytes:
    """The 3 bytes that encode_block gives byte b at block position p."""
    block = bytearray(31)
    block[p] = b
    return encode_block(bytes(block))[3 * p : 3 * p + 3]


def _decode_at(triple: bytes, p: int) -> int:
    """decode_block of an all-zero block whose triple p is replaced by triple."""
    encoded = bytearray(encode_block(bytes(31)))
    encoded[3 * p : 3 * p + 3] = triple
    return decode_block(bytes(encoded))[p]


def test_encode_byte_printable_letter():
    assert _triple(80, 3) == b"42?"


def test_encode_byte_alphabet_origin():
    assert _triple(42, 0) == b"00*"


def test_encode_byte_wraps_below_alphabet():
    assert _triple(0, 0) == b"57k"


def test_decode_triple_inverts_wrapped_byte():
    assert _decode_at(b"57k", 0) == 0


def test_decode_triple_column_mismatch():
    with pytest.raises(IntegrityError):
        _decode_at(b"00z", 0)


def test_decode_triple_impossible_depth():
    with pytest.raises(RangeError):
        _decode_at(b"00/", 0)


def test_decode_triple_bad_digits():
    with pytest.raises(IntegrityError):
        _decode_at(b"90*", 0)
    with pytest.raises(IntegrityError):
        _decode_at(b"00\x7f", 0)


def test_codec_bijective_over_all_bytes_and_positions():
    for b in range(256):
        for p in range(9):
            assert _decode_at(_triple(b, p), p) == b


def test_decode_accepts_exactly_the_triples_encode_emits():
    """At each position, of the 9 * 9 * 81 triples of digits and alphabet symbols,
    decode_block accepts exactly the 256 that encode_block emits there.

    Of the rest, 68 have a depth symbol that agrees with the column digit at
    a depth offset q <= 3, but a symbol value 81q + 9x + y past 255.  No byte
    encodes to them, and they raise RangeError.
    """
    encoded = bytearray(encode_block(bytes(31)))
    for p in range(31):
        emitted = {_triple(b, p): b for b in range(256)}
        accepted, past_255 = {}, 0
        for x, y, m in itertools.product(range(9), range(9), range(81)):
            triple = bytes([48 + x, 48 + y, 42 + m])
            encoded[3 * p : 3 * p + 3] = triple
            try:
                accepted[triple] = decode_block(encoded)[p]
            except (IntegrityError, RangeError) as exc:
                assert str(exc).startswith(f"triple {p}: ")
                if m // 9 == y and (m % 9 - p) % 9 <= 3:
                    assert type(exc) is RangeError
                    past_255 += 1
        encoded[3 * p : 3 * p + 3] = _triple(0, p)
        assert accepted == emitted
        assert past_255 == 68


def test_alphabet_closure():
    for b in range(256):
        for p in range(9):
            row, col, depth = _triple(b, p)
            assert ord("0") <= row <= ord("8")
            assert ord("0") <= col <= ord("8")
            assert 42 <= depth <= 122


def test_depth_symbol_tracks_position():
    for b in (0, 42, 80, 200, 255):
        for p in range(8):
            assert _triple(b, p)[2] != _triple(b, p + 1)[2]


def test_encode_block_of_repeated_star_byte():
    encoded = encode_block(bytes([0x2A] * 31))
    for p in range(31):
        triple = encoded[3 * p : 3 * p + 3]
        assert triple == b"00" + bytes([42 + p % 9])


def test_encode_block_wrong_length():
    with pytest.raises(LengthError):
        encode_block(bytes(30))
    with pytest.raises(LengthError):
        decode_block(bytes(92))


def test_block_round_trip_random():
    gen = random.Random(3)
    for _ in range(10_000):
        block = gen.randbytes(31)
        assert decode_block(encode_block(block)) == block


def test_decode_block_reports_corrupted_triple_index():
    encoded = bytearray(encode_block(bytes(range(31))))
    col = encoded[3 * 7 + 1]
    encoded[3 * 7 + 1] = ord("0") if col != ord("0") else ord("1")
    with pytest.raises(IntegrityError, match="triple 7"):
        decode_block(bytes(encoded))


def test_encode_bytes_matches_oracle():
    gen = random.Random(17)
    for n in range(101):
        data = gen.randbytes(n)
        assert encode_bytes(data) == kat_oracle.cube_encode(data)
    # Byte b sits at position 256i + b, and 256i mod 9 takes all nine values
    # over i = 0..8, so every byte meets every depth offset p mod 9.
    data = bytes(range(256)) * 9
    assert encode_bytes(data) == kat_oracle.cube_encode(data)


# Bytes at the edges of each check: digits, the alphabet's ends and their
# neighbours, and bytes no check expects.
_EDGES = st.sampled_from(b"/0189:)*+yz{\x00\xff")


@st.composite
def _encoded_blocks(draw):
    """93 random bytes, or a valid encoding with one to three bytes or triples replaced."""
    if draw(st.booleans()):
        return draw(st.binary(min_size=93, max_size=93))
    encoded = bytearray(encode_block(draw(st.binary(min_size=31, max_size=31))))
    for _ in range(draw(st.integers(1, 3))):
        p = draw(st.integers(0, 30))
        how = draw(st.sampled_from(("byte", "agreeing triple", "edge triple")))
        if how == "byte":
            encoded[3 * p + draw(st.integers(0, 2))] = draw(st.integers(0, 255) | _EDGES)
        elif how == "agreeing triple":
            # Digits and a depth symbol that agree on the column, at any depth.
            x, y, z = (draw(st.integers(0, 8)) for _ in range(3))
            encoded[3 * p : 3 * p + 3] = bytes([48 + x, 48 + y, 42 + 9 * y + z])
        else:
            encoded[3 * p : 3 * p + 3] = bytes(draw(_EDGES) for _ in range(3))
    return bytes(encoded)


@settings(max_examples=2000, deadline=None)
@given(_encoded_blocks())
def test_decode_block_matches_oracle(encoded):
    want = kat_oracle.cube_decode(encoded)
    if isinstance(want, bytes):
        assert decode_block(encoded) == want
        return
    kind, p = want
    with pytest.raises((IntegrityError, RangeError)) as info:
        decode_block(encoded)
    assert (type(info.value).__name__, str(info.value).split(":")[0]) == (kind, f"triple {p}")


def test_dump_cube_contains_known_lines():
    text = dump_cube()
    assert "arr[0][0][0] = **" in text
    assert "arr[0][1][0] = +3" in text
    assert "arr[8][0][7] = r1" in text
    lines = text.splitlines()
    assert len(lines) == 729
    assert set(lines) == {
        f"arr[{x}][{y}][{z}] = {chr(42 + 9 * x + y)}{chr(42 + 9 * y + z)}"
        for x, y, z in itertools.product(range(9), repeat=3)
    }

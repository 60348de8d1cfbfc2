import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kat_oracle
import kat_vectors
from p3dk import cipher, cube
from p3dk.cipher import (
    BLOCK_BITS,
    STATE_BYTES,
    decrypt_block,
    decrypt_stream,
    encrypt_block,
    encrypt_stream,
    expand_key_for,
    expand_key_with,
    generate_master_key,
    inv_mix_columns,
    inv_shift_rows,
    mix_columns,
    pad_block,
    rotl_bits,
    shift_rows,
    validate_master_key,
)
from p3dk.errors import (
    FormatError,
    IntegrityError,
    KeyFormatError,
    LengthError,
    P3DKError,
    RangeError,
)


def test_pad_block_all_zero_bits():
    assert pad_block(0, 243) == bytes(31)


def test_pad_block_all_one_bits():
    assert pad_block((1 << 243) - 1, 243) == bytes([0xFF] * 30) + b"\xe0"


def test_pad_block_single_one_bit():
    assert pad_block(1, 1) == b"\x80" + bytes(30)


def test_pad_block_too_many_bits():
    with pytest.raises(LengthError):
        pad_block(0, 244)


@pytest.mark.parametrize("bits, nbits", [(-1, 8), (256, 8), (2, 1), (0, -1)])
def test_pad_block_value_must_fit(bits, nbits):
    with pytest.raises(LengthError):
        pad_block(bits, nbits)


def test_rotl_bits_full_cycle_and_bytewise():
    gen = random.Random(6)
    data = gen.randbytes(93)
    x = int.from_bytes(data, "big")
    assert rotl_bits(x, 0) == x
    assert rotl_bits(x, 744) == x
    assert rotl_bits(x, 8) == int.from_bytes(data[1:] + data[:1], "big")


def test_expand_key_with_forced_zero_rotation():
    key = bytes([0x2A] * 31)
    ek = expand_key_with(key, 0, 0)
    assert ek.round_keys[0] == int.from_bytes(cube.encode_block(key), "big")
    assert ek.round_keys[16] == rotl_bits(ek.round_keys[0], 8)
    assert len(ek.round_keys) == 17
    assert len(set(ek.round_keys)) == 17


def test_expand_key_draws_from_seeded_rng():
    key = bytes([0x2A] * 31)
    ek = expand_key_for(key)
    assert ek.rho == 444
    assert ek.sbox_rotation == 12
    assert ek.round_keys[0] == rotl_bits(int.from_bytes(cube.encode_block(key), "big"), 444)


def test_expand_key_wrong_length():
    with pytest.raises(KeyFormatError):
        expand_key_with(bytes(30), 0, 0)


@pytest.mark.parametrize("length", (0, 30))
def test_stream_wrong_key_length_is_key_format_error(length):
    key = bytes(length)
    with pytest.raises(KeyFormatError, match=f"master key must be 31 bytes, got {length}"):
        encrypt_stream(b"x", key)
    box = encrypt_stream(b"x", bytes([0x2A] * 31))
    with pytest.raises(KeyFormatError, match=f"master key must be 31 bytes, got {length}"):
        decrypt_stream(box, key)


def test_key_schedule_matches_oracle():
    gen = random.Random(13)
    for _ in range(50):
        key = gen.randbytes(31)
        ek = expand_key_for(key)
        rho, rotation, round_keys = kat_oracle.key_schedule(key)
        assert (ek.rho, ek.sbox_rotation) == (rho, rotation)
        assert ek.round_keys == tuple(int.from_bytes(k, "big") for k in round_keys)


def _int(state: bytes) -> int:
    return int.from_bytes(state, "big")


def _bytes(state: int) -> bytes:
    return state.to_bytes(STATE_BYTES, "big")


def test_shift_rows_keeps_row_zero():
    gen = random.Random(7)
    state = gen.randbytes(93)
    assert _bytes(shift_rows(_int(state)))[:31] == state[:31]


def test_shift_rows_moves_row_one_head_to_tail():
    state = bytearray(93)
    state[31] = 0xAB
    out = _bytes(shift_rows(_int(state)))
    assert out[31 + 30] == 0xAB
    assert sum(out) == 0xAB


def test_shift_rows_matches_modular_formula():
    gen = random.Random(8)
    state = gen.randbytes(93)
    out = _bytes(shift_rows(_int(state)))
    for r in range(3):
        for j in range(31):
            assert out[31 * r + j] == state[31 * r + (j + r) % 31]


def test_shift_rows_round_trip():
    gen = random.Random(9)
    for _ in range(1000):
        state = _int(gen.randbytes(93))
        assert inv_shift_rows(shift_rows(state)) == state


def test_mix_columns_spot_columns():
    state = bytearray(93)
    assert mix_columns(_int(state)) == 0
    state[0] = 0x01
    out = _bytes(mix_columns(_int(state)))
    assert (out[0], out[31], out[62]) == (0x01, 0x00, 0x01)
    state = bytearray(93)
    state[5], state[31 + 5], state[62 + 5] = 0xFF, 0xFF, 0xFF
    out = _bytes(mix_columns(_int(state)))
    assert (out[5], out[31 + 5], out[62 + 5]) == (0x00, 0x00, 0xFF)


def test_mix_columns_round_trip():
    gen = random.Random(10)
    for _ in range(1000):
        state = _int(gen.randbytes(93))
        assert inv_mix_columns(mix_columns(state)) == state


def test_block_round_trip_random_keys():
    gen = random.Random(11)
    for _ in range(1000):
        key = gen.randbytes(31)
        ek = expand_key_for(key)
        block = pad_block(gen.getrandbits(243), 243)
        assert decrypt_block(encrypt_block(block, ek), ek) == block


def test_known_answer_vector_block():
    ek = expand_key_for(kat_vectors.KAT1_KEY)
    assert encrypt_block(kat_vectors.KAT1_PLAINTEXT, ek) == kat_vectors.KAT1_CIPHERTEXT
    assert decrypt_block(kat_vectors.KAT1_CIPHERTEXT, ek) == kat_vectors.KAT1_PLAINTEXT


def test_known_answer_vector_container():
    out = encrypt_stream(kat_vectors.KAT2_MESSAGE, kat_vectors.KAT2_KEY)
    assert out == kat_vectors.KAT2_CONTAINER
    assert decrypt_stream(out, kat_vectors.KAT2_KEY) == kat_vectors.KAT2_MESSAGE


def test_oracle_reproduces_frozen_vectors():
    assert (
        kat_oracle.encrypt_block(kat_vectors.KAT1_PLAINTEXT, kat_vectors.KAT1_KEY)
        == kat_vectors.KAT1_CIPHERTEXT
    )
    assert (
        kat_oracle.encrypt_container(kat_vectors.KAT2_MESSAGE, kat_vectors.KAT2_KEY)
        == kat_vectors.KAT2_CONTAINER
    )


def test_single_bit_flip_changes_ciphertext():
    ek = expand_key_for(bytes([0x2A] * 31))
    base = encrypt_block(pad_block(0, 243), ek)
    flipped = encrypt_block(pad_block(1 << 120, 243), ek)
    assert base != flipped


def test_wrong_key_usually_fails_to_decode():
    gen = random.Random(12)
    failures = 0
    trials = 300
    for _ in range(trials):
        block = encrypt_block(
            pad_block(gen.getrandbits(243), 243), expand_key_for(gen.randbytes(31))
        )
        try:
            decrypt_block(block, expand_key_for(gen.randbytes(31)))
        except (IntegrityError, RangeError):
            failures += 1
    rate = failures / trials
    print(f"wrong-key decode failure rate: {rate:.3f}")
    assert rate >= 0.9


def test_decrypt_block_truncated():
    with pytest.raises(LengthError):
        decrypt_block(bytes(92), expand_key_for(bytes([0x2A] * 31)))


def test_even_rounds_really_mix(monkeypatch):
    key = bytes([0x2A] * 31)
    ek = expand_key_for(key)
    block = pad_block(12345, 243)
    standard = encrypt_block(block, ek)
    monkeypatch.setattr(cipher, "mix_columns", lambda state: state)
    assert encrypt_block(block, ek) != standard


def test_stream_empty_input():
    key = bytes([0x2A] * 31)
    out = encrypt_stream(b"", key)
    assert len(out) == 14
    assert out[:4] == b"P3DK"
    assert int.from_bytes(out[6:14], "little") == 0
    assert decrypt_stream(out, key) == b""


def test_stream_single_byte():
    key = bytes([0x2A] * 31)
    out = encrypt_stream(b"\xa7", key)
    assert len(out) == 14 + 93
    assert int.from_bytes(out[6:14], "little") == 8
    assert decrypt_stream(out, key) == b"\xa7"


def test_stream_round_trip_sizes():
    gen = random.Random(13)
    key = gen.randbytes(31)
    for size in (0, 1, 30, 31, 60, 61, 243 * 4 // 8, 10 * 1024):
        data = gen.randbytes(size)
        assert decrypt_stream(encrypt_stream(data, key), key) == data


@pytest.mark.parametrize("size", (0, 1, 7775, 7776, 7777, 2 * 7776 + 5))
def test_stream_files_match_bytes(size):
    assert cipher.CHUNK_BYTES == 7776 and cipher.CHUNK_BLOCKS == 256
    gen = random.Random(size)
    key, data = gen.randbytes(31), gen.randbytes(size)
    box = encrypt_stream(data, key)
    out = io.BytesIO()
    assert encrypt_stream(io.BytesIO(data), key, out) == len(box)
    assert out.getvalue() == box
    back = io.BytesIO()
    assert decrypt_stream(io.BytesIO(box), key, back) == size
    assert back.getvalue() == data == decrypt_stream(box, key)


def test_stream_reads_from_the_current_position():
    key = bytes([0x2A] * 31)
    src = io.BytesIO(b"skip" + b"payload")
    src.read(4)
    assert encrypt_stream(src, key) == encrypt_stream(b"payload", key)


def test_stream_payload_expansion_ratio():
    gen = random.Random(14)
    key = gen.randbytes(31)
    for size in (1, 31, 100, 1000):
        data = gen.randbytes(size)
        blocks = (8 * size + 242) // 243
        assert len(encrypt_stream(data, key)) == 14 + 93 * blocks


def test_decrypt_stream_header_errors():
    key = bytes([0x2A] * 31)
    box = bytearray(encrypt_stream(b"payload", key))
    with pytest.raises(FormatError):
        decrypt_stream(bytes(box[:10]), key)
    bad = bytes(box).replace(b"P3DK", b"NOPE", 1)
    with pytest.raises(FormatError):
        decrypt_stream(bad, key)
    box[4] = 2
    with pytest.raises(FormatError):
        decrypt_stream(bytes(box), key)
    box[4] = 1
    box[5] = 1
    with pytest.raises(FormatError):
        decrypt_stream(bytes(box), key)
    box[5] = 0
    with pytest.raises(LengthError):
        decrypt_stream(bytes(box) + b"\x00", key)


def test_validate_master_key():
    good = bytes(30) + b"\x20"
    assert validate_master_key(good) == good
    with pytest.raises(KeyFormatError):
        validate_master_key(bytes(30))
    with pytest.raises(KeyFormatError):
        validate_master_key(bytes(30) + b"\x01")


def test_generate_master_key_shape():
    first = generate_master_key()
    second = generate_master_key()
    assert len(first) == 31
    assert first[-1] & 0x1F == 0
    assert validate_master_key(first) == first
    assert first != second


def _one_block_container(last_byte: int, key: bytes) -> bytes:
    """A 240-bit header over one block whose 31st plaintext byte is last_byte."""
    header = cipher.MAGIC + bytes([cipher.VERSION, 0]) + (240).to_bytes(8, "little")
    return header + encrypt_block(bytes(30) + bytes([last_byte]), expand_key_for(key))


@pytest.mark.parametrize("last_byte", (0x1F, 0x01, 0x20, 0xE0, 0xFF), ids=hex)
def test_non_canonical_container_is_rejected(last_byte):
    """Set pad bits (0x1f, 0x01) or data bits past the recorded length (0x20, 0xe0)."""
    key = bytes([0x2A] * 31)
    assert _one_block_container(0x00, key) == encrypt_stream(bytes(30), key)
    with pytest.raises(IntegrityError, match=r"^block 0 \(container bytes 14-106\): "):
        decrypt_stream(_one_block_container(last_byte, key), key)


@st.composite
def _mutated_containers(draw):
    key = draw(st.binary(min_size=31, max_size=31))
    # Seeded random bytes, not st.binary: its zero-heavy messages would make
    # most shortened bit lengths canonical by accident.
    message = random.Random(draw(st.integers(0, 2**32))).randbytes(draw(st.integers(0, 100)))
    box = bytearray(encrypt_stream(message, key))
    how = draw(st.sampled_from(("bitflip", "truncate", "extend", "header byte", "bit length")))
    if how == "bitflip":
        bit = draw(st.integers(0, 8 * len(box) - 1))
        box[bit // 8] ^= 1 << (bit % 8)
    elif how == "truncate":
        del box[draw(st.integers(0, len(box) - 1)) :]
    elif how == "extend":
        box += draw(st.binary(min_size=1, max_size=2 * STATE_BYTES))
    elif how == "header byte":
        box[draw(st.integers(0, cipher.HEADER_BYTES - 1))] = draw(st.integers(0, 255))
    else:
        box[6:14] = (8 * draw(st.integers(0, len(message) + 40))).to_bytes(8, "little")
    return key, bytes(box)


@st.composite
def _forged_containers(draw):
    """A well-formed header over random blocks, so decoding is reached."""
    key = draw(st.binary(min_size=31, max_size=31))
    bit_len = 8 * draw(st.integers(0, 100))
    nblocks = (bit_len + BLOCK_BITS - 1) // BLOCK_BITS
    payload = draw(st.binary(min_size=nblocks * STATE_BYTES, max_size=nblocks * STATE_BYTES))
    header = cipher.MAGIC + bytes([cipher.VERSION, 0]) + bit_len.to_bytes(8, "little")
    return key, header + payload


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(st.binary(min_size=31, max_size=31), st.binary(max_size=300)),
        _forged_containers(),
        _mutated_containers(),
    )
)
def test_decrypt_stream_rejects_or_round_trips(case):
    """Any input either raises P3DKError or is the canonical container of what it returns."""
    key, box = case
    try:
        plain = decrypt_stream(box, key)
    except P3DKError:
        return
    assert encrypt_stream(plain, key) == box


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=31, max_size=31), st.binary(min_size=31, max_size=31))
def test_block_matches_oracle(key, block):
    ek = expand_key_for(key)
    c93 = encrypt_block(block, ek)
    assert c93 == kat_oracle.encrypt_block(block, key)
    assert decrypt_block(c93, ek) == block

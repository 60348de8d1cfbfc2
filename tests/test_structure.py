"""Three structural weaknesses of the cipher, pinned as format facts.

Bit j of every state nibble is "plane j".  The S-box output nibble
(a + c + 8 + R) mod 16 carries only upward, and no other layer moves a bit
to a lower plane, so ciphertext planes 0..j depend only on state planes
0..j, and planes 0, 0-1 and 3 pass through the rounds in ways the key does
not change.  A change that breaks any test below changes the cipher's
output, the same as a change that breaks a known-answer vector.
"""

import random

from p3dk import cube
from p3dk.cipher import (
    BLOCK_BITS,
    KEY_BYTES,
    ROUNDS,
    STATE_BITS,
    STATE_BYTES,
    decrypt_block,
    encrypt_block,
    expand_key_for,
    mix_columns,
    pad_block,
    shift_rows,
)
from p3dk.sbox import build_sbox, sub_state

E0 = expand_key_for(bytes(KEY_BYTES))  # the all-zero key
PLANE0 = int.from_bytes(b"\x11" * STATE_BYTES, "big")  # bit 0 of every nibble
PLANES01 = int.from_bytes(b"\x33" * STATE_BYTES, "big")  # bits 0-1 of every nibble
PLANES012 = int.from_bytes(b"\x77" * STATE_BYTES, "big")  # bits 0-2 of every nibble


def _block(gen: random.Random) -> bytearray:
    return bytearray(pad_block(gen.getrandbits(BLOCK_BITS), BLOCK_BITS))


def _enc(block: bytes, ek) -> int:
    return int.from_bytes(encrypt_block(bytes(block), ek), "big")


def test_keyless_forgery_swaps_a_byte_under_any_key():
    """A mask built under the all-zero key turns '*' into 'r' under every key.

    '*' and 'r' differ in a way the codec sends to plane 3 only, which the
    rounds carry through linearly and independently of key and data, so
    the forged block decodes without an integrity error.
    """
    gen = random.Random(0x5F0)
    for _ in range(50):
        ek = expand_key_for(gen.randbytes(KEY_BYTES))
        p = _block(gen)
        position = gen.randrange(KEY_BYTES - 1)
        p[position] = ord("*")
        p_forged = bytearray(p)
        p_forged[position] = ord("r")
        mask = _enc(p, E0) ^ _enc(p_forged, E0)
        forged = (_enc(p, ek) ^ mask).to_bytes(STATE_BYTES, "big")
        assert decrypt_block(forged, ek) == bytes(p_forged)


def test_one_known_pair_predicts_plane_0_of_any_ciphertext():
    """Plane 0 of E_K(x) is L(x) ^ c_K, with L the same for every key."""
    gen = random.Random(0x9A1)
    for _ in range(50):
        ek = expand_key_for(gen.randbytes(KEY_BYTES))
        p = _block(gen)
        q = _block(gen)
        predicted = _enc(p, ek) ^ _enc(p, E0) ^ _enc(q, E0)
        assert predicted & PLANE0 == _enc(q, ek) & PLANE0


def _rounds(state: int, ek) -> int:
    """encrypt_block's key XOR and rounds, from the public layers, on any 744-bit state."""
    box = build_sbox(ek.sbox_rotation)
    state ^= ek.round_keys[0]
    for r in range(1, ROUNDS + 1):
        state = shift_rows(sub_state(box, state))
        if r % 2 == 0:
            state = mix_columns(state)
        state ^= ek.round_keys[r]
    return state


def test_planes_0_and_1_are_quadratic_with_a_keyless_quadratic_part():
    """The second derivative of planes 0-1 depends on neither the key nor the state.

    For a pair of differences (a, b), F(x) ^ F(x^a) ^ F(x^b) ^ F(x^a^b) on
    planes 0-1 comes out the same for every key and x, and is not zero, so
    planes 0-1 of the ciphertext are quadratic in the state.  Plane 2 is not:
    with it included, the value changes with the key or x.
    """
    gen = random.Random(0x2D2)
    ek = expand_key_for(gen.randbytes(KEY_BYTES))
    p = _block(gen)
    encoded = int.from_bytes(cube.encode_block(bytes(p)), "big")
    assert _rounds(encoded, ek) == _enc(p, ek)
    for pair in range(30):
        a, b = gen.getrandbits(STATE_BITS), gen.getrandbits(STATE_BITS)
        derivatives = []
        for _ in range(8):
            ek = expand_key_for(gen.randbytes(KEY_BYTES))
            x = gen.getrandbits(STATE_BITS)
            f = [_rounds(x ^ d, ek) for d in (0, a, b, a ^ b)]
            derivatives.append(f[0] ^ f[1] ^ f[2] ^ f[3])
        assert len({d & PLANES01 for d in derivatives}) == 1
        assert derivatives[0] & PLANES01
        if pair == 0:
            assert len({d & PLANES012 for d in derivatives}) > 1

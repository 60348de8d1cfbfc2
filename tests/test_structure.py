"""Two structural weaknesses of the cipher, pinned as format facts.

Bit j of every state nibble is "plane j".  The S-box output nibble
(a + c + 8 + R) mod 16 carries only upward, and no other layer moves a bit
to a lower plane, so ciphertext planes 0..j depend only on state planes
0..j, and planes 0 and 3 pass through the rounds in ways the key does not
change.  A change that breaks either test below changes the cipher's
output, the same as a change that breaks a known-answer vector.
"""

import random

from p3dk.cipher import (
    BLOCK_BITS,
    KEY_BYTES,
    STATE_BYTES,
    decrypt_block,
    encrypt_block,
    expand_key_for,
    pad_block,
)

E0 = expand_key_for(bytes(KEY_BYTES))  # the all-zero key
PLANE0 = int.from_bytes(b"\x11" * STATE_BYTES, "big")  # bit 0 of every nibble


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

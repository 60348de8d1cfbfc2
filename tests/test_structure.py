"""Three structural weaknesses of the cipher, pinned as format facts.

Bit j of every state nibble is "plane j".  The S-box output nibble
(a + c + 8 + R) mod 16 carries only upward, and no other layer moves a bit
to a lower plane, so ciphertext planes 0..j depend only on state planes
0..j, and planes 0, 0-1 and 3 pass through the rounds in ways the key does
not change.  A change that breaks any test below changes the cipher's
output, the same as a change that breaks a known-answer vector.

The last tests check a model of whole rounds on n blocks held in one int
(the lane engine of ROADMAP item 2) against the one-block rounds.
"""

import random

from test_sbox import _joined, _lane_model
from p3dk import cipher, cube
from p3dk.cipher import (
    BLOCK_BITS,
    KEY_BYTES,
    ROUNDS,
    STATE_BITS,
    STATE_BYTES,
    decrypt_block,
    encrypt_block,
    expand_key_for,
    expand_key_with,
    mix_columns,
    pad_block,
    shift_rows,
)
from p3dk.sbox import build_sbox, sub_state

E0 = expand_key_for(bytes(KEY_BYTES))  # the all-zero key
PLANE0 = int.from_bytes(b"\x11" * STATE_BYTES, "big")  # bit 0 of every nibble
PLANES01 = int.from_bytes(b"\x33" * STATE_BYTES, "big")  # bits 0-1 of every nibble
PLANES012 = int.from_bytes(b"\x77" * STATE_BYTES, "big")  # bits 0-2 of every nibble
_STATE_MASK = (1 << STATE_BITS) - 1


def _block(gen: random.Random) -> bytearray:
    return bytearray(pad_block(gen.getrandbits(BLOCK_BITS)))


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
    box = ek.sbox
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


def _wide(value: int, n: int) -> int:
    """A 744-bit value repeated n times, end to end."""
    return int.from_bytes(value.to_bytes(STATE_BYTES, "big") * n, "big")


def _wide_rounds(n: int, ek, row2_mask: bool = True):
    """ROADMAP item 2's engine, test side: whole rounds on n states in one int, block 0 on top.

    Substitution is test_sbox._lane_model, and the row shift, the column mix
    and the round keys are the cipher's own masks and keys repeated n times.
    Every bit a shift_rows mask keeps comes from its own block, but the
    496-bit down-shifts of the column mixes would carry block i's rows 1 and
    2 into rows 0 and 1 of the block below it, so those take a row-2 mask
    (leave it out with row2_mask=False).  Returns (encrypt, decrypt).
    """
    forward, inverse = _lane_model(n, ek.sbox.rotation)
    rk = [_wide(k, n) for k in ek.round_keys]
    row0, row1, row01, lo1, hi1, lo2, hi2 = (
        _wide(m, n) for m in (cipher._ROW0, cipher._ROW1, cipher._ROWS01,
                              cipher._LO1, cipher._HI1, cipher._LO2, cipher._HI2)
    )
    row2 = _wide(cipher._ROW2, n) if row2_mask else -1

    def encrypt(s):
        s ^= rk[0]
        for r in range(1, ROUNDS + 1):
            s = forward(s)
            s = s & row0 | (s & lo1) << 8 | (s & hi1) >> 240 | (s & lo2) << 16 | (s & hi2) >> 232
            if r % 2 == 0:
                t = s ^ ((s << 248) & row01)
                s = t ^ ((t >> 496) & row2)
            s ^= rk[r]
        return s

    def decrypt(s):
        for r in range(ROUNDS, 0, -1):
            s ^= rk[r]
            if r % 2 == 0:
                t = s ^ ((s >> 496) & row2)
                t ^= (t << 248) & row1
                s = t ^ ((t << 248) & row0)
            s = s & row0 | s >> 8 & lo1 | s << 240 & hi1 | s >> 16 & lo2 | s << 232 & hi2
            s = inverse(s)
        return s ^ rk[0]

    return encrypt, decrypt


def _split(wide: int, n: int) -> list[bytes]:
    data = wide.to_bytes(n * STATE_BYTES, "big")
    return [data[i * STATE_BYTES : (i + 1) * STATE_BYTES] for i in range(n)]


def test_whole_rounds_at_width_n_match_one_block_at_a_time():
    """For n = 1..8 and every rotation, n blocks in one int give each block's own result."""
    gen = random.Random(0x1A4E)
    for rotation in range(16):
        ek = expand_key_with(gen.randbytes(KEY_BYTES), gen.randrange(STATE_BITS), rotation)
        for n in range(1, 9):
            encrypt, decrypt = _wide_rounds(n, ek)
            states = [gen.getrandbits(STATE_BITS) for _ in range(n)]
            assert encrypt(_joined(states)) == _joined(_rounds(s, ek) for s in states)
            assert decrypt(encrypt(_joined(states))) == _joined(states)
            blocks = [bytes(_block(gen)) for _ in range(n)]
            boxes = [encrypt_block(b, ek) for b in blocks]
            decrypted = _split(decrypt(int.from_bytes(b"".join(boxes), "big")), n)
            assert [cube.decode_block(c) for c in decrypted] == [decrypt_block(c, ek) for c in boxes] == blocks


def test_column_mix_at_width_n_needs_a_row_2_mask():
    """Without it, each column mix leaks a block's rows 1 and 2 into the block below; block 0 stays right."""
    gen = random.Random(0x1A4F)
    ek = expand_key_for(gen.randbytes(KEY_BYTES))
    n = 4
    states = [gen.getrandbits(STATE_BITS) for _ in range(n)]
    right = _split(_wide_rounds(n, ek)[0](_joined(states)), n)
    leaky = _split(_wide_rounds(n, ek, row2_mask=False)[0](_joined(states)), n)
    assert leaky[0] == right[0]
    assert all(leaky[i] != right[i] for i in range(1, n))
    rows12 = (1 << 2 * STATE_BITS // 3) - 1
    for mask in (True, False):
        # All-zero round keys and rotation 8 make every round map 0 to 0, so only a leak reaches block 1.
        encrypt, decrypt = _wide_rounds(2, cipher.ExpandedKey((0,) * (ROUNDS + 1), build_sbox(8)), mask)
        assert (encrypt(_joined([rows12, 0])) & _STATE_MASK != 0) is not mask
        assert (decrypt(_joined([rows12, 0])) & _STATE_MASK != 0) is not mask

import random

import pytest

from p3dk import sbox
from p3dk.errors import LengthError, RangeError
from p3dk.sbox import (
    build_sbox,
    dump_sbox,
    inv_sub_state,
    rotate,
    sub_state,
)


def test_constructor_spot_values():
    assert build_sbox(0).forward[0x000] == 0x008
    assert build_sbox(8).forward[0x000] == 0x000
    assert build_sbox(0).forward[0xABC] == 0xBCE
    assert build_sbox(0).forward[0x008] == 0x080


def test_rotation_out_of_range():
    with pytest.raises(RangeError):
        build_sbox(16)
    with pytest.raises(RangeError):
        build_sbox(-1)


def test_invert_spot_values():
    assert build_sbox(0).inverse[0xBCE] == 0xABC
    assert build_sbox(8).inverse[0x000] == 0x000


def test_forward_is_permutation_with_exact_inverse():
    for rotation in range(16):
        box = build_sbox(rotation)
        assert sorted(box.forward) == list(range(4096))
        for idx in range(4096):
            assert box.inverse[box.forward[idx]] == idx


def test_output_keeps_row_and_column():
    box = build_sbox(5)
    for a in range(16):
        for b in range(16):
            for c in range(16):
                out = box.forward[(a << 8) | (b << 4) | c]
                assert (out >> 8, (out >> 4) & 0xF) == (b, c)


def test_rotate_matches_direct_construction():
    base = build_sbox(0)
    assert rotate(base, 2) == build_sbox(2)
    assert rotate(base, 16) == base
    assert rotate(base, 0) == base
    for n in range(17):
        assert rotate(base, n) == build_sbox(n % 16)


def test_every_rotation_is_rotation_0_read_at_a_keyed_offset():
    """R adds to the first nibble: forward_R is forward_0 read 256R entries on, inverse_R subtracts 256R."""
    base = build_sbox(0)
    for rotation in range(16):
        box = build_sbox(rotation)
        step = 256 * rotation
        assert box.forward == base.forward[step:] + base.forward[:step]
        assert box.inverse == tuple((v - step) % 4096 for v in base.inverse)


def test_sbox_is_immutable():
    with pytest.raises(AttributeError):
        build_sbox(0).forward = ()


def test_rotate_composes():
    box = build_sbox(3)
    assert rotate(rotate(box, 4), 5) == rotate(box, 9)


@pytest.mark.parametrize("count", (-1, -16))
def test_rotate_refuses_a_negative_count(count):
    """No record comes back whose rotation number disagrees with its tables."""
    with pytest.raises(RangeError, match=f"^rotation count must be >= 0, got {count}$"):
        rotate(build_sbox(0), count)


def test_sub_state_all_zero_rotation_eight():
    assert sub_state(build_sbox(8), 0) == 0


def test_sub_state_all_zero_rotation_zero():
    out = sub_state(build_sbox(0), 0)
    assert out == int.from_bytes(bytes.fromhex("008008") * 31, "big")


def test_sub_state_wrong_length():
    for state in (1 << 744, -1):
        with pytest.raises(LengthError):
            sub_state(build_sbox(0), state)
        with pytest.raises(LengthError):
            inv_sub_state(build_sbox(0), state)


def test_sub_state_round_trip_random():
    gen = random.Random(4)
    for _ in range(2000):
        box = build_sbox(gen.randrange(16))
        state = int.from_bytes(gen.randbytes(93), "big")
        assert inv_sub_state(box, sub_state(box, state)) == state


def _per_triple(table, state):
    """The 62 triples of a state looked up one at a time, triple 0 on top."""
    out = 0
    for i in range(62):
        shift = 12 * (61 - i)
        out |= table[(state >> shift) & 0xFFF] << shift
    return out


def test_substitution_matches_per_triple_lookup():
    """Random states, and states set only at triples on 48-bit window edges or in the tail."""
    gen = random.Random(17)
    states = [int.from_bytes(gen.randbytes(93), "big") for _ in range(20)]
    for triples in ((0,), (3, 4), (59,), (60, 61)):
        for value in (0xFFF, gen.randrange(1, 0xFFF)):
            states.append(sum(value << 12 * (61 - i) for i in triples))
    for rotation in range(16):
        box = build_sbox(rotation)
        for state in states:
            assert sub_state(box, state) == _per_triple(box.forward, state)
            assert inv_sub_state(box, state) == _per_triple(box.inverse, state)


def test_dump_sbox_lines():
    box = build_sbox(0)
    lines = dump_sbox(box).strip().splitlines()
    assert len(lines) == 4096
    assert lines[0] == "S[0][0][0] = 008"
    assert "S[a][b][c] = bce" in lines
    for line in random.Random(5).sample(lines, 64):
        head, _, out = line.partition(" = ")
        a, b, c = (int(ch, 16) for ch in (head[2], head[5], head[8]))
        assert out == f"{box.forward[(a << 8) | (b << 4) | c]:03x}"


def test_tables_share_one_set_of_ints():
    tables = [table for rotation in range(16) for table in sbox.build_sbox(rotation)[1:]]
    assert len(tables) == 32
    assert len({id(value) for table in tables for value in table}) <= 4096


def _lane_model(n, rotation):
    """ROADMAP item 2's substitution on n 744-bit states held as one int: 62n lanes of 12 bits.

    K = (8 + R) mod 16 sits in every lane.  No sum carries into the next
    lane: the forward sum is at most 45, and the inverse adds 48 before it
    subtracts at most 30.
    """
    one = int("001" * 62 * n, 16)
    nib, lo8, hi8 = 0xF * one, 0xFF * one, 0xFF0 * one
    k = (sbox.OFFSET + rotation) % sbox.ROTATIONS * one

    def forward(s):
        return ((s << 4) & hi8) | ((((s >> 8) & nib) + (s & nib) + k) & nib)

    def inverse(s):
        return ((((s & nib) + 48 * one - ((s >> 4) & nib) - k) & nib) << 8) | ((s >> 4) & lo8)

    return forward, inverse


def _joined(states):
    """States concatenated into one int, the first on top."""
    return int.from_bytes(b"".join(s.to_bytes(93, "big") for s in states), "big")


def test_lane_model_matches_sub_state():
    """The lane formulas equal sub_state and inv_sub_state for every rotation, one state or 1-8 side by side."""
    gen = random.Random(19)
    for rotation in range(16):
        box = build_sbox(rotation)
        forward, inverse = _lane_model(1, rotation)
        for state in [0, (1 << 744) - 1] + [int.from_bytes(gen.randbytes(93), "big") for _ in range(30)]:
            assert forward(state) == sub_state(box, state)
            assert inverse(state) == inv_sub_state(box, state)
        for n in range(1, 9):
            forward, inverse = _lane_model(n, rotation)
            states = [int.from_bytes(gen.randbytes(93), "big") for _ in range(n)]
            assert forward(_joined(states)) == _joined(sub_state(box, s) for s in states)
            assert inverse(_joined(states)) == _joined(inv_sub_state(box, s) for s in states)

import random

import pytest

from p3dk import sbox
from p3dk.errors import LengthError, RangeError
from p3dk.sbox import (
    build_sbox,
    dump_sbox,
    inv_sub_state,
    invert,
    rotate,
    sub_state,
    substitute,
)


def test_constructor_spot_values():
    assert substitute(build_sbox(0), (0, 0, 0)) == (0, 0, 8)
    assert substitute(build_sbox(8), (0, 0, 0)) == (0, 0, 0)
    assert substitute(build_sbox(0), (0xA, 0xB, 0xC)) == (0xB, 0xC, 0xE)
    assert substitute(build_sbox(0), (0, 0, 8)) == (0, 8, 0)


def test_rotation_out_of_range():
    with pytest.raises(RangeError):
        build_sbox(16)
    with pytest.raises(RangeError):
        build_sbox(-1)


def test_invert_spot_values():
    assert invert(build_sbox(0), (0xB, 0xC, 0xE)) == (0xA, 0xB, 0xC)
    assert invert(build_sbox(8), (0, 0, 0)) == (0, 0, 0)


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
                y1, y2, _ = substitute(box, (a, b, c))
                assert (y1, y2) == (b, c)


def test_rotate_matches_direct_construction():
    base = build_sbox(0)
    assert rotate(base, 2) == build_sbox(2)
    assert rotate(base, 16) == base
    assert rotate(base, 0) == base
    for n in range(17):
        assert rotate(base, n) == build_sbox(n % 16)


def test_sbox_is_immutable():
    with pytest.raises(AttributeError):
        build_sbox(0).forward = ()


def test_rotate_composes():
    box = build_sbox(3)
    assert rotate(rotate(box, 4), 5) == rotate(box, 9)


def test_sub_state_all_zero_rotation_eight():
    state = bytes(93)
    assert sub_state(build_sbox(8), state) == state


def test_sub_state_all_zero_rotation_zero():
    out = sub_state(build_sbox(0), bytes(93))
    assert out == bytes.fromhex("008008") * 31


def test_sub_state_wrong_length():
    with pytest.raises(LengthError):
        sub_state(build_sbox(0), bytes(92))


def test_sub_state_round_trip_random():
    gen = random.Random(4)
    for _ in range(2000):
        box = build_sbox(gen.randrange(16))
        state = gen.randbytes(93)
        assert inv_sub_state(box, sub_state(box, state)) == state


def test_dump_sbox_lines():
    box = build_sbox(0)
    lines = dump_sbox(box).strip().splitlines()
    assert len(lines) == 4096
    assert lines[0] == "S[0][0][0] = 008"
    assert "S[a][b][c] = bce" in lines
    for line in random.Random(5).sample(lines, 64):
        head, _, out = line.partition(" = ")
        a, b, c = (int(ch, 16) for ch in (head[2], head[5], head[8]))
        assert substitute(box, (a, b, c)) == tuple(int(ch, 16) for ch in out)


def test_tables_share_one_set_of_ints():
    tables = [table for rotation in range(16) for table in sbox._tables(rotation)]
    assert len(tables) == 32
    assert len({id(value) for table in tables for value in table}) <= 4096

import random

import pytest

from p3dk.errors import LengthError, RangeError
from p3dk.cipher import RngState, next_below, next_u64, seed_from_bytes


def test_seed_single_zero_byte():
    assert seed_from_bytes(b"\x00").s == 0xAF63BD4C8601B7DF


def test_seed_letter_a_matches_tabulated_value():
    assert seed_from_bytes(b"a").s == 0xAF63DC4C8601EC8C


def test_seed_empty_rejected():
    with pytest.raises(LengthError, match="cannot seed from empty input"):
        seed_from_bytes(b"")


def test_seed_never_zero():
    assert seed_from_bytes(bytes(8)).s != 0


def test_next_u64_from_one():
    state = RngState(1)
    assert next_u64(state) == 0x0000000040822041
    assert next_u64(state) == 0x100041060C011441
    assert next_u64(state) == 0x9B1E842F6E862629
    assert next_u64(state) == 0xF554F503555D8025


def test_next_u64_advances_in_place():
    state = RngState(1)
    first = next_u64(state)
    assert state.s == first
    assert next_u64(state) != first


def test_next_below_from_one():
    assert next_below(RngState(1), 16) == 0x40822041 % 16 == 1


def test_next_below_single_residue():
    assert next_below(RngState(12345), 1) == 0


def test_next_below_zero_rejected():
    with pytest.raises(RangeError):
        next_below(RngState(1), 0)


def test_next_below_stays_in_range():
    gen = random.Random(1)
    state = seed_from_bytes(b"range check")
    for _ in range(2000):
        n = gen.randrange(1, 10_000)
        assert 0 <= next_below(state, n) < n


def test_identical_seeds_give_identical_sequences():
    a = seed_from_bytes(b"determinism")
    b = seed_from_bytes(b"determinism")
    assert [next_u64(a) for _ in range(100)] == [next_u64(b) for _ in range(100)]


def test_state_stays_nonzero():
    state = seed_from_bytes(b"\x01")
    for _ in range(1_000_000):
        assert next_u64(state) != 0


def test_key_schedule_draws_for_repeated_star_key():
    state = seed_from_bytes(bytes([0x2A] * 31))
    assert state.s == 0xFE7C0F160CA9E8ED
    assert next_below(state, 744) == 444
    assert next_below(state, 16) == 12

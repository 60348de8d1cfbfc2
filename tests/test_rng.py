import random

import pytest

from p3dk.errors import LengthError, RangeError
from p3dk.cipher import next_below, seed_from_bytes


def test_seed_single_zero_byte():
    assert seed_from_bytes(b"\x00") == 0xAF63BD4C8601B7DF


def test_seed_letter_a_matches_tabulated_value():
    assert seed_from_bytes(b"a") == 0xAF63DC4C8601EC8C


def test_seed_empty_rejected():
    with pytest.raises(LengthError, match="cannot seed from empty input"):
        seed_from_bytes(b"")


def test_seed_never_zero():
    assert seed_from_bytes(bytes(8)) != 0


def _outputs(state: int, count: int) -> list[int]:
    """The next `count` xorshift64 outputs: next_below modulo 2**64 draws the whole state."""
    out = []
    for _ in range(count):
        value, state = next_below(state, 1 << 64)
        out.append(value)
    return out


def test_xorshift_outputs_from_one():
    assert _outputs(1, 4) == [
        0x0000000040822041, 0x100041060C011441, 0x9B1E842F6E862629, 0xF554F503555D8025,
    ]


def test_next_below_returns_the_advanced_state():
    value, state = next_below(1, 1 << 64)
    assert state == value == 0x0000000040822041
    assert next_below(state, 1 << 64)[1] != state


def test_next_below_from_one():
    assert next_below(1, 16) == (0x40822041 % 16, 0x40822041) == (1, 0x40822041)


def test_next_below_single_residue():
    assert next_below(12345, 1)[0] == 0


def test_next_below_zero_rejected():
    with pytest.raises(RangeError):
        next_below(1, 0)


def test_next_below_stays_in_range():
    gen = random.Random(1)
    state = seed_from_bytes(b"range check")
    for _ in range(2000):
        n = gen.randrange(1, 10_000)
        value, state = next_below(state, n)
        assert 0 <= value < n


def test_identical_seeds_give_identical_sequences():
    a = seed_from_bytes(b"determinism")
    b = seed_from_bytes(b"determinism")
    assert _outputs(a, 100) == _outputs(b, 100)


def test_state_stays_nonzero():
    state = seed_from_bytes(b"\x01")
    for _ in range(1_000_000):
        _, state = next_below(state, 1)
        assert state != 0


def test_key_schedule_draws_for_repeated_star_key():
    state = seed_from_bytes(bytes([0x2A] * 31))
    assert state == 0xFE7C0F160CA9E8ED
    rho, state = next_below(state, 744)
    assert rho == 444
    assert next_below(state, 16)[0] == 12

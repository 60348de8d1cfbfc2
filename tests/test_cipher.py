import collections
import errno
import importlib
import importlib.util
import io
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kat_oracle
import kat_vectors
from p3dk import _twoproc, cipher, cube
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
    assert ek.sbox.rotation == 12
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
        assert ek.sbox.rotation == rotation
        assert ek.round_keys[0] == rotl_bits(int.from_bytes(cube.encode_block(key), "big"), rho)
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
    """Row r moves left by r columns, and back under the inverse."""
    gen = random.Random(8)
    for _ in range(200):
        state = gen.randbytes(93)
        for layer, step in ((shift_rows, 1), (inv_shift_rows, -1)):
            out = _bytes(layer(_int(state)))
            assert out == bytes(state[31 * r + (j + step * r) % 31] for r in range(3) for j in range(31))


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


def test_mix_layers_match_column_formulas():
    """Column j of rows (u, v, w) mixes to (u^v, v^w, u^v^w) and back from (o1, o2, o3)."""
    gen = random.Random(16)
    for _ in range(200):
        state = gen.randbytes(93)
        cols = [(state[j], state[31 + j], state[62 + j]) for j in range(31)]
        mixed = [(u ^ v, v ^ w, u ^ v ^ w) for u, v, w in cols]
        unmixed = [(o2 ^ o3, o1 ^ o2 ^ o3, o1 ^ o3) for o1, o2, o3 in cols]
        for layer, want in ((mix_columns, mixed), (inv_mix_columns, unmixed)):
            out = _bytes(layer(_int(state)))
            assert [(out[j], out[31 + j], out[62 + j]) for j in range(31)] == want


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


@pytest.mark.parametrize(
    "size", (cipher.CHUNK_BYTES - 1, cipher.CHUNK_BYTES + 1, 2 * cipher.CHUNK_BYTES + 100)
)
def test_multi_chunk_stream_matches_oracle(size, monkeypatch):
    """The container of one, two and three chunks is the oracle's, whichever process made each."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    gen = random.Random(size)
    key, data = gen.randbytes(31), gen.randbytes(size)
    box = encrypt_stream(data, key)
    assert box == kat_oracle.encrypt_container(data, key)
    assert decrypt_stream(box, key) == data
    assert len(forks) == (2 if size > cipher.CHUNK_BYTES and _twoproc._may_fork() else 0)


def _flip(box: bytes, *blocks: int) -> bytes:
    """The container with one bit flipped in each of the given blocks."""
    bad = bytearray(box)
    for block in blocks:
        bad[cipher.HEADER_BYTES + block * STATE_BYTES + 50] ^= 0x04
    return bytes(bad)


def _decrypt_error(box: bytes, key: bytes, out=None) -> P3DKError:
    """The error decrypt_stream raises, cut from its traceback and context.

    Their frames would keep a spool leaked on the error path alive past the
    test body, out of reach of the module's ResourceWarning mark.
    """
    try:
        decrypt_stream(box, key, out)
    except P3DKError as error:
        error.__traceback__ = error.__context__ = None
        return error
    pytest.fail("decrypt_stream raised no P3DKError")


def test_chunk_errors_are_raised_in_stream_order(monkeypatch):
    """A bad block in chunk 1 raises as it would in one process; one in chunk 0 wins over it."""
    gen = random.Random(21)
    key, data = gen.randbytes(31), gen.randbytes(2 * cipher.CHUNK_BYTES + 100)
    box = encrypt_stream(data, key)
    in_chunk1, both = _flip(box, 300), _flip(box, 10, 300)
    out = io.BytesIO()
    forked = _decrypt_error(in_chunk1, key, out)
    assert out.getvalue() == data[: cipher.CHUNK_BYTES]
    assert str(_decrypt_error(both, key)).startswith("block 10 (container bytes 944-1036): ")
    monkeypatch.setattr(_twoproc, "_may_fork", lambda: False)
    serial = _decrypt_error(in_chunk1, key)
    assert (type(forked), str(forked)) == (type(serial), str(serial))
    assert str(serial).startswith("block 300 (container bytes 27914-28006): ")


def test_a_wrong_key_fails_at_block_0_before_any_fork(tmp_path, monkeypatch):
    """Bytes, a file or a pipe of three chunks raise the one-process error under a wrong key, unforked."""
    gen = random.Random(29)
    key, wrong = gen.randbytes(31), gen.randbytes(31)
    box = encrypt_stream(gen.randbytes(2 * cipher.CHUNK_BYTES + 100), key)
    path = tmp_path / "box.p3dk"
    path.write_bytes(box)
    monkeypatch.setattr(_twoproc, "_may_fork", lambda: False)
    serial = _decrypt_error(box, wrong)
    assert str(serial).startswith("block 0 (container bytes 14-106): ")
    monkeypatch.setattr(_twoproc, "_may_fork", lambda: True)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked before block 0 was checked"))
    with open(path, "rb") as src:
        for source in (box, src, _PipeEnd(box, most=1000)):
            error = _decrypt_error(source, wrong)
            assert (type(error), str(error)) == (type(serial), str(serial))


@pytest.mark.parametrize("may_fork", (True, False), ids=("fork", "one-process"))
def test_a_multi_chunk_container_past_the_start_of_its_source(may_fork, tmp_path, monkeypatch):
    """Three chunks after junk bytes, in bytes or a file, decrypt and fail as from position 0; the wrong key unforked."""
    monkeypatch.setattr(_twoproc, "_may_fork", lambda: may_fork)
    key, data, box = _three_chunks()
    wrong = bytes([0x15] * 31)
    junk = b"junk\x00" * 7
    path = tmp_path / "box.p3dk"
    path.write_bytes(junk + box)
    serial = _decrypt_error(box, wrong)
    assert str(serial).startswith("block 0 (container bytes 14-106): ")
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    with open(path, "rb") as file:
        for src in (io.BytesIO(junk + box), file):
            src.seek(len(junk))
            assert decrypt_stream(src, key) == data
    assert len(forks) == (2 if may_fork else 0)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked before block 0 was checked"))
    with open(path, "rb") as file:
        for src in (io.BytesIO(junk + box), file):
            src.seek(len(junk))
            error = _decrypt_error(src, wrong)
            assert (type(error), str(error)) == (type(serial), str(serial))


@pytest.fixture(scope="module")
def six_chunks():
    gen = random.Random(27)
    key, data = gen.randbytes(31), gen.randbytes(6 * cipher.CHUNK_BYTES - 100)
    return key, data, encrypt_stream(data, key)


@pytest.mark.parametrize("forked", (True, False), ids=("default", "one-process"))
@pytest.mark.parametrize("k", range(6))
def test_an_error_is_raised_at_its_chunks_turn(six_chunks, k, forked, monkeypatch):
    """A bad chunk k raises after chunks 0..k-1 are written, alone or before bad chunks after it."""
    if not forked:
        monkeypatch.setattr(_twoproc, "_may_fork", lambda: False)
    key, data, box = six_chunks
    bad = [j * cipher.CHUNK_BLOCKS for j in range(k, 6)]
    start = cipher.HEADER_BYTES + bad[0] * STATE_BYTES
    for blocks in (bad[:1], bad):
        out = io.BytesIO()
        error = _decrypt_error(_flip(box, *blocks), key, out)
        assert str(error).startswith(f"block {bad[0]} (container bytes {start}-{start + 92}): ")
        assert out.getvalue() == data[: k * cipher.CHUNK_BYTES]


def _run_stand_ins(nchunks: int, child_delay: float):
    """Run _twoproc.run on stand-in chunks; record reads, writes, read-ahead and the parent's chunks."""
    parent, reads, written, ahead, mine = os.getpid(), [], [], [], []

    def read(i):
        reads.append(i)
        ahead.append(i + 1 - len(written))
        return b"in %d" % i

    def work(i, data):
        if os.getpid() == parent:
            mine.append(i)
        else:
            time.sleep(child_delay)
        return data.replace(b"in", b"out")

    assert _twoproc.run(nchunks, read, work, written.append)
    return reads, written, max(ahead), mine


_needs_fork = pytest.mark.skipif(
    not _twoproc._may_fork(), reason="this process does not fork (one CPU, no fork, or other threads)"
)


@_needs_fork
@pytest.mark.parametrize("child_delay", (0.0, 0.05))
def test_dispatch_contract(child_delay):
    """Reads and writes go in chunk order, at most AHEAD apart; a slow child's excess stays here."""
    reads, written, ahead, mine = _run_stand_ins(12, child_delay)
    assert reads == list(range(12))
    assert written == [b"out %d" % i for i in range(12)]
    assert ahead <= _twoproc.AHEAD
    assert mine == sorted(mine)
    if child_delay:
        assert ahead == _twoproc.AHEAD and len(mine) > 6


@_needs_fork
@pytest.mark.parametrize("nchunks", (2, 12))
def test_dispatch_keeps_the_last_chunk_here(nchunks):
    """The child never takes the stream's last chunk, so a stream of two chunks runs on both processes."""
    _, written, _, mine = _run_stand_ins(nchunks, 0.0)
    assert len(written) == nchunks and mine[-1] == nchunks - 1


@_needs_fork
@pytest.mark.parametrize("child_delay", (0.0, 0.05), ids=("fast", "slow"))
def test_dispatch_hands_out_by_the_rule(child_delay, monkeypatch):
    """The child gets a chunk only while it has fewer than QUEUE jobs, and never the last or the last AHEAD allows.

    Every other chunk is computed here.  Each is recorded as (chunk, chunks
    written, jobs unanswered) when it is handed out, so no check depends on
    how fast either process is.  Streams of 2 and 12 chunks are run.
    """
    parent, unanswered = os.getpid(), [0]
    send, receive = _twoproc._send, _twoproc._receive

    def counting_send(fd, head, data):
        if os.getpid() == parent:
            jobs.append((int.from_bytes(head, "big"), len(written), unanswered[0]))
            unanswered[0] += 1
        send(fd, head, data)

    def counting_receive(src, head_bytes):
        reply = receive(src, head_bytes)
        if os.getpid() == parent:
            unanswered[0] -= 1
        return reply

    def work(i, data):
        if os.getpid() == parent:
            mine.append((i, len(written), unanswered[0]))
        else:
            time.sleep(child_delay)
        return data

    monkeypatch.setattr(_twoproc, "_send", counting_send)
    monkeypatch.setattr(_twoproc, "_receive", counting_receive)
    for nchunks in (2, 12):
        written, jobs, mine = [], [], []
        assert _twoproc.run(nchunks, lambda i: b"%d" % i, work, written.append)
        assert written == [b"%d" % i for i in range(nchunks)]
        assert sorted(i for i, _, _ in jobs + mine) == list(range(nchunks)) and unanswered == [0]
        assert jobs and mine
        for i, nwritten, queued in jobs:
            assert queued < _twoproc.QUEUE and i < nchunks - 1 and i - nwritten < _twoproc.AHEAD - 1
        for i, nwritten, queued in mine:
            assert queued == _twoproc.QUEUE or i == nchunks - 1 or i - nwritten == _twoproc.AHEAD - 1


def test_queued_messages_fit_the_pipes():
    """QUEUE jobs, and QUEUE replies, of the largest chunk fit _PIPE_BYTES, so no _send waits.

    A job is an 8-byte chunk index, a 4-byte length and a chunk's input; a
    reply is a status byte, a 4-byte length and an output or the input back.
    The largest input or output is a chunk of container bytes.
    """
    largest = cipher.CHUNK_BLOCKS * STATE_BYTES
    assert cipher.CHUNK_BYTES < largest
    assert _twoproc.QUEUE * (8 + 4 + largest) <= _twoproc._PIPE_BYTES
    assert _twoproc.QUEUE * (1 + 4 + largest) <= _twoproc._PIPE_BYTES
    assert _twoproc.AHEAD * largest < 120_000


@_needs_fork
def test_pipes_too_small_for_the_queue_leave_one_process(monkeypatch):
    """Where a pipe could fill up, run forks nothing, reads nothing and closes its pipes."""
    monkeypatch.setattr(_twoproc, "_PIPE_BYTES", 1 << 30)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    fds = len(os.listdir("/proc/self/fd"))
    assert not _twoproc.run(3, pytest.fail, pytest.fail, pytest.fail)
    assert len(os.listdir("/proc/self/fd")) == fds


def _refuse(error):
    def call():
        raise error

    return call


@_needs_fork
@pytest.mark.parametrize(
    "name, error",
    [
        ("fork", BlockingIOError(errno.EAGAIN, "fork refused")),
        ("pipe", OSError(errno.EMFILE, "too many open files")),
    ],
    ids=("fork-EAGAIN", "pipe-EMFILE"),
)
def test_a_failed_fork_or_pipe_leaves_one_process(name, error, monkeypatch):
    """With no pipe or no child, run reads nothing and leaks no descriptor; the stream still runs."""
    monkeypatch.setattr(os, name, _refuse(error))
    fds = len(os.listdir("/proc/self/fd"))
    assert not _twoproc.run(3, pytest.fail, pytest.fail, pytest.fail)
    assert len(os.listdir("/proc/self/fd")) == fds
    gen = random.Random(28)
    key, data = gen.randbytes(31), gen.randbytes(2 * cipher.CHUNK_BYTES + 100)
    box = encrypt_stream(data, key)
    assert box == kat_oracle.encrypt_container(data, key)
    assert decrypt_stream(box, key) == data


@_needs_fork
def test_dispatch_raises_a_read_error_at_its_turn():
    """A read that fails while a slow child holds earlier chunks raises once they are written."""
    parent, written = os.getpid(), []

    def read(i):
        if i == 5:
            raise ValueError("cannot read chunk 5")
        return b"%d" % i

    def work(i, data):
        if os.getpid() != parent:
            time.sleep(0.05)
        return data

    with pytest.raises(ValueError, match="^cannot read chunk 5$"):
        _twoproc.run(12, read, work, written.append)
    assert written == [b"%d" % i for i in range(5)]


def test_a_chunk_the_child_fails_on_is_computed_again(monkeypatch):
    """A fault only the child meets is recovered from; a child that dies raises BrokenPipeError."""
    if not _twoproc._may_fork():
        pytest.skip("this process does not fork (one CPU, no fork, or other threads)")
    parent, encrypt, fault = os.getpid(), cipher.encrypt_block, [lambda: int("boom")]

    def encrypt_block(p31, ek):
        return encrypt(p31, ek) if os.getpid() == parent else fault[0]()

    data = random.Random(24).randbytes(3 * cipher.CHUNK_BYTES)
    box = encrypt_stream(data, bytes(31))
    monkeypatch.setattr(cipher, "encrypt_block", encrypt_block)
    assert encrypt_stream(data, bytes(31)) == box
    fault[0] = lambda: os._exit(1)
    with pytest.raises(BrokenPipeError, match="^the worker process ended before a whole message$"):
        encrypt_stream(data, bytes(31))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _FailingWriter(io.BytesIO):
    def write(self, data):
        if self.tell():
            raise OSError("disk full")
        return super().write(data)


def test_no_child_process_is_left_behind():
    """After a success, a failing decrypt and a failing writer, every child has been reaped."""
    key = bytes([0x2A] * 31)
    data = random.Random(22).randbytes(3 * cipher.CHUNK_BYTES)
    box = encrypt_stream(data, key)
    assert decrypt_stream(box, key) == data
    with pytest.raises(IntegrityError):
        decrypt_stream(_flip(box, 300), key)
    with pytest.raises(OSError, match="disk full"):
        encrypt_stream(data, key, _FailingWriter())
    with pytest.raises(OSError, match="disk full"):
        decrypt_stream(box, key, _FailingWriter())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_process_with_threads_does_not_fork(monkeypatch):
    """A fork beside another thread could copy a lock that thread holds, so none is made."""

    def fork():
        raise AssertionError("forked beside another thread")

    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait, args=(60,))
    waiter.start()
    try:
        data = random.Random(25).randbytes(2 * cipher.CHUNK_BYTES)
        assert decrypt_stream(encrypt_stream(data, bytes(31)), bytes(31)) == data
    finally:
        stop.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()


def _run_python(code: str) -> str:
    """The standard output of `code` run by a fresh interpreter that imports p3dk from src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = f"import sys\nsys.path.insert(0, {src!r})\n{code}"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_one_cpu_runs_every_chunk_in_process():
    """Pinned to one CPU, a 3-chunk round trip never forks."""
    code = """
import os, random
from p3dk import decrypt_stream, encrypt_stream
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
def fork():
    raise AssertionError("forked on one CPU")
os.fork = fork
data = random.Random(23).randbytes(3 * 7776)
assert decrypt_stream(encrypt_stream(data, bytes(31)), bytes(31)) == data
print("round trip ok")
"""
    assert _run_python(code) == "round trip ok\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("sigchld", ("ignore", "reap"))
def test_a_caller_that_reaps_its_own_children(sigchld):
    """With SIGCHLD ignored or reaped by the caller's handler, 3 chunks succeed and fail as usual."""
    code = f"""
import io, os, random, signal
from p3dk import _twoproc, decrypt_stream, encrypt_stream
from p3dk.errors import IntegrityError
def reap(signum, frame):
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass
signal.signal(signal.SIGCHLD, signal.SIG_IGN if {sigchld!r} == "ignore" else reap)
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
key, data = bytes(31), random.Random(26).randbytes(3 * 7776)
box = bytearray(encrypt_stream(data, key))
assert decrypt_stream(bytes(box), key) == data
box[14 + 300 * 93 + 50] ^= 4
out = io.BytesIO()
try:
    decrypt_stream(bytes(box), key, out)
    raise AssertionError("the bit flip in chunk 1 was accepted")
except IntegrityError as exc:
    assert str(exc).startswith("block 300 (container bytes 27914-28006): "), exc
assert out.getvalue() == data[:7776]
print(len(forks), _twoproc._may_fork())
"""
    assert _run_python(code) in ("3 True\n", "0 False\n")


def test_stream_reads_from_the_current_position():
    key = bytes([0x2A] * 31)
    src = io.BytesIO(b"skip" + b"payload")
    src.read(4)
    assert encrypt_stream(src, key) == encrypt_stream(b"payload", key)


def test_stream_position_past_the_end_reads_nothing():
    """A file read from past its end is the empty message, as read() would give it."""
    key = bytes([0x2A] * 31)
    empty = encrypt_stream(b"", key)
    src = io.BytesIO(b"abc")
    src.seek(10)
    assert encrypt_stream(src, key) == empty
    out = io.BytesIO()
    assert encrypt_stream(src, key, out) == len(empty)
    assert out.getvalue() == empty
    box = io.BytesIO(encrypt_stream(b"abc", key))
    box.seek(200)
    with pytest.raises(FormatError, match="^container shorter than its header$"):
        decrypt_stream(box, key)


class _PipeEnd(io.RawIOBase):
    """A raw reader that cannot seek, as a pipe is: it gives at most `most` bytes per read."""

    def __init__(self, data: bytes, most: int = 65536):
        self._view, self._at, self._most = memoryview(data), 0, most

    def readable(self):
        return True

    def readinto(self, buf):
        n = min(len(buf), len(self._view) - self._at, self._most)
        buf[:n] = self._view[self._at : self._at + n]
        self._at += n
        return n


def _pipe(data: bytes) -> io.BufferedReader:
    """A buffered reader over a pipe that holds `data`, as open() gives for a FIFO."""
    return io.BufferedReader(_PipeEnd(data))


class _Trickle(_PipeEnd):
    """A raw reader that gives 1 to 7 bytes per readinto, as a pipe fed in small writes can."""

    def readinto(self, buf):
        self._most = 1 + (self._at * 5 + 3) % 7
        return super().readinto(buf)


class _TrickleWriter(io.RawIOBase):
    """A raw writer that takes 1 to 7 bytes per write, as a non-blocking pipe with little room can."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, buf):
        n = min(len(buf), 1 + (len(self.data) * 5 + 3) % 7)
        self.data += buf[:n]
        return n


class _FullWriter(_TrickleWriter):
    """A non-blocking raw writer with room for `room` bytes: after them each write gives None."""

    def __init__(self, room: int):
        super().__init__()
        self.room = room

    def write(self, buf):
        n = min(len(buf), self.room - len(self.data))
        if not n:
            return None
        self.data += buf[:n]
        return n


def _os_pipe(data: bytes) -> io.FileIO:
    """The unbuffered read end of a real pipe, fed `data` 7 bytes per write by a thread."""
    r, w = os.pipe()

    def feed():
        with open(w, "wb", buffering=0) as end:
            for at in range(0, len(data), 7):
                end.write(data[at : at + 7])

    threading.Thread(target=feed, daemon=True).start()
    return open(r, "rb", buffering=0)


@pytest.mark.parametrize("source", (io.BytesIO, _Trickle, _os_pipe), ids=("BytesIO", "1-7", "os.pipe"))
def test_read_up_to_gives_count_bytes_and_fewer_only_at_the_end(source):
    """The stream layer's one short-read loop, which _twoproc's pipes use too."""
    data = random.Random(31).randbytes(500)
    with source(data) as src:
        got = [cipher._read_up_to(src, count) for count in (0, 1, 93, 200, 300, 5, 5)]
    assert [len(part) for part in got] == [0, 1, 93, 200, 206, 0, 0]
    assert b"".join(got) == data


@pytest.mark.parametrize("verb", ("encrypt", "decrypt"))
def test_a_raw_writer_gets_every_byte_or_an_error(verb):
    """Each write to a raw writer that takes 1-7 bytes a call is completed; one that would block raises.

    Both streams are three chunks, so they run on two processes where this one can fork.
    """
    key, data, box = _three_chunks()
    stream, message, expected = {
        "encrypt": (encrypt_stream, data, box), "decrypt": (decrypt_stream, box, data)
    }[verb]
    out = _TrickleWriter()
    assert stream(message, key, out) == len(expected)
    assert out.data == expected
    full = _FullWriter(room=100)
    with pytest.raises(BlockingIOError):
        stream(message, key, full)
    assert full.data == expected[:100]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Expecting:
    """A writer that checks each write against the bytes expected next, and keeps none of them."""

    def __init__(self, expected: bytes):
        self.expected, self.at = expected, 0

    def write(self, data):
        assert data == self.expected[self.at : self.at + len(data)]
        self.at += len(data)
        return len(data)


def test_pipe_decrypt_memory_does_not_grow(monkeypatch):
    """A 2 MB container from a pipe is spooled and decrypted chunk by chunk, allocating far less than its size.

    The block layers are cheap stand-ins (a 93-byte block that carries the
    31 plaintext bytes) so the run takes seconds; reading, unpacking and
    writing are the real code.
    """
    monkeypatch.setattr(cipher, "encrypt_block", lambda p31, ek: p31 * 3)
    monkeypatch.setattr(cipher, "decrypt_block", lambda c93, ek: c93[:31])
    key = bytes([0x2A] * 31)
    data = random.Random(6).randbytes(700_000)
    box = encrypt_stream(data, key)
    # Builds the key's S-box and fills lazy caches; two chunks also import p3dk._twoproc.
    small = data[: cipher.CHUNK_BYTES + 1]
    assert decrypt_stream(_pipe(encrypt_stream(small, key)), key, _Expecting(small)) == len(small)
    pipe, sink = _pipe(box), _Expecting(data)
    tracemalloc.start()
    try:
        assert decrypt_stream(pipe, key, sink) == len(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.at == len(data)
    assert peak < 256 * 1024, f"peak {peak} bytes"


def test_spooling_a_pipe_holds_one_chunk_in_memory():
    """A 2 MB pipe is copied to its spool a chunk at a time, allocating under 64 KB at its peak."""
    data = random.Random(9).randbytes(2 << 20)
    with cipher._open_source(_PipeEnd(b"warm")):  # imports tempfile
        pass
    r, w = os.pipe()

    def feed():
        with open(w, "wb", buffering=0) as end:
            view = memoryview(data)
            while view:
                view = view[end.write(view) :]

    feeder = threading.Thread(target=feed)
    feeder.start()
    with open(r, "rb") as pipe:
        tracemalloc.start()
        try:
            with cipher._open_source(pipe) as (spool, size):
                _, peak = tracemalloc.get_traced_memory()
                copied = spool.read()
        finally:
            tracemalloc.stop()
    feeder.join(timeout=10)
    assert not feeder.is_alive()
    assert (size, copied) == (len(data), data)
    assert peak < 64 * 1024, f"peak {peak} bytes"


def _three_chunks():
    key = bytes([0x2A] * 31)
    data = random.Random(7).randbytes(2 * cipher.CHUNK_BYTES + 100)
    return key, data, encrypt_stream(data, key)


def test_raw_pipe_with_short_reads_round_trips():
    """An unbuffered pipe, whose reads return what has arrived (here 10 bytes at a time), decrypts whole."""
    key, data, box = _three_chunks()
    assert decrypt_stream(_PipeEnd(box, most=10), key) == data
    assert encrypt_stream(_PipeEnd(data, most=10), key) == box


@pytest.mark.parametrize("fill", ("empty", "part"))
@pytest.mark.parametrize("verb", ("encrypt", "decrypt"))
def test_a_source_that_would_block_is_refused(verb, fill, monkeypatch):
    """A non-blocking pipe whose writer is still open raises BlockingIOError, not an end of input.

    The part written, or none, is not taken for the whole message or
    container: nothing is written out, and the spool is closed.
    """
    key = bytes([0x2A] * 31)
    data = random.Random(32).randbytes(5000)
    stream, message, keep = {
        "encrypt": (encrypt_stream, data, 1000),
        "decrypt": (decrypt_stream, encrypt_stream(data, key), 3000),
    }[verb]
    spools, make = [], tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda: spools.append(make()) or spools[-1])
    r, w = os.pipe()
    os.set_blocking(r, False)
    out = io.BytesIO()
    with open(r, "rb", buffering=0) as src, open(w, "wb", buffering=0) as feed:
        if fill == "part":
            assert feed.write(message[:keep]) == keep
        with pytest.raises(BlockingIOError):
            stream(src, key, out)
    assert out.getvalue() == b""
    assert len(spools) == 1 and spools[0].closed


@pytest.mark.parametrize("keep", (cipher.HEADER_BYTES + 1, 30_000, -1))
def test_truncated_pipe_is_a_length_error(keep, monkeypatch):
    """A pipe that ends early, in chunk 0, 1 or 2, raises a file's LengthError before the key is expanded."""
    key, data, box = _three_chunks()
    payload, cut = len(box) - cipher.HEADER_BYTES, len(box[:keep]) - cipher.HEADER_BYTES
    monkeypatch.setattr(cipher, "expand_key_for", lambda master: pytest.fail("key expanded"))
    with pytest.raises(LengthError, match=f"^payload is {cut} bytes, header implies {payload}$"):
        decrypt_stream(_pipe(box[:keep]), key)


def test_pipe_with_a_trailing_byte_is_a_length_error():
    """A byte past the payload raises a file's LengthError before any chunk is written."""
    key, data, box = _three_chunks()
    payload = len(box) - cipher.HEADER_BYTES
    out = io.BytesIO()
    with pytest.raises(LengthError, match=f"^payload is {payload + 1} bytes, header implies {payload}$"):
        decrypt_stream(_pipe(box + b"\x00"), key, out)
    assert out.getvalue() == b""
    with pytest.raises(LengthError, match="^payload is 1 bytes, header implies 0$"):
        decrypt_stream(_pipe(encrypt_stream(b"", key) + b"\x00"), key)


@pytest.mark.parametrize("may_fork", (True, False), ids=("fork", "one-process"))
def test_a_piped_container_equals_the_one_from_bytes(may_fork, monkeypatch):
    """Spooled input gives the container bytes give, on both paths, and a piped round trip gives it back."""
    monkeypatch.setattr(_twoproc, "_may_fork", lambda: may_fork)
    key = bytes([0x2A] * 31)
    data = random.Random(8).randbytes(3 * cipher.CHUNK_BYTES)
    for n in (0, 1, cipher.CHUNK_BYTES - 1, cipher.CHUNK_BYTES, cipher.CHUNK_BYTES + 1, len(data)):
        box, out = encrypt_stream(data[:n], key), io.BytesIO()
        assert encrypt_stream(_pipe(data[:n]), key) == box, n
        assert encrypt_stream(_pipe(data[:n]), key, out) == len(box)
        assert out.getvalue() == box, n
    assert decrypt_stream(_pipe(box), key) == data


class _NoSeekToEnd(io.BytesIO):
    """A file that says it can seek but refuses a seek to its end, as /proc/version does."""

    def seek(self, pos, whence=os.SEEK_SET):
        if whence == os.SEEK_END:
            raise OSError(22, "Invalid argument")
        return super().seek(pos, whence)


class _Understated(io.BytesIO):
    """A file whose end lies `hidden` bytes past where a seek to its end reports it, as /dev/urandom's does."""

    def __init__(self, data: bytes, hidden: int):
        super().__init__(data)
        self.hidden = hidden

    def seek(self, pos, whence=os.SEEK_SET):
        end = super().seek(pos, whence)
        return end - self.hidden if whence == os.SEEK_END else end


def test_a_file_that_cannot_seek_to_its_end_is_read_whole():
    key, data, box = _three_chunks()
    assert encrypt_stream(_NoSeekToEnd(data), key) == box
    assert decrypt_stream(_NoSeekToEnd(box), key) == data
    if os.path.exists("/proc/version"):
        with open("/proc/version", "rb") as src:
            text = src.read()
        with open("/proc/version", "rb") as src:
            assert decrypt_stream(encrypt_stream(src, key), key) == text


def test_a_file_that_runs_past_its_reported_size_is_a_length_error():
    """After the last chunk one more byte is read; any byte there raises LengthError."""
    key, data, box = _three_chunks()
    for hidden in (1, cipher.CHUNK_BYTES, len(data)):
        with pytest.raises(LengthError, match=f"^input runs past the {len(data) - hidden} bytes it reported$"):
            encrypt_stream(_Understated(data, hidden), key)
    for path in ("/proc/self/cmdline", "/dev/urandom"):
        if os.path.exists(path):
            with open(path, "rb") as src, pytest.raises(LengthError, match="^input runs past the 0 bytes it reported$"):
                encrypt_stream(src, key)


def test_bit_length_not_a_whole_number_of_bytes_is_a_format_error():
    key = bytes([0x2A] * 31)
    box = bytearray(encrypt_stream(b"payload", key))
    box[6:14] = (8 * 7 - 3).to_bytes(8, "little")
    with pytest.raises(FormatError, match="^bit length 53 is not a whole number of bytes$"):
        decrypt_stream(bytes(box), key)


@pytest.mark.parametrize("length", (30, 32))
def test_unpad_block_needs_31_bytes(length):
    with pytest.raises(LengthError, match=f"^expected 31 bytes, got {length}$"):
        cipher.unpad_block(bytes(length))


def _perfbench_targets():
    """perfbench/spans.py's TARGETS: (module, attribute, span name) of each call it traces."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_a_block_makes_the_calls_perfbench_traces(monkeypatch):
    """Each traced layer is its own call, made once per block per round, as perfbench's spans assume.

    perfbench derives every per-layer metric from one span per layer call, so
    folding a layer into the round loop would lose its metric.  ROADMAP item 1
    (spans divided by the blocks they cover) may lift this.
    """
    calls = collections.Counter()
    for module_name, attr, span in _perfbench_targets():
        module = importlib.import_module(f"p3dk.{module_name}")

        def counted(*args, _fn=getattr(module, attr), _span=span, **kwargs):
            calls[_span] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    ek = cipher.expand_key_for(bytes([0x2A] * 31))
    assert calls == {
        "cipher.expand_key_for": 1, "rng.seed_from_bytes": 1, "rng.next_below": 2,
        "cipher.rotl_bits": 1, "cube.encode_block": 1, "sbox.build_sbox": 1,
    }
    calls.clear()
    block = cipher.encrypt_block(pad_block(12345, 243), ek)
    assert calls == {
        "cipher.encrypt_block": 1, "cube.encode_block": 1, "sbox.sub_state": 16,
        "cipher.shift_rows": 16, "cipher.mix_columns": 8,
    }
    calls.clear()
    assert cipher.decrypt_block(block, ek) == pad_block(12345, 243)
    assert calls == {
        "cipher.decrypt_block": 1, "cube.decode_block": 1, "sbox.inv_sub_state": 16,
        "cipher.inv_shift_rows": 16, "cipher.inv_mix_columns": 8,
    }


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
    with pytest.raises(KeyFormatError, match="^master key must be 31 bytes, got 30$"):
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
    """Any input, bytes or piped, raises P3DKError or is the canonical container of what it returns."""
    key, box = case
    try:
        plain = decrypt_stream(box, key)
    except P3DKError:
        with pytest.raises(P3DKError):
            decrypt_stream(_pipe(box), key)
        return
    assert decrypt_stream(_pipe(box), key) == plain
    assert encrypt_stream(plain, key) == box


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=31, max_size=31), st.binary(min_size=31, max_size=31))
def test_block_matches_oracle(key, block):
    ek = expand_key_for(key)
    c93 = encrypt_block(block, ek)
    assert c93 == kat_oracle.encrypt_block(block, key)
    assert decrypt_block(c93, ek) == block

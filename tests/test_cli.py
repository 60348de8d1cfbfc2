import os
import random
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p3dk import _twoproc, cipher, cube, sbox
from p3dk.cipher import CHUNK_BLOCKS, CHUNK_BYTES, HEADER_BYTES, STATE_BYTES, encrypt_stream
from p3dk.cli import run
from p3dk.errors import IntegrityError, RangeError

KEY = bytes(range(0, 60, 2)) + b"\x40"


def write_key(tmp_path):
    key_path = tmp_path / "key.bin"
    assert run(["keygen", "--out", str(key_path)]) == 0
    return key_path


def test_keygen_writes_valid_key(tmp_path):
    key_path = write_key(tmp_path)
    data = key_path.read_bytes()
    assert len(data) == 31
    assert data[-1] & 0x1F == 0


def test_encrypt_decrypt_round_trip(tmp_path):
    key_path = write_key(tmp_path)
    plain = tmp_path / "plain.bin"
    plain.write_bytes(bytes(range(256)) * 3)
    boxed = tmp_path / "plain.p3d"
    opened = tmp_path / "opened.bin"
    assert run(["encrypt", "--key", str(key_path), "--in", str(plain), "--out", str(boxed)]) == 0
    assert run(["decrypt", "--key", str(key_path), "--in", str(boxed), "--out", str(opened)]) == 0
    assert opened.read_bytes() == plain.read_bytes()
    assert boxed.read_bytes()[:4] == b"P3DK"


def test_encrypt_refuses_in_place(tmp_path):
    key_path = write_key(tmp_path)
    plain = tmp_path / "data.bin"
    plain.write_bytes(b"do not clobber me")
    code = run(["encrypt", "--key", str(key_path), "--in", str(plain), "--out", str(plain)])
    assert code == 1
    assert plain.read_bytes() == b"do not clobber me"


@pytest.mark.parametrize("verb", ("encrypt", "decrypt"))
def test_crypt_refuses_to_overwrite_the_key(tmp_path, capsys, verb):
    key_path, plain = tmp_path / "key", tmp_path / "plain"
    key_path.write_bytes(KEY)
    plain.write_bytes(encrypt_stream(b"x", KEY) if verb == "decrypt" else b"x")
    assert crypt(verb, key_path, plain, key_path) == 1
    assert "usage error" in capsys.readouterr().err
    assert key_path.read_bytes() == KEY
    assert sorted(p.name for p in tmp_path.iterdir()) == ["key", "plain"]


def test_keygen_refuses_an_existing_file(tmp_path, capsys):
    key_path = tmp_path / "key"
    key_path.write_bytes(KEY)
    assert run(["keygen", "--out", str(key_path)]) == 2
    assert "i/o error" in capsys.readouterr().err
    assert key_path.read_bytes() == KEY


def test_missing_flag_is_usage_error(capsys):
    assert run(["encrypt", "--key", "k"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == 1


def test_missing_input_file_is_io_error(tmp_path, capsys):
    key_path = write_key(tmp_path)
    code = run(
        [
            "encrypt",
            "--key",
            str(key_path),
            "--in",
            str(tmp_path / "absent.bin"),
            "--out",
            str(tmp_path / "out.p3d"),
        ]
    )
    assert code == 2
    assert "i/o error" in capsys.readouterr().err


def test_short_key_file_is_key_error(tmp_path, capsys):
    key_path = tmp_path / "short.key"
    key_path.write_bytes(bytes(7))
    plain = tmp_path / "p.bin"
    plain.write_bytes(b"x")
    code = run(
        ["encrypt", "--key", str(key_path), "--in", str(plain), "--out", str(tmp_path / "o")]
    )
    assert code == 4
    assert "key error" in capsys.readouterr().err


def test_corrupted_magic_is_format_error(tmp_path, capsys):
    key_path = write_key(tmp_path)
    plain = tmp_path / "p.bin"
    plain.write_bytes(b"some content here")
    boxed = tmp_path / "p.p3d"
    run(["encrypt", "--key", str(key_path), "--in", str(plain), "--out", str(boxed)])
    blob = bytearray(boxed.read_bytes())
    blob[:4] = b"XXXX"
    boxed.write_bytes(bytes(blob))
    code = run(["decrypt", "--key", str(key_path), "--in", str(boxed), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "format error" in capsys.readouterr().err


def test_corrupted_payload_is_format_error(tmp_path):
    key_path = tmp_path / "key.bin"
    key_path.write_bytes(bytes([0x11] * 30) + b"\x40")
    plain = tmp_path / "p.bin"
    plain.write_bytes(b"fixed bytes, fixed key, deterministic failure")
    boxed = tmp_path / "p.p3d"
    run(["encrypt", "--key", str(key_path), "--in", str(plain), "--out", str(boxed)])
    blob = bytearray(boxed.read_bytes())
    blob[20] ^= 0x01
    boxed.write_bytes(bytes(blob))
    code = run(["decrypt", "--key", str(key_path), "--in", str(boxed), "--out", str(tmp_path / "o")])
    assert code == 3


def test_bench_subcommand_writes_reports(tmp_path):
    csv_path = tmp_path / "r.csv"
    svg_path = tmp_path / "r.svg"
    code = run(
        [
            "bench",
            "rotations",
            "--max-count",
            "3",
            "--trials",
            "1",
            "--out",
            str(csv_path),
            "--svg",
            str(svg_path),
        ]
    )
    assert code == 0
    assert csv_path.read_text().startswith("# experiment: rotations")
    assert svg_path.read_text().startswith("<svg")


def test_bench_filesize_with_custom_sizes(tmp_path):
    csv_path = tmp_path / "f.csv"
    code = run(["bench", "filesize", "--sizes", "1,2", "--trials", "1", "--out", str(csv_path)])
    assert code == 0
    lines = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "label,value,unit"
    assert len(lines) == 3


def test_bench_sboxgen_rejects_bad_lengths(tmp_path, capsys):
    code = run(["bench", "sboxgen", "--sizes", "7", "--trials", "1", "--out", str(tmp_path / "s.csv")])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_bench_rejects_zero_trials(tmp_path, capsys):
    code = run(["bench", "rotations", "--trials", "0", "--out", str(tmp_path / "r.csv")])
    assert code == 1
    assert "usage error: --trials must be >= 1, got 0" in capsys.readouterr().err


def test_avalanche_subcommand(tmp_path, capsys):
    csv_path = tmp_path / "a.csv"
    assert run(["avalanche", "--trials", "30", "--out", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "mean=" in out
    assert "stdev=" in out
    assert csv_path.exists()


def test_avalanche_needs_two_flips(tmp_path, capsys):
    assert run(["avalanche", "--trials", "1", "--out", str(tmp_path / "a.csv")]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()


def test_dump_cube_output(capsys):
    assert run(["dump-cube"]) == 0
    out = capsys.readouterr().out
    assert "arr[0][0][0] = **" in out
    assert len(out.strip().splitlines()) == 729


def test_dump_sbox_output(capsys):
    assert run(["dump-sbox", "--rotation", "2"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 4096
    assert out.startswith("S[0][0][0] = 00a")


def test_dump_sbox_rotation_out_of_range(capsys):
    assert run(["dump-sbox", "--rotation", "16"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_console_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "p3dk", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "keygen" in proc.stdout
    assert "dump-sbox" in proc.stdout


def test_import_loads_no_unused_modules():
    """`import p3dk, p3dk.cli` leaves the heavy modules encryption does not need unloaded.

    The two-process module stays unloaded through a one-chunk round trip too,
    and a two-chunk round trip loads it.  -S keeps site .pth files from
    adding their own imports to the result.
    """
    heavy = [
        "dataclasses", "inspect", "secrets", "hmac", "hashlib", "statistics", "random",
        "p3dk.bench", "p3dk._twoproc",
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import p3dk, p3dk.cli; "
        f"unused = lambda: [m for m in {heavy!r} if m in sys.modules]; print(unused()); "
        "key, size = bytes(31), p3dk.cipher.CHUNK_BYTES; "
        "trip = lambda n: p3dk.decrypt_stream(p3dk.encrypt_stream(bytes(n), key), key) == bytes(n); "
        "print(trip(size), unused()); print(trip(size + 1), unused())"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True []", "True ['p3dk._twoproc']"]


def crypt(verb, key_path, src, dst):
    return run([verb, "--key", str(key_path), "--in", str(src), "--out", str(dst)])


def check_cli_round_trip(tmp, data):
    """The CLI container equals encrypt_stream's bytes, and decrypts back."""
    key_path, plain, boxed, opened = (tmp / name for name in ("key", "plain", "box", "back"))
    key_path.write_bytes(KEY)
    plain.write_bytes(data)
    assert crypt("encrypt", key_path, plain, boxed) == 0
    assert boxed.read_bytes() == encrypt_stream(data, KEY)
    assert crypt("decrypt", key_path, boxed, opened) == 0
    assert opened.read_bytes() == data
    assert sorted(p.name for p in tmp.iterdir()) == ["back", "box", "key", "plain"]


@pytest.mark.parametrize(
    "size", (0, 1, 242, 243, 244, CHUNK_BYTES - 1, CHUNK_BYTES, CHUNK_BYTES + 1, 2 * CHUNK_BYTES + 5)
)
def test_cli_container_matches_encrypt_stream(tmp_path, size):
    check_cli_round_trip(tmp_path, random.Random(size).randbytes(size))


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=1000))
def test_cli_container_matches_encrypt_stream_property(data):
    with tempfile.TemporaryDirectory() as tmp:
        check_cli_round_trip(Path(tmp), data)


_FLIPPED_BLOCK = {"bitflip": 2 * CHUNK_BLOCKS, "bitflip_chunk1": CHUNK_BLOCKS}


def _break(blob, how):
    """A container made undecryptable, or non-canonical, in its last chunk.

    bitflip: one flipped bit in the first block of the last chunk (of chunk 1,
    which a forked child decrypts, for bitflip_chunk1).
    pad_bits, past_length: the last block re-encrypted with a pad bit, or a
    data bit past the recorded length, set.
    truncated: one byte short.  wrong_key: as is.
    """
    if how in ("bitflip", "bitflip_chunk1"):
        blob = bytearray(blob)
        blob[HEADER_BYTES + _FLIPPED_BLOCK[how] * STATE_BYTES + 50] ^= 0x04
        return bytes(blob)
    if how in ("pad_bits", "past_length"):
        ek = cipher.expand_key_for(KEY)
        last = bytearray(cipher.decrypt_block(blob[-STATE_BYTES:], ek))
        last[-1] ^= 0x01 if how == "pad_bits" else 0x20
        return blob[:-STATE_BYTES] + cipher.encrypt_block(bytes(last), ek)
    return blob[:-1] if how == "truncated" else blob


@pytest.mark.parametrize("existing", (None, b"keep me"))
@pytest.mark.parametrize(
    "how", ("bitflip", "bitflip_chunk1", "pad_bits", "past_length", "truncated", "wrong_key")
)
def test_failed_decrypt_leaves_no_output(tmp_path, how, existing):
    key_path, boxed, opened = tmp_path / "key", tmp_path / "box", tmp_path / "back"
    data = random.Random(3).randbytes(2 * CHUNK_BYTES + 100)  # three chunks
    key_path.write_bytes(KEY)
    boxed.write_bytes(_break(encrypt_stream(data, KEY), how))
    if how == "wrong_key":
        key_path.write_bytes(bytes(30) + b"\x20")
    if existing is not None:
        opened.write_bytes(existing)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert crypt("decrypt", key_path, boxed, opened) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    if existing is not None:
        assert opened.read_bytes() == existing


def test_a_worker_that_dies_is_an_io_error(tmp_path, capsys, monkeypatch):
    """A forked worker that ends mid-stream makes encrypt exit 2 with one line and no files."""
    if not _twoproc._may_fork(2):
        pytest.skip("this process does not fork (one CPU, no fork, or other threads)")
    parent, encrypt = os.getpid(), cipher.encrypt_block

    def encrypt_block(p31, ek):
        return encrypt(p31, ek) if os.getpid() == parent else os._exit(1)

    monkeypatch.setattr(cipher, "encrypt_block", encrypt_block)
    key_path, plain, boxed = tmp_path / "key", tmp_path / "plain", tmp_path / "box"
    key_path.write_bytes(KEY)
    plain.write_bytes(random.Random(3).randbytes(2 * CHUNK_BYTES + 100))  # three chunks
    capsys.readouterr()
    assert crypt("encrypt", key_path, plain, boxed) == 2
    assert capsys.readouterr().err == "i/o error: the worker process ended before a whole message\n"
    assert not boxed.exists()
    assert not list(tmp_path.glob("*.tmp"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("how", ("bitflip", "bitflip_chunk1", "past_length"))
def test_errors_name_the_block_and_its_bytes(tmp_path, capsys, how):
    """A failing block of a 3-chunk container is named, through the library and the CLI."""
    data = random.Random(3).randbytes(2 * CHUNK_BYTES + 100)
    box = _break(encrypt_stream(data, KEY), how)
    last = (len(box) - HEADER_BYTES) // STATE_BYTES - 1
    block = _FLIPPED_BLOCK.get(how, last)
    start = HEADER_BYTES + block * STATE_BYTES
    where = f"block {block} (container bytes {start}-{start + STATE_BYTES - 1}): "
    with pytest.raises(IntegrityError, match="^" + re.escape(where)):
        cipher.decrypt_stream(box, KEY)
    key_path, boxed = tmp_path / "key", tmp_path / "box"
    key_path.write_bytes(KEY)
    boxed.write_bytes(box)
    capsys.readouterr()
    assert crypt("decrypt", key_path, boxed, tmp_path / "back") == 3
    assert f"format error: {where}" in capsys.readouterr().err


def _encrypt_state(encoded, ek):
    """The rounds of encrypt_block over a 93-byte state that is already cube-encoded."""
    box = sbox.build_sbox(ek.sbox_rotation)
    state = int.from_bytes(encoded, "big") ^ ek.round_keys[0]
    for r in range(1, cipher.ROUNDS + 1):
        state = cipher.shift_rows(cipher.sub_state(box, state))
        if r % 2 == 0:
            state = cipher.mix_columns(state)
        state ^= ek.round_keys[r]
    return state.to_bytes(STATE_BYTES, "big")


def test_triple_no_byte_encodes_to_is_rejected(tmp_path, capsys):
    """A one-block container whose decrypted state holds triple 0 = "88u" is refused.

    "88u" has depth offset q = 3 and symbol value 81q + 9x + y = 323, past
    255.  Wrapped modulo 256 it would read as byte 109, whose own triple is
    "74N", so the container would decrypt without being the canonical one.
    """
    message = bytes([109]) + random.Random(5).randbytes(29)
    encoded = cube.encode_block(message + bytes(1))
    assert encoded[:3] == b"74N"
    box = encrypt_stream(message, KEY)[:HEADER_BYTES] + _encrypt_state(
        b"88u" + encoded[3:], cipher.expand_key_for(KEY)
    )
    where = "block 0 (container bytes 14-106): triple 0: "
    with pytest.raises(RangeError, match="^" + re.escape(where)):
        cipher.decrypt_stream(box, KEY)
    key_path, boxed, opened = tmp_path / "key", tmp_path / "box", tmp_path / "back"
    key_path.write_bytes(KEY)
    boxed.write_bytes(box)
    capsys.readouterr()
    assert crypt("decrypt", key_path, boxed, opened) == 3
    assert where in capsys.readouterr().err
    assert not opened.exists()


def test_cli_memory_does_not_grow_with_file_size(tmp_path, monkeypatch):
    """A 2 MB encrypt plus decrypt through the CLI allocates far less than the file.

    The block layers are replaced by cheap stand-ins (a 93-byte block that
    carries the 31 plaintext bytes) so the run takes seconds; reading,
    packing, unpacking, chunk buffers and writing are the real code.
    """
    monkeypatch.setattr(cipher, "encrypt_block", lambda p31, ek: p31 * 3)
    monkeypatch.setattr(cipher, "decrypt_block", lambda c93, ek: c93[:31])
    # Builds the key's S-box and fills lazy caches; two chunks also import p3dk._twoproc.
    check_cli_round_trip(tmp_path, bytes(CHUNK_BYTES + 1))
    key_path, plain, boxed, opened = (tmp_path / name for name in ("key", "plain", "box", "back"))
    plain.write_bytes(random.Random(4).randbytes(2 * 1024 * 1024))
    tracemalloc.start()
    try:
        assert crypt("encrypt", key_path, plain, boxed) == 0
        assert crypt("decrypt", key_path, boxed, opened) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert opened.read_bytes() == plain.read_bytes()
    assert peak < 256 * 1024, f"peak {peak} bytes"


def test_cli_reads_a_pipe(tmp_path):
    key_path, fifo, boxed = tmp_path / "key", tmp_path / "fifo", tmp_path / "box"
    key_path.write_bytes(KEY)
    os.mkfifo(fifo)
    data = random.Random(5).randbytes(CHUNK_BYTES + 10)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    assert crypt("encrypt", key_path, fifo, boxed) == 0
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert boxed.read_bytes() == encrypt_stream(data, KEY)

import os
import random
import re
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_structure
from p3dk import _twoproc, bench, cipher, cube
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


@pytest.mark.parametrize("verb", ["encrypt", "decrypt"])
def test_an_endless_key_file_is_key_error(tmp_path, verb):
    """A key file that never ends is refused after KEY_BYTES + 1 bytes, with no output.

    The child caps its own address space and runs under a timeout, so a read
    without bound fails this test instead of exhausting the machine's memory.
    """
    plain = tmp_path / "p.bin"
    plain.write_bytes(b"x")
    argv = [verb, "--key", "/dev/zero", "--in", str(plain), "--out", str(tmp_path / "o")]
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20)); "
        f"sys.path.insert(0, {str(src)!r}); from p3dk.cli import run; sys.exit(run({argv!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == "key error: master key must be 31 bytes, got more\n"
    assert [p.name for p in tmp_path.iterdir()] == ["p.bin"]


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
    code = run(["bench", "rotations", "--trials", "1", "--out", str(csv_path), "--svg", str(svg_path)])
    assert code == 0
    assert csv_path.read_text().startswith("# experiment: rotations")
    assert svg_path.read_text().startswith("<svg")


@pytest.mark.parametrize("svg", ["missing/x.svg", "adir"])
@pytest.mark.parametrize("before", [None, b"an earlier report\n"], ids=["no-out", "old-out"])
def test_bench_failure_leaves_out_as_it_was(tmp_path, monkeypatch, capsys, svg, before):
    """An --svg that cannot be opened, or cannot be renamed over, changes no file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    monkeypatch.setattr(bench, "BIT_LENGTHS", (3,))
    if before is not None:
        (tmp_path / "ok.csv").write_bytes(before)
    code = run(["bench", "sboxgen", "--trials", "1", "--out", "ok.csv", "--svg", svg])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("i/o error: ")
    assert sorted(os.listdir(tmp_path)) == (["adir"] if before is None else ["adir", "ok.csv"])
    assert os.listdir(tmp_path / "adir") == []
    if before is not None:
        assert (tmp_path / "ok.csv").read_bytes() == before


@pytest.mark.parametrize("verb", ["encrypt", "bench"])
def test_fifo_target_is_refused_and_left_in_place(tmp_path, monkeypatch, capsys, verb):
    """An --out or --svg that names a FIFO exits 2 naming it, before any temp file is made."""
    monkeypatch.chdir(tmp_path)
    os.mkfifo("out.fifo")
    if verb == "encrypt":
        Path("key").write_bytes(KEY)
        Path("plain").write_bytes(b"attack at dawn")
        argv = ["encrypt", "--key", "key", "--in", "plain", "--out", "out.fifo"]
    else:
        monkeypatch.setattr(bench, "BIT_LENGTHS", (3,))
        argv = ["bench", "sboxgen", "--trials", "1", "--out", "s.csv", "--svg", "out.fifo"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "i/o error: out.fifo exists and is not a regular file; refusing to replace it\n"
    assert stat.S_ISFIFO(os.stat("out.fifo").st_mode)
    assert not list(tmp_path.glob("*.tmp"))
    assert not Path("s.csv").exists()


def test_bench_refuses_svg_that_is_out(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench, "bench_rotations", lambda *a, **k: pytest.fail("measured"))
    code = run(["bench", "rotations", "--trials", "1", "--out", "same.out", "--svg", "./same.out"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "usage error: --svg must differ from --out; refusing to write both to one file\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "experiment, flag", [("filesize", "--sizes"), ("sboxgen", "--sizes"), ("rotations", "--max-count")]
)
def test_bench_range_flags_are_usage_errors(tmp_path, monkeypatch, capsys, experiment, flag):
    """Each experiment runs at its figure's fixed points; a flag that chose them is refused."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench, f"bench_{experiment}", lambda *a, **k: pytest.fail("measured"))
    assert run(["bench", experiment, flag, "1", "--trials", "1", "--out", "x.csv"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"usage error: unrecognized arguments: {flag} 1\n"
    assert os.listdir(tmp_path) == []


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


def test_avalanche_unwritable_out_leaves_no_temp_file(tmp_path, capsys):
    """An --out that is a directory fails at the rename; the temp file is removed."""
    out_dir = tmp_path / "a.csv"
    out_dir.mkdir()
    assert run(["avalanche", "--trials", "2", "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert os.listdir(tmp_path) == ["a.csv"]
    assert os.listdir(out_dir) == []


def test_dump_cube_output(capsys):
    assert run(["dump-cube"]) == 0
    out = capsys.readouterr().out
    assert out == cube.dump_cube()
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
    """`import p3dk` loads the five cipher modules, and `p3dk.cli` no heavy module encryption does not need.

    The two-process module stays unloaded through a one-chunk round trip too,
    and a two-chunk round trip loads it.  -S keeps site .pth files from
    adding their own imports to the result.
    """
    heavy = [
        "typing", "dataclasses", "inspect", "secrets", "hmac", "hashlib", "statistics",
        "random", "tempfile", "shutil", "timeit", "p3dk.bench", "p3dk._twoproc",
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import p3dk; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'p3dk')); import p3dk.cli; "
        f"unused = lambda: [m for m in {heavy!r} if m in sys.modules]; print(unused()); "
        "key, size = bytes(31), p3dk.cipher.CHUNK_BYTES; "
        "trip = lambda n: p3dk.decrypt_stream(p3dk.encrypt_stream(bytes(n), key), key) == bytes(n); "
        "print(trip(size), unused()); print(trip(size + 1), unused())"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['p3dk', 'p3dk.cipher', 'p3dk.cube', 'p3dk.errors', 'p3dk.sbox']",
        "[]", "True []", "True ['p3dk._twoproc']",
    ]


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
    if not _twoproc._may_fork():
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


def test_triple_no_byte_encodes_to_is_rejected(tmp_path, capsys):
    """A one-block container whose decrypted state holds triple 0 = "88u" is refused.

    "88u" has depth offset q = 3 and symbol value 81q + 9x + y = 323, past
    255.  Wrapped modulo 256 it would read as byte 109, whose own triple is
    "74N", so the container would decrypt without being the canonical one.
    """
    message = bytes([109]) + random.Random(5).randbytes(29)
    encoded = cube.encode_block(message + bytes(1))
    assert encoded[:3] == b"74N"
    state = int.from_bytes(b"88u" + encoded[3:], "big")
    box = encrypt_stream(message, KEY)[:HEADER_BYTES] + test_structure._rounds(
        state, cipher.expand_key_for(KEY)
    ).to_bytes(STATE_BYTES, "big")
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


def test_cli_reads_a_non_blocking_stdin_whole(tmp_path):
    """`--in /dev/stdin` opens the pipe anew, blocking, so a non-blocking stdin fed in two writes is read whole.

    O_NONBLOCK belongs to the open file description the child shares, so it
    is set here before the child starts; a preexec_fn is unsafe beside other
    tests' threads.
    """
    _existing("/dev/stdin")
    key_path, piped = tmp_path / "key", tmp_path / "piped"
    key_path.write_bytes(KEY)
    data = random.Random(11).randbytes(40_000)
    argv = ["encrypt", "--key", str(key_path), "--in", "/dev/stdin", "--out", str(piped)]
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        f"from p3dk.cli import run; sys.exit(run({argv!r}))"
    )
    r, w = os.pipe()
    os.set_blocking(r, False)
    with open(w, "wb", buffering=0) as feed:
        try:
            proc = subprocess.Popen(
                [sys.executable, "-S", "-c", code], stdin=r, stderr=subprocess.PIPE, text=True
            )
        finally:
            os.close(r)
        feed.write(data[:20_000])
        time.sleep(0.2)
        feed.write(data[20_000:])
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()  # a no-op on a child that has exited
        proc.wait()
    assert proc.returncode == 0, err
    assert piped.read_bytes() == encrypt_stream(data, KEY)


def test_piped_encryption_memory_does_not_grow(tmp_path, monkeypatch):
    """2 MB from a FIFO is spooled and encrypted by the library and by the CLI, allocating far less than its size.

    The block layer is a cheap stand-in (a 93-byte block that carries the 31
    plaintext bytes) so the run takes seconds; reading, spooling, packing and
    writing are the real code.
    """
    monkeypatch.setattr(cipher, "encrypt_block", lambda p31, ek: p31 * 3)
    key_path, fifo, boxed = tmp_path / "key", tmp_path / "fifo", tmp_path / "box"
    key_path.write_bytes(KEY)
    os.mkfifo(fifo)

    def library():
        with open(fifo, "rb") as src, open(boxed, "wb") as out:
            encrypt_stream(src, KEY, out)

    def cli():
        assert crypt("encrypt", key_path, fifo, boxed) == 0

    def peak_while_piping(data, encrypt) -> int:
        """The tracemalloc peak of encrypt() while a thread writes data into the FIFO."""
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        tracemalloc.start()
        try:
            encrypt()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert boxed.read_bytes() == encrypt_stream(data, KEY)
        return peak

    data = random.Random(10).randbytes(2 * 1024 * 1024)
    # Builds the key's S-box and fills lazy caches; two chunks also import
    # p3dk._twoproc, and the spool tempfile and shutil.
    for encrypt in (library, cli):
        peak_while_piping(data[: CHUNK_BYTES + 1], encrypt)
    peaks = [peak_while_piping(data, encrypt) for encrypt in (library, cli)]
    assert max(peaks) < 256 * 1024, f"peaks {peaks} bytes (library, CLI)"


@pytest.mark.parametrize("how", ("whole", "truncated", "trailing"))
def test_cli_decrypts_from_a_pipe(tmp_path, capsys, how):
    """A 3-chunk container from a FIFO decrypts; cut short or with a byte past its payload, it exits 3 and leaves no file."""
    key_path, fifo, opened = tmp_path / "key", tmp_path / "fifo", tmp_path / "back"
    key_path.write_bytes(KEY)
    os.mkfifo(fifo)
    data = random.Random(3).randbytes(2 * CHUNK_BYTES + 100)
    box = encrypt_stream(data, KEY)
    box = {"whole": box, "truncated": box[:30_000], "trailing": box + b"\x00"}[how]
    writer = threading.Thread(target=fifo.write_bytes, args=(box,), daemon=True)
    writer.start()
    capsys.readouterr()
    code = crypt("decrypt", key_path, fifo, opened)
    writer.join(timeout=10)
    assert not writer.is_alive()
    err = capsys.readouterr().err
    if how == "whole":
        assert code == 0
        assert opened.read_bytes() == data
        return
    assert code == 3
    assert err == {
        "truncated": "format error: payload is 29986 bytes, header implies 47988\n",
        "trailing": "format error: payload is 47989 bytes, header implies 47988\n",
    }[how]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "key"]


def _existing(path: str) -> str:
    if not os.path.exists(path):
        pytest.skip(f"{path} does not exist on this platform")
    return path


def test_a_file_that_cannot_seek_to_its_end_round_trips(tmp_path):
    """/proc/version says it can seek but refuses a seek to its end, so it is spooled as a pipe is."""
    path = _existing("/proc/version")
    key_path, boxed, opened = tmp_path / "key", tmp_path / "box", tmp_path / "back"
    key_path.write_bytes(KEY)
    assert crypt("encrypt", key_path, path, boxed) == 0
    assert crypt("decrypt", key_path, boxed, opened) == 0
    assert opened.read_bytes() == Path(path).read_bytes()


@pytest.mark.parametrize("path", ("/proc/self/cmdline", "/dev/urandom"))
def test_a_file_that_runs_past_its_size_exits_3_and_leaves_no_file(tmp_path, capsys, path):
    """Both report a size of 0 and then give bytes: encrypt refuses them rather than write an empty container."""
    _existing(path)
    key_path, boxed = tmp_path / "key", tmp_path / "box"
    key_path.write_bytes(KEY)
    capsys.readouterr()
    assert crypt("encrypt", key_path, path, boxed) == 3
    assert capsys.readouterr().err == "format error: input runs past the 0 bytes it reported\n"
    assert os.listdir(tmp_path) == ["key"]


def test_bit_length_not_a_whole_number_of_bytes_exits_3(tmp_path, capsys):
    key_path, boxed = tmp_path / "key", tmp_path / "box"
    key_path.write_bytes(KEY)
    box = bytearray(encrypt_stream(b"payload", KEY))
    box[6:14] = (8 * 7 - 3).to_bytes(8, "little")
    boxed.write_bytes(box)
    capsys.readouterr()
    assert crypt("decrypt", key_path, boxed, tmp_path / "back") == 3
    assert capsys.readouterr().err == "format error: bit length 53 is not a whole number of bytes\n"
    assert sorted(os.listdir(tmp_path)) == ["box", "key"]


def test_bench_sboxgen_without_sizes_uses_the_default_bit_lengths(tmp_path):
    csv_path = tmp_path / "s.csv"
    assert run(["bench", "sboxgen", "--trials", "1", "--out", str(csv_path)]) == 0
    lines = [line for line in csv_path.read_text().splitlines() if not line.startswith("#")]
    assert [line.split(",")[0] for line in lines[1:]] == [str(n) for n in bench.BIT_LENGTHS]


def test_bench_without_trials_uses_the_default(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "BIT_LENGTHS", (3,))
    csv_path = tmp_path / "s.csv"
    assert run(["bench", "sboxgen", "--out", str(csv_path)]) == 0
    assert "# trials: 5\n" in csv_path.read_text()

"""Acceptance suite: ten gates, one test and one printed verdict line each.

Timing gates assert shape only (monotonicity, linear fit); absolute times
are hardware-bound.  Criteria 01 and 03 also carry a 1 s budget, measured
in this process's CPU time so that other load on the machine does not
count.  Run with `pytest -s tests/test_acceptance.py` to see every verdict
line including the measured values.
"""

import random
import time

import pytest

import kat_oracle
import kat_vectors
from p3dk import bench, cipher, cli, cube, sbox
from p3dk.errors import IntegrityError, RangeError


def _verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_codec_bijectivity():
    start = time.process_time()
    failures = 0
    cases = 0
    for shift in range(256):
        block = bytes((shift + p) % 256 for p in range(31))
        decoded = cube.decode_block(cube.encode_block(block))
        failures += sum(got != want for got, want in zip(decoded, block))
        cases += len(block)
    elapsed = time.process_time() - start
    ok = failures == 0 and elapsed < 1.0
    assert _verdict(
        1,
        "codec bijectivity",
        ok,
        f"{cases} cases, {failures} failures, {elapsed:.3f}s CPU < 1s",
    )


def test_criterion_02_cube_dump_conformance():
    text = cube.dump_cube()
    wanted = {
        "arr[0][0][0] = **",
        "arr[0][1][0] = +3",
        "arr[0][3][0] = -E",
        "arr[8][0][7] = r1",
        "arr[8][8][8] = zz",
    }
    lines = set(text.splitlines())
    missing = wanted - lines
    ok = not missing
    assert _verdict(
        2,
        "cube dump conformance",
        ok,
        f"{len(wanted) - len(missing)}/{len(wanted)} reference cells matched",
    )


def test_criterion_03_sbox_permutation():
    start = time.process_time()
    identity = list(range(4096))
    checks = 0
    ok = True
    for rotation in range(16):
        box = sbox.build_sbox(rotation)
        ok = ok and sorted(box.forward) == identity
        ok = ok and [box.inverse[box.forward[i]] for i in identity] == identity
        checks += 4096
    base = sbox.build_sbox(0)
    for n in range(33):
        ok = ok and sbox.rotate(base, n) == sbox.build_sbox(n % 16)
    elapsed = time.process_time() - start
    ok = ok and elapsed < 1.0
    assert _verdict(
        3,
        "sbox permutation",
        ok,
        f"{checks} inverse checks, rotations 0..32, {elapsed:.3f}s CPU < 1s",
    )


def test_criterion_04_stream_round_trip():
    gen = random.Random(0xACC4)
    sizes = [0, 1, 30, 31, 243, 486, 243 * 8]
    sizes += [gen.randrange(0, 2048) for _ in range(1000 - len(sizes) - 1)]
    sizes.append(512 * 1024)
    failures = 0
    for size in sizes:
        key = gen.randbytes(31)
        data = gen.randbytes(size)
        if cipher.decrypt_stream(cipher.encrypt_stream(data, key), key) != data:
            failures += 1
    ok = failures == 0 and len(sizes) >= 1000
    assert _verdict(
        4,
        "stream round trip",
        ok,
        f"{len(sizes)} cases up to 512 KB, {failures} failures",
    )


def test_criterion_05_layer_inverses():
    # Column i of the three rows holds the high, middle and low byte of i,
    # for every i below 2^24, zero-padded to whole 31-byte rows.
    tail_pad = (-(1 << 24)) % 31
    u, v, w = (
        row + bytes(tail_pad)
        for row in (
            b"".join(bytes([x]) * 65536 for x in range(256)),
            b"".join(bytes([x]) * 256 for x in range(256)) * 256,
            bytes(range(256)) * 65536,
        )
    )
    mix_failures = 0
    for i in range(0, len(u), 31):
        state = int.from_bytes(u[i : i + 31] + v[i : i + 31] + w[i : i + 31], "big")
        if cipher.inv_mix_columns(cipher.mix_columns(state)) != state:
            mix_failures += 1
    gen = random.Random(0xACC5)
    other_failures = 0
    for _ in range(10_000):
        state = int.from_bytes(gen.randbytes(93), "big")
        if cipher.inv_shift_rows(cipher.shift_rows(state)) != state:
            other_failures += 1
        box = sbox.build_sbox(gen.randrange(16))
        if sbox.inv_sub_state(box, sbox.sub_state(box, state)) != state:
            other_failures += 1
    ok = mix_failures == 0 and other_failures == 0
    assert _verdict(
        5,
        "layer inverses",
        ok,
        f"2^24 columns, {mix_failures} mix failures; "
        f"10^4 states, {other_failures} shift/sub failures",
    )


def test_criterion_06_known_answer_stability():
    ek = cipher.expand_key_for(kat_vectors.KAT1_KEY)
    got1 = cipher.encrypt_block(kat_vectors.KAT1_PLAINTEXT, ek)
    got2 = cipher.encrypt_stream(kat_vectors.KAT2_MESSAGE, kat_vectors.KAT2_KEY)
    oracle1 = kat_oracle.encrypt_block(kat_vectors.KAT1_PLAINTEXT, kat_vectors.KAT1_KEY)
    oracle2 = kat_oracle.encrypt_container(kat_vectors.KAT2_MESSAGE, kat_vectors.KAT2_KEY)
    ok = (
        got1 == kat_vectors.KAT1_CIPHERTEXT
        and got2 == kat_vectors.KAT2_CONTAINER
        and oracle1 == kat_vectors.KAT1_CIPHERTEXT
        and oracle2 == kat_vectors.KAT2_CONTAINER
        and cipher.decrypt_block(got1, ek) == kat_vectors.KAT1_PLAINTEXT
        and cipher.decrypt_stream(got2, kat_vectors.KAT2_KEY) == kat_vectors.KAT2_MESSAGE
    )
    assert _verdict(
        6,
        "known-answer stability",
        ok,
        "2 frozen vectors, package and oracle byte-identical",
    )


def test_criterion_07_diffusion_gate():
    report = bench.avalanche(1000)
    stats = dict(report.rows)
    mean = stats["mean_flip_fraction"]
    stdev = stats["stdev_flip_fraction"]
    ok = int(report.metadata["trials"]) >= 1000 and mean >= 0.30
    assert _verdict(
        7,
        "diffusion gate",
        ok,
        f"mean={mean:.6f} (gate >= 0.30), stdev={stdev:.6f}, "
        f"{report.metadata['trials']} flips",
    )


def test_criterion_08_rotation_timing_shape():
    report = bench.bench_rotations(trials=5)
    values = [value for _, value in report.rows]
    non_decreasing = all(a <= b for a, b in zip(values, values[1:]))
    r_squared = float(report.metadata["r_squared"])
    ok = non_decreasing and r_squared >= 0.9
    assert _verdict(
        8,
        "rotation timing shape",
        ok,
        f"17 rows, non-decreasing={non_decreasing}, "
        f"r_squared={r_squared:.4f} (gate >= 0.9), "
        f"slope={report.metadata['slope_ms_per_rotation']} ms/rotation",
    )


def test_criterion_09_filesize_and_setup_timing_shape():
    size_report = bench.bench_filesize(trials=5)
    size_values = [value for _, value in size_report.rows]
    sizes_monotonic = all(a <= b for a, b in zip(size_values, size_values[1:]))

    setup_report = bench.bench_sboxgen(trials=5)
    setup_values = [value for _, value in setup_report.rows]
    setup_monotonic = all(a <= b for a, b in zip(setup_values, setup_values[1:]))

    artifacts_ok = True
    for report in (size_report, setup_report):
        lines = bench.render_csv(report).splitlines()
        data = lines[lines.index("label,value,unit") + 1 :]
        parsed_rows = [(label, float(value)) for label, value, _ in (line.split(",") for line in data)]
        artifacts_ok = artifacts_ok and parsed_rows == report.rows
        artifacts_ok = artifacts_ok and bench.render_svg(report).startswith("<svg")

    ok = sizes_monotonic and setup_monotonic and artifacts_ok
    size_series = ", ".join(f"{l}KB={v:.2f}s" for l, v in size_report.rows)
    setup_series = ", ".join(f"{l}b={v:.4f}ms" for l, v in setup_report.rows)
    assert _verdict(
        9,
        "filesize/setup timing shape",
        ok,
        f"filesize [{size_series}] monotonic={sizes_monotonic}; "
        f"sboxgen [{setup_series}] monotonic={setup_monotonic}; "
        f"artifacts_ok={artifacts_ok}",
    )


def test_criterion_10_error_paths(tmp_path, capsys):
    checks = []

    encoded = bytearray(cube.encode_block(bytes(range(31))))
    encoded[3 * 4 + 1] = ord("0") if encoded[3 * 4 + 1] != ord("0") else ord("1")
    try:
        cube.decode_block(bytes(encoded))
        checks.append(("col_digit -> IntegrityError", False))
    except IntegrityError:
        checks.append(("col_digit -> IntegrityError", True))
    except Exception:
        checks.append(("col_digit -> IntegrityError", False))

    encoded = bytearray(cube.encode_block(bytes(31)))
    encoded[0:3] = b"00/"
    try:
        cube.decode_block(bytes(encoded))
        checks.append(("depth q>3 -> RangeError", False))
    except RangeError as exc:
        checks.append(("depth q>3 -> RangeError", str(exc).startswith("triple 0:")))
    except Exception:
        checks.append(("depth q>3 -> RangeError", False))

    key_path = tmp_path / "key.bin"
    key_path.write_bytes(bytes([0x11] * 30) + b"\x40")
    plain = tmp_path / "plain.bin"
    plain.write_bytes(b"error-path fixture")
    boxed = tmp_path / "plain.p3d"
    assert cli.run(
        ["encrypt", "--key", str(key_path), "--in", str(plain), "--out", str(boxed)]
    ) == 0

    blob = bytearray(boxed.read_bytes())
    blob[20] ^= 0x01
    corrupt = tmp_path / "corrupt.p3d"
    corrupt.write_bytes(bytes(blob))
    code = cli.run(
        ["decrypt", "--key", str(key_path), "--in", str(corrupt), "--out", str(tmp_path / "o1")]
    )
    checks.append(("corrupted block via CLI -> exit 3", code == 3))

    short_key = tmp_path / "short.key"
    short_key.write_bytes(bytes(5))
    code = cli.run(
        ["encrypt", "--key", str(short_key), "--in", str(plain), "--out", str(tmp_path / "o2")]
    )
    checks.append(("short key file -> exit 4", code == 4))

    blob = bytearray(boxed.read_bytes())
    blob[:4] = b"WXYZ"
    bad_magic = tmp_path / "magic.p3d"
    bad_magic.write_bytes(bytes(blob))
    code = cli.run(
        ["decrypt", "--key", str(key_path), "--in", str(bad_magic), "--out", str(tmp_path / "o3")]
    )
    checks.append(("wrong magic -> exit 3", code == 3))

    capsys.readouterr()
    ok = all(passed for _, passed in checks)
    detail = "; ".join(f"{name}: {'ok' if passed else 'FAILED'}" for name, passed in checks)
    assert _verdict(10, "error paths", ok, detail)

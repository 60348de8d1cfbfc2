"""Benchmark harness: timing sweeps, a diffusion metric, CSV and SVG writers.

Three timing experiments (encryption time vs file size, table-rotation time
vs rotation count, per-message setup time vs input bit length) plus an
avalanche statistic.  All timings use the monotonic clock and time the
library as it runs: a multi-chunk `encrypt_stream` in `bench_filesize` runs
on two processes where p3dk._twoproc forks a child.  They discard warmup
passes and report the median over trials; medians resist scheduler noise
better than means.  Absolute values are hardware-bound, so tests assert
shapes (monotonicity, linear fit), never milliseconds.  Reference timings
from older hardware travel as `ref_*` metadata comments in the CSV, clearly
separated from measured rows.
"""

import contextlib
import gc
import random
import statistics
import time

from . import cube
from .cipher import (
    BLOCK_BITS,
    KEY_BYTES,
    STATE_BITS,
    encrypt_block,
    encrypt_stream,
    expand_key_for,
    pad_block,
)
from .errors import UsageError
from .rng import next_below, seed_from_bytes
from .sbox import ROTATIONS, build_sbox, rotate

DEFAULT_SIZES_KB = (20, 35, 155, 333, 512)
DEFAULT_BIT_LENGTHS = (3, 9, 27, 81, 243)
DEFAULT_TRIALS = 5
CONTENT_SEED = 0x9D3B

REF_FILESIZE_S = {20: 28, 35: 58, 155: 261, 333: 468, 512: 501}
REF_ROTATIONS_MS = {n: round(0.003 * n, 3) for n in range(17)}
REF_SBOXGEN_MS = {3: 0.0003, 9: 0.0057, 81: 0.0285, 243: 0.057}
FILESIZE_KEY = bytes([0x5A] * (KEY_BYTES - 1) + [0x40])
WARMUP = 1  # untimed calls of each timed fn before its first trial
# Timed passes per sample, and how many of the fastest a sample keeps, for
# the rotation and set-up sweeps (see _side_by_side_medians).  Neighbouring
# rows differ by one ~1 ms unit rotation, or by about 1 us of set-up, so a
# sample must be long enough (~25 ms for one rotation or a 3-bit set-up)
# that scheduler jitter averages out instead of reordering neighbours.
ROTATION_PASSES = 24
ROTATION_KEPT = 18
SBOXGEN_BATCH = 1024  # set-up calls per timed pass: one call takes only ~5 us
SBOXGEN_PASSES = 8
SBOXGEN_KEPT = 6


class BenchReport:
    """One experiment's rows plus the context needed to rerun it."""

    __slots__ = ("experiment", "unit", "rows", "metadata")

    def __init__(self, experiment: str, unit: str, rows: list[tuple[str, float]], metadata: dict):
        self.experiment = experiment
        self.unit = unit
        self.rows = rows
        self.metadata = metadata


def _now_utc() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@contextlib.contextmanager
def _gc_paused():
    """Keep the cycle collector out of timed sections."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _timed_sample(fn, inner: int) -> float:
    t0 = time.perf_counter()
    for _ in range(inner):
        fn()
    return (time.perf_counter() - t0) / inner


def _side_by_side_medians(fns, trials: int, batch: int, passes: int, kept: int):
    """Median seconds per call of each of fns, all timed side by side.

    A trial makes `passes` passes over fns, in alternating directions, and
    times `batch` calls of each fn per pass.  A fn's sample for the trial is
    the mean of its `kept` fastest passes: interference only ever adds time,
    so the slowest passes are dropped as spikes.  Because every pass visits
    every fn, a machine that speeds up or slows down mid-trial shifts all of
    them alike, where timing one fn after another would move only the fns
    timed before the change.
    """
    if trials < 1:
        raise UsageError(f"--trials must be >= 1, got {trials}")
    samples = [[] for _ in fns]
    with _gc_paused():
        for _ in range(WARMUP):
            for fn in fns:
                fn()
        for _ in range(trials):
            times = [[] for _ in fns]
            for p in range(passes):
                for i in range(len(fns)) if p % 2 == 0 else reversed(range(len(fns))):
                    times[i].append(_timed_sample(fns[i], batch))
            for sample, t in zip(samples, times):
                sample.append(statistics.fmean(sorted(t)[:kept]))
    return [statistics.median(sample) for sample in samples]


def _report(experiment: str, unit: str, rows, trials: int, **extra) -> BenchReport:
    """A report whose metadata is timestamp, trials and warmup, then extra."""
    metadata = {"timestamp": _now_utc(), "trials": str(trials), "warmup": str(WARMUP)}
    metadata.update((key, str(value)) for key, value in extra.items())
    return BenchReport(experiment, unit, rows, metadata)


def bench_filesize(sizes_kb=DEFAULT_SIZES_KB, trials: int = DEFAULT_TRIALS) -> BenchReport:
    """Median encrypt_stream wall time for each synthetic file size.

    All sizes are timed side by side, one call each per trial.
    """
    sizes = sorted(sizes_kb)
    if not sizes:
        raise UsageError("size list must not be empty")
    if any(s <= 0 for s in sizes):
        raise UsageError(f"sizes must be positive, got {sizes}")
    gen = random.Random(CONTENT_SEED)
    files = [gen.randbytes(size * 1024) for size in sizes]
    medians = _side_by_side_medians(
        [lambda data=data: encrypt_stream(data, FILESIZE_KEY) for data in files],
        trials, batch=1, passes=1, kept=1,
    )
    rows = [(str(s), seconds) for s, seconds in zip(sizes, medians)]
    return _report(
        "filesize", "s", rows, trials,
        iterations=1,
        sizes_kb=",".join(str(s) for s in sizes),
        content_seed=CONTENT_SEED,
        ref_hardware_s=_ref_series(REF_FILESIZE_S),
    )


def bench_rotations(max_count: int = 16, trials: int = DEFAULT_TRIALS) -> BenchReport:
    """Median rotate() time for 0..max_count unit table rotations.

    All counts are timed side by side, one call each per pass, so slow clock
    or thermal drift lands on every count equally instead of skewing the
    fitted line.
    """
    if not 0 <= max_count <= 16:
        raise UsageError(f"max_count must be in [0, 16], got {max_count}")
    box = build_sbox(0)
    counts = range(max_count + 1)
    medians = _side_by_side_medians(
        [lambda n=n: rotate(box, n) for n in counts],
        trials, 1, ROTATION_PASSES, ROTATION_KEPT,
    )
    rows = [(str(n), seconds * 1e3) for n, seconds in zip(counts, medians)]
    report = _report(
        "rotations", "ms", rows, trials,
        iterations=ROTATION_PASSES,
        iterations_kept=ROTATION_KEPT,
        ref_hardware_ms=_ref_series(REF_ROTATIONS_MS),
    )
    if len(rows) >= 2:
        xs = [float(label) for label, _ in rows]
        ys = [value for _, value in rows]
        fit = statistics.linear_regression(xs, ys)
        r = statistics.correlation(xs, ys)
        report.metadata["slope_ms_per_rotation"] = f"{fit.slope:.6f}"
        report.metadata["r_squared"] = f"{r * r:.6f}"
    return report


def _setup_message(length_bits: int, payload: int) -> None:
    """The per-message setup path: pad, cube-encode, seed, fetch S-box."""
    nbytes = (length_bits + 7) // 8
    data = (payload << (8 * nbytes - length_bits)).to_bytes(nbytes, "big")
    rng = seed_from_bytes(cube.encode_bytes(data))
    build_sbox(next_below(rng, ROTATIONS))


def bench_sboxgen(bit_lengths=DEFAULT_BIT_LENGTHS, trials: int = DEFAULT_TRIALS) -> BenchReport:
    """Median per-message setup time for each input bit length.

    Lengths are powers of three up to 243.  The sixteen substitution tables
    are shared process-wide, so after the prewarm pass this measures the
    marginal per-message work, which grows with the input length.  All
    lengths are timed side by side, SBOXGEN_BATCH calls each per pass.
    """
    lengths = sorted(bit_lengths)
    if not lengths:
        raise UsageError("bit length list must not be empty")
    if any(n not in DEFAULT_BIT_LENGTHS for n in lengths):
        raise UsageError(f"bit lengths must be from {DEFAULT_BIT_LENGTHS}")
    for r in range(ROTATIONS):
        build_sbox(r)
    gen = random.Random(CONTENT_SEED)
    payloads = [gen.getrandbits(n) for n in lengths]
    medians = _side_by_side_medians(
        [lambda n=n, p=p: _setup_message(n, p) for n, p in zip(lengths, payloads)],
        trials, SBOXGEN_BATCH, SBOXGEN_PASSES, SBOXGEN_KEPT,
    )
    rows = [(str(n), seconds * 1e3) for n, seconds in zip(lengths, medians)]
    return _report(
        "sboxgen", "ms", rows, trials,
        iterations=SBOXGEN_BATCH * SBOXGEN_PASSES,
        iterations_kept=SBOXGEN_BATCH * SBOXGEN_KEPT,
        ref_hardware_ms=_ref_series(REF_SBOXGEN_MS),
    )


def avalanche(key_count: int = 10, flips_per_key: int = 100) -> BenchReport:
    """Fraction of ciphertext bits flipped by single plaintext-bit flips.

    For key_count random keys and flips_per_key random (plaintext, bit)
    pairs each, encrypts the block before and after the flip and reports
    the mean and standard deviation of the flipped-bit fraction over the
    744 ciphertext bits.  The draws come from CONTENT_SEED, so runs repeat.
    """
    if key_count < 1 or flips_per_key < 1 or key_count * flips_per_key < 2:
        raise UsageError("key_count and flips_per_key must be >= 1, with at least 2 flips")
    gen = random.Random(CONTENT_SEED)
    fractions = []
    for _ in range(key_count):
        kb = bytearray(gen.randbytes(KEY_BYTES))
        kb[-1] &= 0xE0
        ek = expand_key_for(bytes(kb))
        for _ in range(flips_per_key):
            bits = gen.getrandbits(BLOCK_BITS)
            position = gen.randrange(BLOCK_BITS)
            c1 = encrypt_block(pad_block(bits, BLOCK_BITS), ek)
            c2 = encrypt_block(pad_block(bits ^ (1 << position), BLOCK_BITS), ek)
            changed = (
                int.from_bytes(c1, "big") ^ int.from_bytes(c2, "big")
            ).bit_count()
            fractions.append(changed / STATE_BITS)
    rows = [
        ("mean_flip_fraction", statistics.fmean(fractions)),
        ("stdev_flip_fraction", statistics.stdev(fractions)),
    ]
    return _report(
        "avalanche", "fraction", rows, len(fractions),
        warmup=0,
        iterations=1,
        keys=key_count,
        flips_per_key=flips_per_key,
        seed=CONTENT_SEED,
        ciphertext_bits=STATE_BITS,
    )


def _ref_series(series: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in sorted(series.items()))


def emit_csv(report: BenchReport, path: str) -> None:
    """Write the report as CSV: `#` metadata comments, then label,value,unit."""
    lines = [f"# experiment: {report.experiment}"]
    for key, value in report.metadata.items():
        lines.append(f"# {key}: {value}")
    lines.append("label,value,unit")
    for label, value in report.rows:
        lines.append(f"{label},{value!r},{report.unit}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_svg(report: BenchReport, path: str) -> None:
    """Render the rows as a single-polyline SVG chart with axis labels."""
    width, height, margin = 640, 400, 60
    xs = []
    for label, _ in report.rows:
        try:
            xs.append(float(label))
        except ValueError:
            xs = []
            break
    if not xs:
        xs = [float(i) for i in range(len(report.rows))]
    ys = [value for _, value in report.rows]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin

    def sx(x):
        return margin + (x - x_lo) / x_span * plot_w

    def sy(y):
        return height - margin - (y - y_lo) / y_span * plot_h

    points = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="2"/>',
    ]
    for x, y, (label, _) in zip(xs, ys, report.rows):
        parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="steelblue"/>')
        parts.append(
            f'<text x="{sx(x):.1f}" y="{height - margin + 16}" '
            f'font-size="11" text-anchor="middle">{label}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 14}" font-size="13" '
        f'text-anchor="middle">{report.experiment}</text>'
    )
    parts.append(
        f'<text x="16" y="{height / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {height / 2:.0f})">{report.unit}</text>'
    )
    parts.append(
        f'<text x="{margin}" y="{margin - 8}" font-size="11">'
        f"{y_hi:.6g} {report.unit} max</text>"
    )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")

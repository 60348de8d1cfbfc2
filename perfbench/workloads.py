"""The three workloads: seeded inputs, closed-loop operations, output checks.

Load is one caller in a closed loop: the next operation starts only after the
previous one has returned.  Inputs come from a `random.Random` the benchmark
seeds; the package only ever receives the generated bytes and keys.  Every
operation's output is checked, and a failed operation stays in the sample.
"""

import bisect
import contextlib
import io
import itertools
import random
import signal
import statistics
import time
from dataclasses import dataclass, field

KB = 1024
KINDS = ("truncated", "wrong_key", "bitflip")
# tamper-reject builds and checks one new container per BUILD_EVERY steps, so
# its encrypt and decrypt samples spread over the whole run.
BUILD_EVERY = 40
# Untraced runs time reference_ns() every SAMPLE_PERIOD_S and report times
# scaled to a machine on which it takes REFERENCE_NOMINAL_NS (README.md,
# "Normalised time").
SAMPLE_PERIOD_S = 0.05
REFERENCE_NOMINAL_NS = 1_100_000  # reference_ns() on an idle vCPU of a 2-vCPU KVM Xeon

now = time.perf_counter_ns


def _reference_inputs():
    """A 4096-entry table of int objects made in shuffled order, and 1 KB of index bytes."""
    r = random.Random(12345)
    order = list(range(4096))
    r.shuffle(order)
    table = [0] * 4096
    for i, slot in enumerate(order):
        table[slot] = 4096 + (7 * i + 1000) % 4096
    return tuple(table), r.randbytes(1024)


_REF_TABLE, _REF_DATA = _reference_inputs()


def reference_ns():
    """Time a fixed pure-Python loop, about 1 ms: how fast the machine runs right now.

    Lookups at random indices into a table whose int objects lie scattered in
    memory, as in the cipher's substitution layer, but no package code, so a
    change to the package cannot move it.
    """
    table, data = _REF_TABLE, _REF_DATA
    t0 = now()
    acc = 0
    for _ in range(20):
        for j in range(0, 1023, 3):
            acc ^= table[(data[j] << 4) | (data[j + 1] >> 4)]
    return now() - t0


class SpeedSampler:
    """Times reference_ns() from a SIGALRM handler every SAMPLE_PERIOD_S."""

    def __init__(self):
        self.starts, self.ends, self.refs = [], [], []

    def _tick(self, signum=None, frame=None):
        start = now()
        ref = reference_ns()
        self.starts.append(start)
        self.ends.append(now())
        self.refs.append(ref)

    @contextlib.contextmanager
    def running(self):
        self._tick()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._tick()

    def nominal_ns(self, t0, t1):
        """The stretch t0..t1 in nominal time.

        The ticks' own time is left out; each piece between ticks is scaled
        by REFERENCE_NOMINAL_NS over the reference time of the tick that ends it.
        """
        i = bisect.bisect_left(self.starts, t0)
        total, t = 0.0, t0
        while i < len(self.starts) and self.starts[i] < t1:
            total += (self.starts[i] - t) * REFERENCE_NOMINAL_NS / self.refs[i]
            t = self.ends[i]
            i += 1
        return total + (t1 - t) * REFERENCE_NOMINAL_NS / self.refs[min(i, len(self.refs) - 1)]


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the workloads."""

    bulk_bytes: int = 512 * KB  # bulk-file: one file per round trip
    msg_max: int = 62  # small-msg: 0..62 bytes, at most 2 blocks
    tamper_bytes: int = 1024  # tamper-reject: 34-block containers
    extra: int = 3  # traced run: cases per path the workload does not take


FULL = Sizes()
TINY = Sizes(bulk_bytes=8 * KB, extra=1)  # self-test only


@dataclass
class Record:
    """Outcomes and timings (perf_counter_ns stamps) of one run."""

    attempted: int = 0
    failed: int = 0
    errors: dict = field(default_factory=dict)  # failure description -> count
    ops: list = field(default_factory=list)  # (start, end) of each workload operation
    crypt: list = field(default_factory=list)  # (bytes, start, end of encrypt, end of decrypt)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors[what] = self.errors.get(what, 0) + 1


class Bench:
    """Operations on the package, called through module attributes so a tracer can wrap them.

    Each operation returns ((start, end), payload).
    """

    def __init__(self, pk, sizes, tmp, rec, tracer=None):
        self.pk = pk
        self.sizes = sizes
        self.tmp = tmp
        self.rec = rec
        self.tracer = tracer

    def key(self, rng):
        """A key in the key-file format: 31 bytes, last 5 bits zero."""
        kb = bytearray(rng.randbytes(self.pk.cipher.KEY_BYTES))
        kb[-1] &= 0xE0
        return bytes(kb)

    def op(self, label, fn):
        """Run fn; in a traced run, untraced first, then traced on the same input."""
        result = fn()
        if self.tracer is not None:
            with self.tracer.active(label):
                traced = fn()
            (u0, u1), (t0, t1) = result[0], traced[0]
            self.tracer.pairs.append((u1 - u0, t1 - t0))
            result = traced
        return result

    def traced(self, label, fn):
        with self.tracer.active(label):
            return fn()

    def stream_round_trip(self, msg, key):
        cipher = self.pk.cipher
        t0 = now()
        try:
            box = cipher.encrypt_stream(msg, key)
            t1 = now()
            back = cipher.decrypt_stream(box, key)
            t2 = now()
        except Exception as exc:
            self.rec.check(False, f"round trip raised {type(exc).__name__}: {exc}")
            return (t0, now()), None
        self.rec.check(back == msg, "round trip mismatch")
        self.rec.crypt.append((len(msg), t0, t1, t2))
        return (t0, t2), box

    def cli_round_trip(self, data, key):
        d = self.tmp
        (d / "key").write_bytes(key)
        (d / "plain").write_bytes(data)
        for name in ("box", "back"):
            (d / name).unlink(missing_ok=True)
        common = ["--key", str(d / "key"), "--in"]
        encrypt = ["encrypt", *common, str(d / "plain"), "--out", str(d / "box")]
        decrypt = ["decrypt", *common, str(d / "box"), "--out", str(d / "back")]
        cli = self.pk.cli
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = now()
            try:
                code = cli.run(encrypt)
                t1 = now()
                code = code or cli.run(decrypt)
                t2 = now()
            except Exception as exc:
                self.rec.check(False, f"cli raised {type(exc).__name__}: {exc}")
                return (t0, now()), None
        if code:
            self.rec.check(False, f"cli exit code {code}")
            return (t0, t2), None
        self.rec.check((d / "back").read_bytes() == data, "cli round trip mismatch")
        self.rec.crypt.append((len(data), t0, t1, t2))
        return (t0, t2), None

    def tampered(self, rng, box, key, kind):
        """Mutate a container: cut it short, swap the key, or flip one payload bit."""
        if kind == "truncated":
            return box[: rng.randrange(len(box))], key
        if kind == "wrong_key":
            other = self.key(rng)
            while other == key:
                other = self.key(rng)
            return box, other
        bit = rng.randrange(8 * self.pk.cipher.HEADER_BYTES, 8 * len(box))
        flipped = bytearray(box)
        flipped[bit >> 3] ^= 0x80 >> (bit & 7)
        return bytes(flipped), key

    def reject(self, bad, key, kind):
        """decrypt_stream must raise P3DKError; acceptance or any other error is a failure."""
        t0 = now()
        try:
            self.pk.cipher.decrypt_stream(bad, key)
        except self.pk.errors.P3DKError:
            t1 = now()
            self.rec.check(True, "")
        except Exception as exc:
            t1 = now()
            self.rec.check(False, f"{kind} raised {type(exc).__name__}: {exc}")
        else:
            t1 = now()
            self.rec.check(False, f"{kind} accepted")
        return (t0, t1), None

    def sample_input(self, workload, rng):
        """One plaintext shaped like the workload's own (never empty)."""
        s = self.sizes
        n = {"bulk-file": s.bulk_bytes, "small-msg": rng.randint(1, s.msg_max)}
        return rng.randbytes(n.get(workload, s.tamper_bytes))


def _kinds(rng):
    """Mutation kinds in exactly equal shares, shuffled in groups of three."""
    while True:
        group = list(KINDS)
        rng.shuffle(group)
        yield from group


def bulk_file(b, rng, deadline):
    while now() < deadline:
        data, key = rng.randbytes(b.sizes.bulk_bytes), b.key(rng)
        span, _ = b.op("cli", lambda: b.cli_round_trip(data, key))
        b.rec.ops.append(span)


def small_msg(b, rng, deadline):
    # The shorter of two uniform lengths: about three messages in four fit one
    # block.  With uniform lengths the median would sit exactly between the
    # one-block and two-block latencies and flip from seed to seed.
    while now() < deadline:
        n = min(rng.randint(0, b.sizes.msg_max), rng.randint(0, b.sizes.msg_max))
        msg, key = rng.randbytes(n), b.key(rng)
        span, _ = b.op("roundtrip", lambda: b.stream_round_trip(msg, key))
        b.rec.ops.append(span)


def tamper_reject(b, rng, deadline):
    pool = []
    kinds = _kinds(rng)
    for i in itertools.count():
        if now() >= deadline:
            break
        if i % BUILD_EVERY == 0 or not pool:
            plain, key = rng.randbytes(b.sizes.tamper_bytes), b.key(rng)
            _, box = b.op("roundtrip", lambda: b.stream_round_trip(plain, key))
            if box is not None:
                pool.append((box, key))
            continue
        box, key = pool[i % len(pool)]
        kind = next(kinds)
        bad, use_key = b.tampered(rng, box, key, kind)
        span, _ = b.op(kind, lambda: b.reject(bad, use_key, kind))
        b.rec.ops.append(span)


WORKLOADS = {"bulk-file": bulk_file, "small-msg": small_msg, "tamper-reject": tamper_reject}


def run(workload, b, rng, seconds):
    WORKLOADS[workload](b, rng, now() + int(seconds * 1e9))
    if b.tracer is not None:
        _traced_extras(workload, b, rng)


def _traced_extras(workload, b, rng):
    """Take the paths the workload itself skips, on inputs of its shape.

    Every traced run reports every per-layer metric, so small-msg and
    tamper-reject also go through the CLI, and bulk-file and small-msg also
    reject tampered containers.
    """
    if workload != "bulk-file":
        for _ in range(b.sizes.extra):
            data, key = b.sample_input(workload, rng), b.key(rng)
            b.traced("cli", lambda: b.cli_round_trip(data, key))
    if workload != "tamper-reject":
        key = b.key(rng)
        box = b.pk.cipher.encrypt_stream(b.sample_input(workload, rng), key)
        for kind in KINDS:
            for _ in range(b.sizes.extra):
                bad, use_key = b.tampered(rng, box, key, kind)
                b.traced(kind, lambda: b.reject(bad, use_key, kind))


def end_to_end(rec, duration):
    """End-to-end metrics, timing each stretch with duration(t0, t1) in ns.

    Set-up and memory come from run.py.
    """
    enc = [(n, duration(t0, t1)) for n, t0, t1, _ in rec.crypt]
    dec = [(n, duration(t1, t2)) for n, _, t1, t2 in rec.crypt]
    ops = sorted(duration(t0, t1) for t0, t1 in rec.ops)
    per_s_kb = 1e9 / KB
    return {
        "encrypt_kbps": sum(n for n, _ in enc) / sum(t for _, t in enc) * per_s_kb,
        "decrypt_kbps": sum(n for n, _ in dec) / sum(t for _, t in dec) * per_s_kb,
        "ops_per_s": len(ops) / sum(ops) * 1e9,
        "op_p50_us": statistics.median(ops) / 1e3,
        "op_p99_us": ops[min(len(ops) - 1, int(0.99 * len(ops)))] / 1e3,  # nearest rank
    }

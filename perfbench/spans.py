"""Spans around the package's public calls, and the per-layer metrics derived from them.

While a traced operation runs, each function in TARGETS is swapped, in the
module that calls it, for a wrapper that records one span: name, start and end
(perf_counter_ns), parent span, operation id and whether it raised.  The
originals go back when the operation ends, so untraced operations run the
package untouched.  Spans stay in memory and are written out once, when the
run ends.

Inside cipher blocks only every DETAIL_EVERY-th block records the spans of its
layers (cube codec, substitution, row shift, column mix); a 512 KB round trip
would otherwise keep 1.4 million spans.  Block, stream, key-expansion and CLI
spans are all kept.
"""

import contextlib
import gzip
import statistics
import time
from array import array

DETAIL_EVERY = 16
FIELDS = 6  # name id, start ns, end ns, parent span (-1: none), operation id, raised

# (module that makes the call, attribute, span name).  A function imported
# into several modules is wrapped in each, under one span name.
TARGETS = (
    ("cli", "run", "cli.run"),
    ("cli", "encrypt_stream", "cipher.encrypt_stream"),
    ("cli", "decrypt_stream", "cipher.decrypt_stream"),
    ("cipher", "encrypt_stream", "cipher.encrypt_stream"),
    ("cipher", "decrypt_stream", "cipher.decrypt_stream"),
    ("cipher", "expand_key_for", "cipher.expand_key_for"),
    ("cipher", "seed_from_bytes", "rng.seed_from_bytes"),
    ("cipher", "next_below", "rng.next_below"),
    ("cipher", "rotl_bits", "cipher.rotl_bits"),
    ("cipher", "build_sbox", "sbox.build_sbox"),
    ("cipher", "encrypt_block", "cipher.encrypt_block"),
    ("cipher", "decrypt_block", "cipher.decrypt_block"),
    ("cube", "encode_block", "cube.encode_block"),
    ("cube", "decode_block", "cube.decode_block"),
    ("cipher", "sub_state", "sbox.sub_state"),
    ("cipher", "inv_sub_state", "sbox.inv_sub_state"),
    ("cipher", "shift_rows", "cipher.shift_rows"),
    ("cipher", "inv_shift_rows", "cipher.inv_shift_rows"),
    ("cipher", "mix_columns", "cipher.mix_columns"),
    ("cipher", "inv_mix_columns", "cipher.inv_mix_columns"),
)
BLOCKS = ("cipher.encrypt_block", "cipher.decrypt_block")
STREAMS = ("cipher.encrypt_stream", "cipher.decrypt_stream")

now = time.perf_counter_ns


class Tracer:
    """Records spans in one flat array, FIELDS integers per span."""

    def __init__(self, pk):
        self.rows = array("q")
        self.names = []  # span name id -> name
        self.labels = []  # operation id -> label ("roundtrip", "cli" or a mutation kind)
        self.pairs = []  # (untraced ns, traced ns) of each operation run both ways
        self._stack = [-1]
        self._op = -1
        self._detail = True
        self._blocks = 0
        self._patches = []
        wrappers = {}
        for module_name, attr, span in TARGETS:
            module = getattr(pk, module_name)
            original = getattr(module, attr)
            if span not in wrappers:
                wrappers[span] = self._wrap(span, original)
            self._patches.append((module, attr, original, wrappers[span]))

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        rows, stack = self.rows, self._stack
        block = name in BLOCKS

        def traced(*args, **kwargs):
            if not self._detail:
                return fn(*args, **kwargs)
            idx = len(rows) // FIELDS
            rows.extend((nid, 0, 0, stack[-1], self._op, 1))
            stack.append(idx)
            if block:
                self._blocks += 1
                self._detail = self._blocks % DETAIL_EVERY == 0
            start = now()
            raised = 1
            try:
                out = fn(*args, **kwargs)
                raised = 0
                return out
            finally:
                end = now()
                self._detail = True
                stack.pop()
                base = idx * FIELDS
                rows[base + 1] = start
                rows[base + 2] = end
                rows[base + 5] = raised

        return traced

    @contextlib.contextmanager
    def active(self, label):
        """Trace one operation: install the wrappers, restore the originals after."""
        self._op = len(self.labels)
        self.labels.append(label)
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def write(self, path):
        """Write every span as one CSV row, gzip-compressed."""
        rows, names, labels = self.rows, self.names, self.labels
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_ns,end_ns,parent,op,label,raised\n")
            for i in range(len(rows) // FIELDS):
                n, start, end, parent, op, raised = rows[i * FIELDS : (i + 1) * FIELDS]
                fh.write(f"{i},{names[n]},{start},{end},{parent},{op},{labels[op]},{raised}\n")

    def span_count(self):
        return len(self.rows) // FIELDS


def _median(values, what):
    if not values:
        raise RuntimeError(f"no spans to derive {what} from")
    return statistics.median(values)


def layer_metrics(tr, cold_build_us):
    """Per-layer metrics of one traced run, from its spans.

    cold_build_us: first build_sbox call in each fresh setup process, in us.
    """
    rows, names, labels = tr.rows, tr.names, tr.labels
    n = tr.span_count()
    dur = [rows[i * FIELDS + 2] - rows[i * FIELDS + 1] for i in range(n)]
    name = [names[rows[i * FIELDS]] for i in range(n)]
    parent = [rows[i * FIELDS + 3] for i in range(n)]
    child_ns = [0] * n
    child_blocks = [0] * n
    children = [0] * n
    by_name = {}
    for i in range(n):
        by_name.setdefault(name[i], []).append(i)
        p = parent[i]
        if p >= 0:
            child_ns[p] += dur[i]
            children[p] += 1
            child_blocks[p] += name[i] in BLOCKS

    def med_us(span, pick=lambda i: True):
        return _median([dur[i] for i in by_name.get(span, ()) if pick(i)], span) / 1e3

    m = {}
    for span in (
        "cube.encode_block", "cube.decode_block", "sbox.sub_state", "sbox.inv_sub_state",
        "cipher.shift_rows", "cipher.inv_shift_rows", "cipher.mix_columns",
        "cipher.inv_mix_columns", "cipher.rotl_bits", "rng.seed_from_bytes",
        "rng.next_below",
    ):
        m[span + "_us"] = med_us(span)
    m["sbox.build_sbox_cold_us"] = _median(cold_build_us, "sbox.build_sbox_cold_us")
    m["cipher.expand_key_us"] = med_us("cipher.expand_key_for")

    # Whole-block times come from blocks whose layers were not traced, so the
    # layer wrappers' own cost stays out of them.
    for span in BLOCKS:
        spans = by_name.get(span, ())
        plain = [dur[i] for i in spans if not children[i]] or [dur[i] for i in spans]
        m[span + "_us"] = _median(plain, span) / 1e3
    layers = _median([child_ns[i] for i in by_name.get("cipher.encrypt_block", ()) if children[i]],
                     "cipher.layer_coverage") / 1e3
    m["cipher.block_other_us"] = m["cipher.encrypt_block_us"] - layers
    m["cipher.layer_coverage"] = layers / m["cipher.encrypt_block_us"]

    # Bit packing is what a stream spends outside key expansion and its blocks.
    for span, metric in zip(STREAMS, ("cipher.pack_us_per_block", "cipher.unpack_us_per_block")):
        done = [i for i in by_name.get(span, ()) if child_blocks[i] and not rows[i * FIELDS + 5]]
        blocks = sum(child_blocks[i] for i in done)
        if not blocks:
            raise RuntimeError(f"no spans to derive {metric} from")
        m[metric] = sum(dur[i] - child_ns[i] for i in done) / blocks / 1e3

    for kind in ("truncated", "wrong_key", "bitflip"):
        m[f"cipher.reject_{kind}_us"] = med_us(
            "cipher.decrypt_stream",
            lambda i: parent[i] < 0 and labels[rows[i * FIELDS + 4]] == kind,
        )

    overhead = {"cipher.encrypt_stream": [], "cipher.decrypt_stream": []}
    for i in by_name.get("cli.run", ()):
        j = i + 1  # the stream call is the first traced call inside cli.run
        if j < n and parent[j] == i:
            overhead[name[j]].append(dur[i] - dur[j])
    m["cli.encrypt_overhead_ms"] = _median(overhead["cipher.encrypt_stream"], "cli encrypt") / 1e6
    m["cli.decrypt_overhead_ms"] = _median(overhead["cipher.decrypt_stream"], "cli decrypt") / 1e6

    m["cipher.blocks"] = sum(len(by_name.get(span, ())) for span in BLOCKS)
    m["cipher.keys_expanded"] = len(by_name.get("cipher.expand_key_for", ()))
    m["trace.overhead_ratio"] = sum(t for _, t in tr.pairs) / sum(u for u, _ in tr.pairs)
    return m

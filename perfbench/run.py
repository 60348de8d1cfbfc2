"""Benchmark entry point: one workload against the p3dk source tree, one JSON result.

From the repository root:

    python3 perfbench/run.py --workload small-msg --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, --trace 1
the per-layer ones, derived from spans that are also written to
.perfbench_out/.  The last line of standard output is the result; the line
before it is a report with the seed, settings, environment, sample counts and
the workload's metrics under the names perfbench/README.md uses.  A
known-answer mismatch stops the run before anything is timed, with exit code 1
and no result.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
PROBES = 7  # fresh processes per run that measure set-up

# The workload's end-to-end metrics under the names perfbench/README.md uses.
ALIASES = {
    "bulk-file": {"encrypt_kbps": "encrypt_kbps", "decrypt_kbps": "decrypt_kbps"},
    "small-msg": {"msg_per_s": "ops_per_s", "msg_p50_us": "op_p50_us", "msg_p99_us": "op_p99_us"},
    "tamper-reject": {
        "reject_per_s": "ops_per_s", "reject_p50_us": "op_p50_us", "reject_p99_us": "op_p99_us",
    },
}


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes (8 KB files, one extra case per path); results are not comparable")
    return p.parse_args(argv)


def load_package(root):
    """Import p3dk from the checkout's own src/, never from anywhere else."""
    src = root / "src"
    if not (src / "p3dk" / "__init__.py").is_file() or not (root / "tests" / "kat_vectors.py").is_file():
        sys.exit(f"perfbench: no p3dk source tree here (need src/p3dk and tests/kat_vectors.py under {root})")
    sys.path.insert(0, str(src))
    pk = types.SimpleNamespace(
        **{m: importlib.import_module(f"p3dk.{m}") for m in ("cipher", "cli", "cube", "errors", "sbox")}
    )
    if not Path(pk.cipher.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: imported p3dk from {pk.cipher.__file__}, not from {src}")
    return pk


def load_vectors(root):
    """The frozen known-answer vectors, read from tests/kat_vectors.py."""
    spec = importlib.util.spec_from_file_location("kat_vectors", root / "tests" / "kat_vectors.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_kats(cipher, kv):
    """Exit with code 1, before any timing, unless the package reproduces the vectors."""
    checks = (
        ("KAT1 encrypt_block", kv.KAT1_CIPHERTEXT,
         lambda: cipher.encrypt_block(kv.KAT1_PLAINTEXT, cipher.expand_key_for(kv.KAT1_KEY))),
        ("KAT1 decrypt_block", kv.KAT1_PLAINTEXT,
         lambda: cipher.decrypt_block(kv.KAT1_CIPHERTEXT, cipher.expand_key_for(kv.KAT1_KEY))),
        ("KAT2 encrypt_stream", kv.KAT2_CONTAINER,
         lambda: cipher.encrypt_stream(kv.KAT2_MESSAGE, kv.KAT2_KEY)),
        ("KAT2 decrypt_stream", kv.KAT2_MESSAGE,
         lambda: cipher.decrypt_stream(kv.KAT2_CONTAINER, kv.KAT2_KEY)),
    )
    bad = []
    for name, want, fn in checks:
        try:
            got = fn()
        except Exception as exc:
            got = exc
        if got != want:
            bad.append(f"{name} gave {got!r:.60}")
    if bad:
        sys.exit("perfbench: known-answer mismatch: " + "; ".join(bad))


def setup_probes(bench, rng, trace):
    """Run PROBES fresh processes, each timing import plus a cold one-block round trip."""
    key, msg = bench.key(rng), rng.randbytes(rng.randint(1, 30))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"), key.hex(), msg.hex(), str(trace)]
    probes = []
    for _ in range(PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode:
            sys.exit(f"perfbench: setup probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        bench.rec.check(probe["ok"], "setup probe round trip mismatch")
        probes.append(probe)
    return probes


def git_commit(root):
    """HEAD's commit, read from .git without running git; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest(root):
    """SHA-256 over the package's source files, to identify the code measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "p3dk").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    pk = load_package(ROOT)
    check_kats(pk.cipher, load_vectors(ROOT))

    sizes = workloads.TINY if args.tiny else workloads.FULL
    rec = workloads.Record()
    tracer = spans.Tracer(pk) if args.trace else None
    sampler = None if tracer else workloads.SpeedSampler()
    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        bench = workloads.Bench(pk, sizes, Path(tmp), rec, tracer)
        probes = setup_probes(bench, random.Random(f"{args.seed}/setup"), args.trace)
        for rotation in range(16):  # the S-box tables are built once per process
            pk.sbox.build_sbox(rotation)
        rng = random.Random(f"{args.seed}/{args.workload}")
        with sampler.running() if sampler else contextlib.nullcontext():
            workloads.run(args.workload, bench, rng, args.seconds)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        metrics = workloads.end_to_end(rec, sampler.nominal_ns)
        metrics["setup_s"] = statistics.median(
            p["setup_s"] * workloads.REFERENCE_NOMINAL_NS / p["reference_ns"] for p in probes
        )
        metrics["peak_rss_mb"] = peak_rss_mb
        key, spans_file = "end_to_end", None
    else:
        metrics = spans.layer_metrics(tracer, [p["build_sbox_cold_us"] for p in probes])
        key, spans_file = "per_layer", OUT / f"spans-{tag}.csv.gz"
        tracer.write(spans_file)

    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[key]},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "settings": {
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
            "sizes": vars(sizes), "sample_period_s": workloads.SAMPLE_PERIOD_S,
            "reference_nominal_ns": workloads.REFERENCE_NOMINAL_NS, "setup_probes": PROBES,
            "detail_every": spans.DETAIL_EVERY,
        },
        "environment": {
            "python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "git_commit": git_commit(ROOT), "source_sha256": source_digest(ROOT),
        },
        "samples": {
            "ops": len(rec.ops), "crypt": len(rec.crypt), "setup_probes": len(probes),
        },
        "failed_ratio": rec.failed / rec.attempted,
        "errors": rec.errors,
        "wall_s": time.perf_counter() - started,
    }
    if tracer is None:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        named = {**ALIASES[args.workload], "setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb"}
        report["workload_metrics"] = {
            alias: {"value": metrics[name], "unit": units[name]} for alias, name in named.items()
        }
        report["workload_metrics"]["failed_ratio"] = {"value": report["failed_ratio"], "unit": "ratio"}
        measured = workloads.end_to_end(rec, lambda t0, t1: t1 - t0)
        measured["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        report["measured"] = measured
        report["reference_ns"] = {"median": statistics.median(sampler.refs), "samples": len(sampler.refs)}
    else:
        report["spans"] = {"count": tracer.span_count(), "file": str(spans_file.relative_to(ROOT))}
        report["paired_ops"] = len(tracer.pairs)
    (OUT / f"result-{tag}.json").write_text(json.dumps({"report": report, "result": result}, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

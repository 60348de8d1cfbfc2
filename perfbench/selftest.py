"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at tiny load, untraced and traced, and checks that each
run exits 0, that its last line holds exactly the metrics BENCHMARK.json names
with their units, and that no operation failed.  It also checks that a
known-answer mismatch and a directory without the p3dk sources both stop the
benchmark with a non-zero exit code and no result.  Exits non-zero on any
failed check.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 170


def bench(cwd, *args):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def check_run(spec, workload, trace):
    """Problems with one tiny-load run, as a list of messages."""
    key = "per_layer" if trace else "end_to_end"
    proc = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    report = json.loads(proc.stdout.splitlines()[-2])["report"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: failed {result['failed']} of {result['attempted']}: {report['errors']}")
    if report["failed_ratio"] != 0 or report["seed"] != 7:
        problems.append(f"{where}: report says failed_ratio {report['failed_ratio']}, seed {report['seed']}")
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics/units differ from BENCHMARK.json: {got} != {want}")
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r}")
    return problems


def check_kat_mismatch():
    """check_kats must exit non-zero when a vector does not match."""
    sys.path.insert(0, str(HERE))
    import run

    pk = run.load_package(ROOT)
    vectors = run.load_vectors(ROOT)
    wrong = types.SimpleNamespace(**vars(vectors))
    wrong.KAT2_CONTAINER = vectors.KAT2_CONTAINER[:-1] + bytes([vectors.KAT2_CONTAINER[-1] ^ 1])
    run.check_kats(pk.cipher, vectors)
    try:
        run.check_kats(pk.cipher, wrong)
    except SystemExit as exc:
        return [] if exc.code not in (0, None) else ["KAT mismatch exited with code 0"]
    return ["KAT mismatch was not detected"]


def check_bare_directory():
    """With only BENCHMARK.json and perfbench/, the benchmark must refuse to run."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", "small-msg", "--seed", "1", "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    problems = check_kat_mismatch() + check_bare_directory()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, workload["name"], trace)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

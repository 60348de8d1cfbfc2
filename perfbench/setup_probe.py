"""Set-up cost in a fresh process: import p3dk, then one cold one-block round trip.

    python3 perfbench/setup_probe.py <src dir> <key hex> <message hex> <trace 0|1>

Prints one JSON line with setup_s (import plus round trip), import_s, whether
the round trip gave the message back, the reference loop's time in this
process afterwards (to normalise setup_s), and, with trace 1, the time of the
process's first build_sbox call in us.
"""

import json
import sys
import time


def main():
    src, key_hex, msg_hex, trace = sys.argv[1:5]
    key, msg = bytes.fromhex(key_hex), bytes.fromhex(msg_hex)
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import p3dk.cipher as cipher

    t1 = time.perf_counter()
    cold_ns = []
    if trace == "1":
        build = cipher.build_sbox

        def timed_build(rotation):
            start = time.perf_counter_ns()
            box = build(rotation)
            cold_ns.append(time.perf_counter_ns() - start)
            return box

        cipher.build_sbox = timed_build
    ok = cipher.decrypt_stream(cipher.encrypt_stream(msg, key), key) == msg
    t2 = time.perf_counter()
    from workloads import reference_ns

    print(json.dumps({
        "ok": ok,
        "setup_s": t2 - t0,
        "import_s": t1 - t0,
        "reference_ns": sorted(reference_ns() for _ in range(3))[1],
        "build_sbox_cold_us": cold_ns[0] / 1e3 if cold_ns else None,
    }))


if __name__ == "__main__":
    main()

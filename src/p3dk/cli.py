"""Command-line front end: key generation, file encryption, benchmarks, dumps.

Exit codes: 0 success, 1 usage, 2 I/O, 3 format or integrity failure
(bad container magic, corrupted triples, impossible depth), 4 key file
problems.  Every failure prints a one-line diagnostic to stderr.  All
binary outputs go through a required --out flag, never to the terminal.
encrypt and decrypt stream their files in fixed chunks and write to a temp
file beside --out that replaces it only on success, so a failed run leaves
no partial output.
"""

import argparse
import contextlib
import math
import os
import sys

from .cipher import (
    decrypt_stream,
    encrypt_stream,
    generate_master_key,
    validate_master_key,
)
from .cube import build_cube, dump_cube
from .errors import (
    FormatError,
    IntegrityError,
    KeyFormatError,
    LengthError,
    RangeError,
    SeedError,
    UsageError,
)
from .sbox import ROTATIONS, build_sbox, dump_sbox

_EXIT_USAGE = 1
_EXIT_IO = 2
_EXIT_FORMAT = 3
_EXIT_KEY = 4


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems as exit code 1."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="p3dk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="write a fresh 31-byte key file")
    p.add_argument("--out", required=True, help="key file path")
    p.set_defaults(handler=_cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a file into a container")
    p.add_argument("--key", required=True, help="31-byte key file")
    p.add_argument("--in", dest="infile", required=True, help="plaintext path")
    p.add_argument("--out", required=True, help="container path")
    p.set_defaults(handler=_cmd_crypt)

    p = sub.add_parser("decrypt", help="decrypt a container back to a file")
    p.add_argument("--key", required=True, help="31-byte key file")
    p.add_argument("--in", dest="infile", required=True, help="container path")
    p.add_argument("--out", required=True, help="plaintext path")
    p.set_defaults(handler=_cmd_crypt)

    p = sub.add_parser("bench", help="run a timing experiment")
    p.set_defaults(handler=_cmd_bench)
    bench_sub = p.add_subparsers(dest="experiment", required=True)
    shared = argparse.ArgumentParser(add_help=False)  # the flags every experiment takes
    shared.add_argument("--trials", type=int)
    shared.add_argument("--out", required=True, help="CSV path")
    shared.add_argument("--svg", help="optional SVG chart path")

    b = bench_sub.add_parser("filesize", parents=[shared], help="encryption time vs file size")
    b.add_argument("--sizes", help="comma-separated sizes in KB")
    b.set_defaults(measure=lambda bench, a: bench.bench_filesize(
        _parse_int_list(a.sizes, bench.DEFAULT_SIZES_KB), trials=a.trials
    ))

    b = bench_sub.add_parser("rotations", parents=[shared], help="table time vs rotation count")
    b.add_argument("--max-count", type=int, default=16)
    b.set_defaults(measure=lambda bench, a: bench.bench_rotations(a.max_count, trials=a.trials))

    b = bench_sub.add_parser("sboxgen", parents=[shared], help="setup time vs input bit length")
    b.add_argument("--sizes", help="comma-separated bit lengths")
    b.set_defaults(measure=lambda bench, a: bench.bench_sboxgen(
        _parse_int_list(a.sizes, bench.DEFAULT_BIT_LENGTHS), trials=a.trials
    ))

    p = sub.add_parser("avalanche", help="plaintext-flip diffusion statistic")
    p.add_argument("--trials", type=int, required=True, help="total bit flips")
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(handler=_cmd_avalanche)

    p = sub.add_parser("dump-cube", help="print the symbol cube, one cell per line")
    p.set_defaults(handler=lambda args: _print(dump_cube(build_cube())))

    p = sub.add_parser("dump-sbox", help="print a substitution table")
    p.add_argument(
        "--rotation", type=int, choices=range(ROTATIONS), metavar="R", required=True,
        help=f"rotation in [0, {ROTATIONS - 1}]",
    )
    p.set_defaults(handler=lambda args: _print(dump_sbox(build_sbox(args.rotation))))

    return parser


def _load_key(path: str) -> bytes:
    with open(path, "rb") as fh:
        return validate_master_key(fh.read())


def _parse_int_list(text: str | None, default) -> list[int]:
    """The integers in a comma-separated flag value, or default if it is unset or empty."""
    if not text:
        return default
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _print(text: str) -> int:
    sys.stdout.write(text)
    return 0


def _cmd_keygen(args) -> int:
    with open(args.out, "xb") as fh:
        fh.write(generate_master_key())
    print(f"wrote key to {args.out}")
    return 0


@contextlib.contextmanager
def _replacing(path: str):
    """Yield a new binary file beside path that replaces path only if the block succeeds."""
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _cmd_crypt(args) -> int:
    if os.path.realpath(args.out) in (os.path.realpath(args.infile), os.path.realpath(args.key)):
        raise UsageError("--out must differ from --in and --key; refusing to overwrite them")
    key = _load_key(args.key)
    # Looked up when called, so a wrapper installed on this module is used.
    crypt = encrypt_stream if args.command == "encrypt" else decrypt_stream
    with open(args.infile, "rb") as src, _replacing(args.out) as dst:
        written = crypt(src, key, dst)
    print(f"wrote {written} bytes to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    # Imported here, not at the top, so encrypt and decrypt start without it
    # (bench loads statistics and random).
    from . import bench

    if args.trials is None:
        args.trials = bench.DEFAULT_TRIALS
    report = args.measure(bench, args)
    bench.emit_csv(report, args.out)
    written = args.out
    if args.svg:
        bench.emit_svg(report, args.svg)
        written += f" and {args.svg}"
    print(f"{report.experiment}: {len(report.rows)} rows, wrote {written}")
    return 0


def _cmd_avalanche(args) -> int:
    from . import bench

    if args.trials < 2:
        raise UsageError(f"--trials must be >= 2, got {args.trials}")
    keys = max(1, args.trials // 100)
    flips = math.ceil(args.trials / keys)
    report = bench.avalanche(keys, flips)
    bench.emit_csv(report, args.out)
    stats = dict(report.rows)
    print(
        f"avalanche over {report.metadata['trials']} flips: "
        f"mean={stats['mean_flip_fraction']:.4f} "
        f"stdev={stats['stdev_flip_fraction']:.4f}, wrote {args.out}"
    )
    return 0


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except (FormatError, IntegrityError, RangeError, LengthError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return _EXIT_FORMAT
    except (KeyFormatError, SeedError) as exc:
        print(f"key error: {exc}", file=sys.stderr)
        return _EXIT_KEY


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Command-line front end: key generation, file encryption, benchmarks, dumps.

Exit codes: 0 success, 1 usage, 2 I/O, 3 format or integrity failure
(bad container magic, corrupted triples, impossible depth), 4 key file
problems.  Every failure prints a one-line diagnostic to stderr.  All
binary outputs go through a required --out flag, never to the terminal.
Each --out and --svg goes to a temp file beside it that replaces it only
on success, so a failed run leaves no partial output (an I/O error names
the temp path); a target that is not a regular file (a FIFO, a device) is
refused.  keygen alone never overwrites, opening --out exclusively.
encrypt and decrypt stream in fixed chunks.  Each bench experiment runs at
its paper figure's fixed points, so only --trials is chosen per run; a bench
--svg must not be --out.
"""

import argparse
import contextlib
import os
import sys

from .cipher import (
    KEY_BYTES,
    decrypt_stream,
    encrypt_stream,
    generate_master_key,
    validate_master_key,
)
from .cube import dump_cube
from .errors import (
    FormatError,
    IntegrityError,
    KeyFormatError,
    LengthError,
    RangeError,
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

    p = sub.add_parser("bench", help="run a timing experiment at its paper figure's points")
    p.set_defaults(handler=_cmd_bench)
    bench_sub = p.add_subparsers(dest="experiment", required=True)
    for name, summary in (
        ("filesize", "encryption time vs file size"),
        ("rotations", "table time vs rotation count"),
        ("sboxgen", "setup time vs input bit length"),
    ):
        b = bench_sub.add_parser(name, help=summary)
        b.add_argument("--trials", type=int)
        b.add_argument("--out", required=True, help="CSV path")
        b.add_argument("--svg", help="optional SVG chart path")

    p = sub.add_parser("avalanche", help="plaintext-flip diffusion statistic")
    p.add_argument("--trials", type=int, required=True, help="total bit flips")
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(handler=_cmd_avalanche)

    p = sub.add_parser("dump-cube", help="print the symbol cube, one cell per line")
    p.set_defaults(handler=lambda args: _print(dump_cube()))

    p = sub.add_parser("dump-sbox", help="print a substitution table")
    p.add_argument(
        "--rotation", type=int, choices=range(ROTATIONS), metavar="R", required=True,
        help=f"rotation in [0, {ROTATIONS - 1}]",
    )
    p.set_defaults(handler=lambda args: _print(dump_sbox(build_sbox(args.rotation))))

    return parser


def _load_key(path: str) -> bytes:
    """The checked master key in path, read no further than one byte past KEY_BYTES."""
    with open(path, "rb") as fh:
        kb = fh.read(KEY_BYTES + 1)
    if len(kb) > KEY_BYTES:
        raise KeyFormatError(f"master key must be {KEY_BYTES} bytes, got more")
    return validate_master_key(kb)


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
    """Yield a new binary file beside path that replaces path only if the block succeeds.

    A path that exists and is not a regular file (a FIFO, a device, a
    directory) is refused with an OSError before the temp file is made.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError(f"{path} exists and is not a regular file; refusing to replace it")
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _write_reports(texts: dict[str, str]) -> None:
    """Write each path's ASCII text; every temp file is opened before any is renamed."""
    with contextlib.ExitStack() as stack:
        files = [(stack.enter_context(_replacing(path)), text) for path, text in texts.items()]
        for fh, text in files:
            fh.write(text.encode("ascii"))


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

    if args.svg and os.path.realpath(args.svg) == os.path.realpath(args.out):
        raise UsageError("--svg must differ from --out; refusing to write both to one file")
    if args.trials is None:
        args.trials = bench.DEFAULT_TRIALS
    report = getattr(bench, f"bench_{args.experiment}")(trials=args.trials)
    texts = {args.out: bench.render_csv(report)}
    if args.svg:
        texts[args.svg] = bench.render_svg(report)
    _write_reports(texts)
    print(f"{report.experiment}: {len(report.rows)} rows, wrote {' and '.join(texts)}")
    return 0


def _cmd_avalanche(args) -> int:
    from . import bench

    report = bench.avalanche(args.trials)
    _write_reports({args.out: bench.render_csv(report)})
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
    except KeyFormatError as exc:
        print(f"key error: {exc}", file=sys.stderr)
        return _EXIT_KEY


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Command-line front end: check, report, search and ext subcommands.

Exit codes: 0 on success (and on admissible with --strict), 1 on a
semantic negative (--strict with a non-admissible candidate, or an Ext
table that cannot exist), 2 on malformed input or an I/O failure (an
unwritable --out, or a reader that closed the pipe).  Output goes to
stdout or to --out; JSON is the default format, --csv selects the flat
projection.  Search output is written record by record as hits are found.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import stat
import sys
from itertools import islice

from .certificate import (
    CSV_COLUMNS,
    build_certificate,
    certificate_csv_row,
    certificate_to_dict,
)
from .lattice import K3Surface, MukaiVector
from .pfunctor import NegativeExt, ext_dims_on_hilb, ext_dims_on_X
# enumerate_hits is unused here but stays importable: perfbench/traced.py
# wraps it by name.
from .search import InvalidQuery, SearchQuery, enumerate_hits, iter_hits  # noqa: F401

_RANGE_RE = re.compile(r"^(\d+)(?:-(\d+))?$")

EXT_CSV_COLUMNS = ["space", "dims"]


def _parse_range(text: str) -> int | tuple[int, int]:
    m = _RANGE_RE.match(text)
    if m is None:
        raise InvalidQuery(f"malformed range: {text!r} (expected N or LO-HI)")
    if m.group(2) is None:
        return int(m.group(1))
    return int(m.group(1)), int(m.group(2))


def _render_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _render_csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_json_list(records, out) -> None:
    """Write json.dumps(list(records), indent=2) + "\n" one record at a time.

    Each record is encoded on its own and indented one level by replacing
    its newlines; encoded JSON holds no raw newline besides indentation.
    """
    encoder = json.JSONEncoder(indent=2)
    sep = "[\n  "
    for record in records:
        out.write(sep + encoder.encode(record).replace("\n", "\n  "))
        sep = ",\n  "
    out.write("[]\n" if sep == "[\n  " else "\n]\n")


def _write_to(out_path: str | None, write) -> None:
    """Call write(stream) on stdout, or on a file that replaces out_path.

    A regular (or new) file is written beside its resolved path and moved
    onto it only once write returns, so a failure never leaves a truncated
    output behind; a symlink is written through and the file keeps its
    mode.  Anything else (a device, a FIFO), or a target whose directory
    takes no new file, is written in place.
    """
    if out_path is None:
        write(sys.stdout)
        return
    real = os.path.realpath(out_path)
    tmp = _temp_beside(real) if not os.path.exists(real) or os.path.isfile(real) else None
    if tmp is None:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        return
    try:
        with os.fdopen(tmp[0], "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp[1], real)
    except BaseException:
        os.unlink(tmp[1])
        raise


def _temp_beside(path: str) -> tuple[int, str] | None:
    """(fd, name) of a new file next to path with the mode path has or would
    get, or None when its directory takes no new file."""
    import tempfile  # not at top level: it would add to every import of the CLI

    try:
        fd, name = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=f".{os.path.basename(path)}.", suffix=".tmp"
        )
    except OSError:
        return None
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    os.fchmod(fd, mode)
    return fd, name


def _emit(text: str, out_path: str | None) -> None:
    _write_to(out_path, lambda out: out.write(text))


def _candidate(args: argparse.Namespace) -> tuple[K3Surface, MukaiVector]:
    return K3Surface(args.h2), MukaiVector(args.r, args.m, args.s)


def _cmd_certificate(args: argparse.Namespace, include_notes: bool) -> int:
    surface, v = _candidate(args)
    cert = build_certificate(surface, v, args.k)
    if args.csv:
        text = _render_csv(CSV_COLUMNS, [certificate_csv_row(cert)])
    else:
        text = _render_json(certificate_to_dict(cert, include_notes=include_notes))
    _emit(text, args.out)
    if args.strict and not cert.report.admissible:
        return 1
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    return _cmd_certificate(args, include_notes=False)


def _cmd_report(args: argparse.Namespace) -> int:
    return _cmd_certificate(args, include_notes=True)


def _cmd_search(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be non-negative, got {args.limit}")
    query = SearchQuery(_parse_range(args.h2), _parse_range(args.k))
    hits = iter_hits(query, workers=args.workers)

    def write(out) -> None:
        limited = islice(hits, args.limit)
        if args.csv:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            writer.writerows(certificate_csv_row(h.certificate) for h in limited)
        else:
            _write_json_list(
                (certificate_to_dict(h.certificate, include_notes=True) for h in limited),
                out,
            )

    try:
        _write_to(args.out, write)
    finally:
        hits.close()
    return 0


def _cmd_ext(args: argparse.Namespace) -> int:
    surface, v = _candidate(args)
    if v.r < 1:
        raise ValueError(f"rank must be positive, got r={v.r}")
    same = not args.distinct
    try:
        on_x = ext_dims_on_X(surface, v, v, same_object=same)
        on_hilb = ext_dims_on_hilb(surface, v, v, args.k, same_object=same)
    except NegativeExt as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Render over the full degree range of each space: 0..2 on the surface,
    # 0..2k on the Hilbert scheme (canonical GradedDims strips trailing zeros).
    x_cells = [str(on_x[i]) for i in range(3)]
    hilb_cells = [str(on_hilb[i]) for i in range(2 * args.k + 1)]
    if args.csv:
        rows = [["X", " ".join(x_cells)], ["hilb", " ".join(hilb_cells)]]
        text = _render_csv(EXT_CSV_COLUMNS, rows)
    else:
        payload = {
            "input": {
                "h_squared": str(args.h2),
                "k": str(args.k),
                "r": str(args.r),
                "m": str(args.m),
                "s": str(args.s),
            },
            "distinct": args.distinct,
            "ext_on_X": x_cells,
            "ext_on_hilb": hilb_cells,
        }
        text = _render_json(payload)
    _emit(text, args.out)
    return 0


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--csv", action="store_true", help="CSV flat projection")
    parser.add_argument("--out", metavar="PATH", help="write output to a file")


def _add_candidate_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("h2", type=int, help="h^2 of the surface (positive even)")
    parser.add_argument("k", type=int, help="number of points (positive)")
    parser.add_argument("r", type=int, help="rank component of the Mukai vector")
    parser.add_argument("m", type=int, help="c1 = m*h component")
    parser.add_argument("s", type=int, help="degree-4 component")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbstab",
        description=(
            "Exact admissibility certificates and searches for Mukai vectors "
            "on a Picard-rank-1 K3 surface and its Hilbert schemes of points."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="certificate for one candidate")
    _add_candidate_args(p_check)
    p_check.add_argument(
        "--strict", action="store_true", help="exit 1 unless admissible"
    )
    _add_output_flags(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_report = sub.add_parser("report", help="check with explanatory notes included")
    _add_candidate_args(p_report)
    p_report.add_argument(
        "--strict", action="store_true", help="exit 1 unless admissible"
    )
    _add_output_flags(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_search = sub.add_parser("search", help="enumerate all admissible vectors")
    p_search.add_argument("h2", help="even h^2 or inclusive range LO-HI")
    p_search.add_argument("k", help="k or inclusive range LO-HI")
    p_search.add_argument(
        "--limit", type=int, help="stop after this many hits in canonical order"
    )
    p_search.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel workers, at most one per CPU (output unchanged)",
    )
    _add_output_flags(p_search)
    p_search.set_defaults(func=_cmd_search)

    p_ext = sub.add_parser("ext", help="graded Ext table on X and on X^[k]")
    _add_candidate_args(p_ext)
    p_ext.add_argument(
        "--distinct",
        action="store_true",
        help="two non-isomorphic stable sheaves with this vector",
    )
    _add_output_flags(p_ext)
    p_ext.set_defaults(func=_cmd_ext)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone (say `| head`): send what is still buffered to
        # devnull so the flush at exit raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())

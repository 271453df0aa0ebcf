"""Command-line front end: check, report, search and ext subcommands.

Exit codes: 0 on success (and on admissible with --strict), 1 on a
semantic negative (--strict with a non-admissible candidate, or an Ext
table that cannot exist), 2 on malformed input or an I/O failure (an
unwritable --out, a full or closed stdout, or a reader that closed the
pipe).  A closed or full stderr loses only the error message, never the
exit code.  Output goes to stdout or to --out; JSON is the default format,
--csv selects the flat projection.  Search output is written record by
record as hits are found.
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
from itertools import chain, islice

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


def _parse_range(text: str) -> int | tuple[int, int]:
    m = _RANGE_RE.match(text)
    if m is None:
        raise InvalidQuery(f"malformed range: {text!r} (expected N or LO-HI)")
    if m.group(2) is None:
        return int(m.group(1))
    return int(m.group(1)), int(m.group(2))


def _render_json(value) -> str:
    return json.dumps(value, indent=2)


def _render_csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _json_list(values):
    """The chunks of _render_json(list(values)) + "\n", one chunk per value.

    Each value is rendered on its own and indented one level by replacing
    its newlines; rendered JSON holds no raw newline besides indentation.
    """
    sep = "[\n  "
    for value in values:
        yield sep + _render_json(value).replace("\n", "\n  ")
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def _emit(out: str | None, chunks) -> None:
    """Write the text chunks to stdout, or to a file that replaces out.

    The chunks may be produced lazily, so output streams as it is made.
    A regular (or new) file is written beside its resolved path and moved
    onto it only once every chunk is written, so a failure never leaves a
    truncated output behind; a symlink is written through and the file
    keeps its mode.  Anything else (a device, a FIFO), or a target whose
    directory takes no new file, is written in place.
    """
    if out is None:
        if sys.stdout is None:
            raise OSError("standard output is closed")
        sys.stdout.writelines(chunks)
        return
    real = os.path.realpath(out)
    tmp = _temp_beside(real) if not os.path.exists(real) or os.path.isfile(real) else None
    if tmp is None:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        return
    try:
        with os.fdopen(tmp[0], "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
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


def _candidate(args: argparse.Namespace) -> tuple[K3Surface, MukaiVector]:
    return K3Surface(args.h2), MukaiVector(args.r, args.m, args.s)


def _cmd_certificate(args: argparse.Namespace) -> int:
    surface, v = _candidate(args)
    cert = build_certificate(surface, v, args.k)
    if args.csv:
        chunks = [_render_csv([CSV_COLUMNS, certificate_csv_row(cert)])]
    else:
        chunks = [_render_json(certificate_to_dict(cert, include_notes=args.notes)), "\n"]
    _emit(args.out, chunks)
    if args.strict and not cert.report.admissible:
        return 1
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be non-negative, got {args.limit}")
    query = SearchQuery(_parse_range(args.h2), _parse_range(args.k))
    hits = iter_hits(query, workers=args.workers)
    # islice takes no count above sys.maxsize, which no run can reach anyway
    certs = islice(hits, None if args.limit is None else min(args.limit, sys.maxsize))
    if args.csv:
        rows = chain([CSV_COLUMNS], map(certificate_csv_row, certs))
        chunks = (_render_csv([row]) for row in rows)
    else:
        chunks = _json_list(certificate_to_dict(c, include_notes=True) for c in certs)
    try:
        _emit(args.out, chunks)
    finally:
        hits.close()
    return 0


def _cmd_ext(args: argparse.Namespace) -> int:
    surface, v = _candidate(args)
    on_x = ext_dims_on_X(surface, v, v, same_object=not args.distinct)
    on_hilb = ext_dims_on_hilb(on_x, args.k)
    # Render over the full degree range of each space: 0..2 on the surface,
    # 0..2k on the Hilbert scheme (canonical GradedDims strips trailing zeros).
    x_cells = [str(on_x[i]) for i in range(3)]
    hilb_cells = [str(on_hilb[i]) for i in range(2 * args.k + 1)]
    if args.csv:
        rows = [["space", "dims"], ["X", " ".join(x_cells)], ["hilb", " ".join(hilb_cells)]]
        chunks = [_render_csv(rows)]
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
        chunks = [_render_json(payload), "\n"]
    _emit(args.out, chunks)
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


class _Parser(argparse.ArgumentParser):
    """Writes --help through _emit, so a closed or full stdout exits 2 as for
    every command, where argparse falls back to stderr or drops the error."""

    def print_help(self, file=None) -> None:
        if file is None:
            _emit(None, [self.format_help()])
        else:
            super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hilbstab",
        description=(
            "Exact admissibility certificates and searches for Mukai vectors "
            "on a Picard-rank-1 K3 surface and its Hilbert schemes of points."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, notes, text in (
        ("check", False, "certificate for one candidate"),
        ("report", True, "check with explanatory notes included"),
    ):
        p_cert = sub.add_parser(name, help=text)
        _add_candidate_args(p_cert)
        p_cert.add_argument(
            "--strict", action="store_true", help="exit 1 unless admissible"
        )
        _add_output_flags(p_cert)
        p_cert.set_defaults(func=_cmd_certificate, notes=notes)

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


def _settle(stream) -> None:
    """Flush a standard stream unless it is closed; if it cannot take what
    is buffered (a reader that is gone, a full device), point it at devnull
    so the flush at exit raises nothing."""
    try:
        if stream is not None:
            stream.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    if sys.stderr is None:  # stderr is closed: print its messages nowhere, not on stdout
        sys.stderr = open(os.devnull, "w", encoding="utf-8")
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help, or arguments argparse rejects
            code = exc.code if isinstance(exc.code, int) else 2
        else:
            code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:  # the reader is gone (say `| head`): exit quietly
        code = 2
    except (ValueError, OSError) as exc:  # NegativeExt: an Ext table that cannot exist
        code = 1 if isinstance(exc, NegativeExt) else 2
        try:
            print(f"error: {exc}", file=sys.stderr)
        except OSError:  # stderr is full as well
            pass
    _settle(sys.stdout)
    _settle(sys.stderr)
    return code


def console_entry() -> None:
    if hasattr(sys, "set_int_max_str_digits"):  # h^2 is unbounded: no digit cap
        sys.set_int_max_str_digits(0)
    sys.exit(main())

"""Command-line front end: check, report, search and ext subcommands.

Exit codes: 0 on success (and on admissible with --strict), 1 on a
semantic negative (--strict with a non-admissible candidate, or an Ext
table that cannot exist), 2 on malformed input or an environment failure
(an --out that cannot be written, which leaves a regular target as it
was, a full or closed stdout, a reader that closed the pipe, or running
out of memory).  A closed or full stderr loses only the error message,
never the exit code.  SIGTERM and SIGHUP end a run with the status the
signal gives, after --out's temporary file is removed and the workers
joined; SIGINT is unchanged.  Output goes to stdout or to --out; JSON is
the default format, --csv selects the flat projection.  Search output is
written record by record as hits are found.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
from itertools import chain, islice

from .certificate import CSV_COLUMNS, ExtRecord, build_certificate, certificate_csv_row
from .certificate import certificate_to_dict, ext_csv_rows, ext_to_dict
from .lattice import K3Surface, MukaiVector, require_int
from .pfunctor import NegativeExt, ext_dims_on_hilb, ext_dims_on_X
# enumerate_hits is unused here but stays importable: perfbench/traced.py
# wraps it by name.
from .search import InvalidQuery, SearchQuery, enumerate_hits, iter_hits  # noqa: F401


def _parse_range(text: str) -> int | tuple[int, int]:
    """N or LO-HI; each endpoint is read by int, as every other integer is."""
    lo, dash, hi = text.partition("-")
    try:
        return (int(lo), int(hi)) if dash else int(lo)
    except ValueError:
        raise InvalidQuery(f"malformed range: {text!r} (expected N or LO-HI)") from None


def _render_json(value) -> str:
    return json.dumps(value, indent=2)


def _render_csv(rows) -> str:
    """CSV text of rows, one "\n"-ended line each, as csv.writer writes them.

    Every cell the program writes is a name, true or false, empty, or one or
    more space-separated decimals, and every row has several cells, so no
    cell needs quoting.
    """
    return "".join(",".join(row) + "\n" for row in rows)


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


def _standard_stream(info: os.stat_result):
    """sys.stdout or sys.stderr if its descriptor is the file info describes,
    else None; a closed descriptor matches nothing."""
    for fd, stream in ((1, sys.stdout), (2, sys.stderr)):
        try:
            if os.path.samestat(info, os.fstat(fd)):
                return stream
        except OSError:  # the descriptor is closed
            pass
    return None


def _writable_descriptor(out: str) -> int | None:
    """N if out, an existing path, is `/dev/fd/N` or `/proc/self/fd/N` and
    descriptor N is open for writing, else None."""
    head, name = os.path.split(out)
    if head not in ("/dev/fd", "/proc/self/fd"):
        return None
    import fcntl  # POSIX only, as these paths are

    fd = int(name)  # the path exists, so it names an open descriptor
    return None if fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_ACCMODE == os.O_RDONLY else fd


def _emit(out: str | None, chunks) -> None:
    """Write the text chunks to stdout and flush it, or to a file that replaces out.

    The chunks may be produced lazily, so output streams as it is made.
    An out whose last component is empty, `.` or `..` names a directory and
    raises at once.  An out that is the file stdout or stderr writes to
    (`/dev/stdout`, or the file the shell redirected it to) is written
    through that stream, and a `/dev/fd/N` open for writing through
    descriptor N, so an appending or shared descriptor keeps what it holds.
    Otherwise a regular (or new) file is written to `.hilbstab.<16 hex>.tmp`
    beside its resolved path and moved onto it only once every chunk is
    written, so a failure never leaves a truncated output behind; a symlink
    is written through and the file keeps its mode.  Where no file can be
    made beside it, the OSError names out.  Anything else (a device, a
    FIFO, a pipe) is written in place."""
    if out is None:
        if sys.stdout is None:
            raise OSError("standard output is closed")
        stream = sys.stdout
    else:
        if os.path.basename(out) in ("", ".", ".."):  # realpath would drop it
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
        try:  # follows symlinks and /proc/<pid>/fd links, even to a pipe with no path
            info = os.stat(out)
        except FileNotFoundError:
            info = stream = None
        else:
            stream = _standard_stream(info)
    if stream is not None:
        stream.writelines(chunks)
        stream.flush()
        return
    fd = None if info is None else _writable_descriptor(out)
    if fd is not None or (info is not None and not stat.S_ISREG(info.st_mode)):
        with open(out if fd is None else fd, "w", encoding="utf-8", newline="",
                  closefd=fd is None) as fh:
            fh.writelines(chunks)
        return
    real = os.path.realpath(out)
    tmp = os.path.join(os.path.dirname(real), f".hilbstab.{os.urandom(8).hex()}.tmp")
    try:  # O_EXCL never follows or reuses a name; O_BINARY keeps newlines; 0o600
        # is never wider than an existing target, not even before the fchmod
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0),
                     0o666 if info is None else 0o600)
    except OSError as exc:  # a read-only directory, a full disk: name the target
        raise OSError(exc.errno, exc.strerror, out) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            if info is not None:
                os.fchmod(fd, stat.S_IMODE(info.st_mode))
            fh.writelines(chunks)
        os.replace(tmp, real)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:  # a signal right after os.replace moved it
            pass
        raise


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
    if args.limit is not None:
        require_int(args.limit, "--limit", 0)
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
    rec = ExtRecord(surface, args.k, v, args.distinct, on_x, ext_dims_on_hilb(on_x, args.k))
    if args.csv:
        chunks = [_render_csv(ext_csv_rows(rec))]
    else:
        chunks = [_render_json(ext_to_dict(rec)), "\n"]
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
    sys.set_int_max_str_digits(0)  # h^2 is unbounded: no digit cap, from here on, for the whole process
    if sys.stderr is None:  # stderr is closed: print its messages nowhere, not on stdout
        sys.stderr = open(os.devnull, "w", encoding="utf-8")
    import signal  # not at top level: `import hilbstab.cli` does not load it

    caught = []

    def stop(signum, frame) -> None:  # unwinds through _emit's and the pool's cleanup
        if not caught:  # a second signal does not cut that cleanup short
            caught.append(signum)
            raise SystemExit(128 + signum)

    installed = []  # never over a handler or an ignored signal (nohup ignores SIGHUP)
    for name in ("SIGTERM", "SIGHUP"):  # Windows has no SIGHUP
        signum = getattr(signal, name, None)
        if signum is not None and signal.getsignal(signum) is signal.SIG_DFL:
            try:
                signal.signal(signum, stop)
            except ValueError:  # not the main thread, which alone may set handlers
                break
            installed.append(signum)
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help, or arguments argparse rejects
            code = exc.code if isinstance(exc.code, int) else 2
        else:
            code = args.func(args)
    except BrokenPipeError:  # the reader is gone (say `| head`): exit quietly
        code = 2
    except (ValueError, OSError, MemoryError) as exc:  # NegativeExt: an Ext table that cannot exist
        code = 1 if isinstance(exc, NegativeExt) else 2
        message = "out of memory" if isinstance(exc, MemoryError) else exc  # it has no text
        try:
            print(f"error: {message}", file=sys.stderr)
        except OSError:  # stderr is full as well
            pass
    finally:
        for signum in installed:
            signal.signal(signum, signal.SIG_DFL)
        if caught:  # end with the status the signal gives, as without the handler
            signal.raise_signal(caught[0])
    _settle(sys.stdout)
    _settle(sys.stderr)
    return code

import contextlib
import csv
import errno
import io
import itertools
import json
import os
import shlex
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from child_env import child_env, run_hilbstab
from hypothesis import example, given, settings

from hilbstab import cli
from hilbstab.certificate import CSV_COLUMNS, ExtRecord, build_certificate
from hilbstab.certificate import certificate_csv_row, ext_csv_rows
from hilbstab.cli import main
from hilbstab.lattice import K3Surface, MukaiVector
from hilbstab.pfunctor import NegativeExt, ext_dims_on_hilb, ext_dims_on_X

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------- exit codes


def test_check_admissible_strict_exits_0(capsys):
    code, out, _ = run_cli(capsys, "check", "50", "2", "3", "1", "8", "--strict")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["margin"] == "1"
    assert payload["report"]["admissible"] is True


def test_check_strict_non_admissible_exits_1(capsys):
    code, out, _ = run_cli(capsys, "check", "50", "2", "4", "1", "6", "--strict")
    assert code == 1
    assert json.loads(out)["report"]["ineq_ok"] is False


def test_check_without_strict_exits_0_on_non_admissible(capsys):
    code, _, _ = run_cli(capsys, "check", "50", "2", "4", "1", "6")
    assert code == 0


def test_check_odd_h2_exits_2(capsys):
    code, _, err = run_cli(capsys, "check", "49", "2", "3", "1", "8")
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


def test_check_nonpositive_rank_exits_2(capsys):
    code, _, _ = run_cli(capsys, "check", "50", "2", "0", "1", "8")
    assert code == 2


def test_check_malformed_integer_exits_2(capsys):
    code, _, _ = run_cli(capsys, "check", "50", "2", "x", "1", "8")
    assert code == 2


def test_search_empty_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "search", "4-2", "2")
    assert code == 2
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "h2, k, message",
    [
        ("3", "2", "h_squared must be a positive even integer, got 3"),
        ("2-11", "2", "h_squared must be a positive even integer, got 11"),
        ("50", "0", "k must be a positive integer, got 0"),
    ],
)
def test_search_bad_h2_or_k_exits_2_with_the_owners_message(capsys, h2, k, message):
    assert run_cli(capsys, "search", h2, k) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text", ["50..60", "5e1", "0x32", "-50", "50-", "-", ""])
def test_search_malformed_range_exits_2(capsys, text):
    assert run_cli(capsys, "search", text, "2") == (
        2, "", f"error: malformed range: {text!r} (expected N or LO-HI)\n"
    )


# every spelling of 50 that int reads, as argparse reads the integers of check
@pytest.mark.parametrize(
    "h2", ["+50", "5_0", " 50 ", "\u0665\u0660"], ids=["plus", "underscore", "spaces", "arabic"]
)
@pytest.mark.parametrize(
    "command,rest,golden",
    [("search", ["2"], "search_50_2.csv"), ("check", ["2", "3", "1", "8"], "check_50_2_3_1_8.csv")],
    ids=["search", "check"],
)
def test_search_and_check_read_h2_alike(capsys, command, rest, golden, h2):
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    assert run_cli(capsys, command, h2, *rest, "--csv") == (0, expected, "")


def test_search_range_endpoints_are_read_by_int(capsys):
    expected = run_cli(capsys, "search", "48-52", "2", "--csv")
    assert expected[0] == 0
    assert run_cli(capsys, "search", "+48-5_2", "2", "--csv") == expected


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_conflicting_formats_exit_2(capsys):
    assert main(["check", "50", "2", "3", "1", "8", "--json", "--csv"]) == 2


# ------------------------------------------------------------------ search


def test_search_csv_rows(capsys):
    code, out, _ = run_cli(capsys, "search", "50", "2", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4  # header + 3 hits
    assert lines[0].startswith("h_squared,k,r,m,s,")
    last = lines[-1].split(",")
    assert last[:5] == ["50", "2", "3", "1", "8"]


def test_search_json_contains_worked_example_b(capsys):
    code, out, _ = run_cli(capsys, "search", "186", "3", "--json")
    assert code == 0
    hits = json.loads(out)
    vectors = [(h["input"]["r"], h["input"]["m"], h["input"]["s"]) for h in hits]
    assert ("5", "1", "18") in vectors
    assert all(h["report"]["admissible"] is True for h in hits)


def test_search_limit_truncates_after_ordering(capsys):
    _, full, _ = run_cli(capsys, "search", "50", "2", "--json")
    code, limited, _ = run_cli(capsys, "search", "50", "2", "--json", "--limit", "2")
    assert code == 0
    assert json.loads(limited) == json.loads(full)[:2]


def test_search_limit_zero(capsys):
    code, out, _ = run_cli(capsys, "search", "50", "2", "--json", "--limit", "0")
    assert code == 0
    assert json.loads(out) == []


def test_search_negative_limit_exits_2(capsys):
    assert run_cli(capsys, "search", "50", "2", "--limit", "-1") == (
        2, "", "error: --limit must be a non-negative integer, got -1\n"
    )


def test_search_range_query(capsys):
    code, out, _ = run_cli(capsys, "search", "48-52", "2-3", "--json")
    assert code == 0
    hits = json.loads(out)
    keys = [
        (int(h["input"]["h_squared"]), int(h["input"]["k"]), int(h["input"]["r"]))
        for h in hits
    ]
    assert keys == sorted(keys)
    assert any(h2 == 50 and k == 2 for h2, k, _ in keys)


def test_search_workers_output_identical(capsys):
    _, serial, _ = run_cli(capsys, "search", "2-40", "2-3", "--json")
    code, parallel, _ = run_cli(capsys, "search", "2-40", "2-3", "--json", "--workers", "3")
    assert code == 0
    assert parallel == serial


# --------------------------------------------------------------------- ext


def test_ext_same_object(capsys):
    code, out, _ = run_cli(capsys, "ext", "50", "2", "3", "1", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["ext_on_X"] == ["1", "4", "1"]
    assert payload["ext_on_hilb"] == ["1", "4", "2", "4", "1"]


def test_ext_distinct(capsys):
    code, out, _ = run_cli(capsys, "ext", "50", "2", "3", "1", "8", "--distinct")
    assert code == 0
    payload = json.loads(out)
    assert payload["ext_on_X"] == ["0", "2", "0"]
    assert payload["ext_on_hilb"] == ["0", "2", "0", "2", "0"]


def test_ext_k_1_identical_rows(capsys):
    code, out, _ = run_cli(capsys, "ext", "50", "1", "3", "1", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["ext_on_X"] == payload["ext_on_hilb"]


def test_ext_negative_ext_exits_1(capsys):
    code, _, err = run_cli(capsys, "ext", "50", "2", "1", "1", "26", "--distinct")
    assert code == 1
    assert "error:" in err


def test_ext_checks_rank_before_the_sign_of_ext1(capsys):
    # v^2 + 2 = -28 would exit 1; the rank is checked first
    code, out, err = run_cli(capsys, "ext", "50", "2", "-1", "1", "-40")
    assert code == 2
    assert out == ""
    assert err == "error: rank must be positive, got r=-1\n"


def test_ext_csv(capsys):
    code, out, _ = run_cli(capsys, "ext", "50", "2", "3", "1", "8", "--csv")
    assert code == 0
    assert out == "space,dims\nX,1 4 1\nhilb,1 4 2 4 1\n"


@settings(max_examples=200)
@given(
    h2=st.one_of(st.integers(1, 600), st.integers(1, 5 * 10**29)).map(lambda n: 2 * n),
    k=st.integers(1, 6),
    r=st.integers(1, 20),
    m=st.integers(-3, 3),
    ds=st.one_of(st.integers(-3, 3), st.integers(-(10**31), 10**31)),
    distinct=st.booleans(),
)
@example(h2=50, k=2, r=3, m=1, ds=0, distinct=False)  # worked example A
@example(h2=50, k=1, r=3, m=1, ds=0, distinct=False)  # k = 1: empty Neron-Severi cells
@example(h2=50, k=2, r=3, m=2, ds=-17, distinct=True)  # m != 1: no product_c1
@example(h2=50, k=2, r=1, m=1, ds=1, distinct=False)  # empty moduli: no Ext tables
def test_csv_rows_need_no_quoting(h2, k, r, m, ds, distinct):
    """The rows `check --csv` and `ext --csv` print hold no cell csv would
    quote, so joining them with commas gives csv.writer's bytes."""
    surface = K3Surface(h2)
    v = MukaiVector(r, m, (m * m * h2 + 2) // (2 * r) + ds)  # v^2 near -2 when ds is small
    rows = [CSV_COLUMNS, certificate_csv_row(build_certificate(surface, v, k))]
    with contextlib.suppress(NegativeExt):
        on_x = ext_dims_on_X(surface, v, v, same_object=not distinct)
        rows += ext_csv_rows(ExtRecord(surface, k, v, distinct, on_x, ext_dims_on_hilb(on_x, k)))
    for row in rows:
        assert row != [""]
        assert not any(set(cell) & set(',"\r\n') for cell in row), row
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert cli._render_csv(rows) == buf.getvalue()


# ---------------------------------------------------------- check vs report


def test_report_adds_notes(capsys):
    _, check_out, _ = run_cli(capsys, "check", "50", "2", "3", "1", "8")
    code, report_out, _ = run_cli(capsys, "report", "50", "2", "3", "1", "8")
    assert code == 0
    check_payload = json.loads(check_out)
    report_payload = json.loads(report_out)
    assert "notes" not in check_payload
    assert report_payload["notes"]
    del report_payload["notes"]
    assert report_payload == check_payload


def test_report_strict(capsys):
    assert main(["report", "50", "2", "4", "1", "6", "--strict"]) == 1


# ----------------------------------------------------------------- --out


def test_out_writes_same_bytes_as_stdout(capsys, tmp_path):
    _, stdout_text, _ = run_cli(capsys, "check", "50", "2", "3", "1", "8")
    target = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "check", "50", "2", "3", "1", "8", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == stdout_text


def test_out_search_writes_same_bytes_as_stdout(capsys, tmp_path):
    _, stdout_text, _ = run_cli(capsys, "search", "2-60", "2-3", "--csv")
    target = tmp_path / "hits.csv"
    code, out, _ = run_cli(capsys, "search", "2-60", "2-3", "--csv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == stdout_text
    assert [p.name for p in tmp_path.iterdir()] == ["hits.csv"]


def test_out_unwritable_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "check", "50", "2", "3", "1", "8", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err


def forbid_umask(monkeypatch):
    """Fail the test if os.umask is called: the umask belongs to the whole
    process, so changing it even briefly changes the mode of a file that
    another thread creates meanwhile."""

    def umask(mask):
        pytest.fail(f"os.umask({mask:#o}) called")

    monkeypatch.setattr(os, "umask", umask)


def test_out_keeps_mode_of_existing_file(capsys, tmp_path, monkeypatch):
    target = tmp_path / "cert.json"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o600)
    forbid_umask(monkeypatch)
    created, os_open = [], os.open

    def recording_open(path, flags, mode=0o777, **kwargs):
        if flags & os.O_CREAT:
            created.append(mode)
        return os_open(path, flags, mode, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    code, _, _ = run_cli(capsys, "check", "50", "2", "3", "1", "8", "--out", str(target))
    assert code == 0
    # the temporary file is never readable by more users than the target,
    # not even before it takes the target's mode
    assert created == [0o600]
    assert target.stat().st_mode & 0o777 == 0o600
    assert json.loads(target.read_text(encoding="utf-8"))["report"]["admissible"] is True


def test_out_new_file_gets_umask_mode(capsys, tmp_path, monkeypatch):
    umask = os.umask(0o022)
    try:
        forbid_umask(monkeypatch)
        target = tmp_path / "cert.json"
        code, _, _ = run_cli(capsys, "check", "50", "2", "3", "1", "8", "--out", str(target))
    finally:
        monkeypatch.undo()
        os.umask(umask)
    assert code == 0
    assert target.stat().st_mode & 0o777 == 0o644


def test_out_writes_through_symlink(capsys, tmp_path):
    _, stdout_text, _ = run_cli(capsys, "check", "50", "2", "3", "1", "8")
    (tmp_path / "data").mkdir()
    real = tmp_path / "data" / "cert.json"
    real.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    code, out, _ = run_cli(capsys, "check", "50", "2", "3", "1", "8", "--out", str(link))
    assert code == 0 and out == ""
    assert link.is_symlink() and link.resolve() == real
    assert real.read_text(encoding="utf-8") == stdout_text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "link.json"]
    assert [p.name for p in real.parent.iterdir()] == ["cert.json"]


def test_out_writes_into_fifo(capsys, tmp_path):
    _, stdout_text, _ = run_cli(capsys, "search", "2-60", "2-3", "--csv")
    fifo = tmp_path / "hits.fifo"
    os.mkfifo(fifo)
    received = []

    def reader():
        with open(fifo, encoding="utf-8", newline="") as fh:
            received.append(fh.read())

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    code, out, _ = run_cli(capsys, "search", "2-60", "2-3", "--csv", "--out", str(fifo))
    thread.join(timeout=10)
    assert code == 0 and out == ""
    assert received == [stdout_text]
    assert fifo.is_fifo()
    assert [p.name for p in tmp_path.iterdir()] == ["hits.fifo"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_out_writes_into_anonymous_pipe(capsys, tmp_path):
    # what `--out /dev/stdout | cat` names: a link to a pipe that has no path
    _, stdout_text, _ = run_cli(capsys, "search", "2-60", "2-3", "--csv")
    r, w = os.pipe()
    received = []

    def reader():
        with os.fdopen(r, encoding="utf-8", newline="") as fh:
            received.append(fh.read())

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    try:
        code, out, _ = run_cli(capsys, "search", "2-60", "2-3", "--csv", "--out", f"/proc/self/fd/{w}")
    finally:
        os.close(w)
    thread.join(timeout=10)
    assert code == 0 and out == ""
    assert received == [stdout_text]


@pytest.mark.parametrize("target", ["dir", "missing/", "missing/.", "missing/.."])
def test_out_directory_target_exits_2(capsys, tmp_path, monkeypatch, target):
    # a last component that is empty, . or .. names a directory, existing or not
    (tmp_path / "dir").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "check", "50", "2", "3", "1", "8", "--out", target)
    assert (code, out, err) == (2, "", f"error: [Errno 21] Is a directory: {target!r}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert list((tmp_path / "dir").iterdir()) == []


def test_out_empty_path_exits_2_and_creates_nothing(capsys, tmp_path, monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    code, out, err = run_cli(capsys, "check", "50", "2", "3", "1", "8", "--out", "")
    assert (code, out, err) == (2, "", "error: [Errno 21] Is a directory: ''\n")
    assert list(tmp_path.iterdir()) == [cwd]
    assert list(cwd.iterdir()) == []


# a name 22 characters short of the 255 most file systems allow: too long
# for a temporary name built from it, so it needs a fixed-length one
LONG_NAME = "hits" + "_" * 232 + ".csv"


@pytest.mark.parametrize("name", ["hits.csv", LONG_NAME], ids=["short", "long"])
def test_out_failed_stream_keeps_old_file(capsys, tmp_path, monkeypatch, name):
    target = tmp_path / name
    target.write_text("old\n", encoding="utf-8")
    row = cli.certificate_csv_row
    calls = itertools.count()

    def failing_row(cert):
        if next(calls) == 3:
            raise OSError(28, "No space left on device")
        return row(cert)

    monkeypatch.setattr(cli, "certificate_csv_row", failing_row)
    code, out, err = run_cli(capsys, "search", "2-60", "2-3", "--csv", "--out", str(target))
    assert code == 2
    assert out == ""
    assert "No space left on device" in err
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_out_closes_every_descriptor(capsys, tmp_path, monkeypatch):
    target = tmp_path / "hits.csv"
    fds = os.listdir("/proc/self/fd")
    for _ in range(2):  # a new target, then an existing one
        code, _, _ = run_cli(capsys, "check", "50", "2", "3", "1", "8", "--out", str(target))
        assert code == 0

    def failing_row(cert):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "certificate_csv_row", failing_row)
    code, _, _ = run_cli(capsys, "search", "2-60", "2-3", "--csv", "--out", str(target))
    assert code == 2
    assert len(os.listdir("/proc/self/fd")) == len(fds)
    assert [p.name for p in tmp_path.iterdir()] == ["hits.csv"]


def test_out_long_name_is_replaced_whole(capsys, tmp_path):
    _, stdout_text, _ = run_cli(capsys, "search", "2-60", "2-3", "--csv")
    target = tmp_path / LONG_NAME
    target.write_text("old\n", encoding="utf-8")
    with open(target, encoding="utf-8") as old:  # the replaced file, still open
        code, out, _ = run_cli(capsys, "search", "2-60", "2-3", "--csv", "--out", str(target))
        assert old.read() == "old\n"
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == stdout_text
    assert [p.name for p in tmp_path.iterdir()] == [LONG_NAME]


def assert_untouched(code, out, err, target, tmp_path):
    """Exit 2 with an error naming target, which still holds "old\n" alone."""
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err and "Traceback" not in err
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


@pytest.mark.parametrize("number", [errno.ENOSPC, errno.EACCES], ids=["ENOSPC", "EACCES"])
def test_out_no_temporary_file_leaves_target_untouched(capsys, tmp_path, monkeypatch, number):
    target = tmp_path / "hits.csv"
    target.write_text("old\n", encoding="utf-8")
    os_open = os.open

    def refusing_open(path, flags, *args, **kwargs):
        if flags & os.O_CREAT:
            raise OSError(number, os.strerror(number), path)
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", refusing_open)
    code, out, err = run_cli(capsys, "search", "2-60", "2-3", "--csv", "--out", str(target))
    assert_untouched(code, out, err, target, tmp_path)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_out_failed_fchmod_leaves_no_file_or_descriptor(capsys, tmp_path, monkeypatch):
    target = tmp_path / "cert.json"
    target.write_text("old\n", encoding="utf-8")
    fds = os.listdir("/proc/self/fd")

    def fchmod(fd, mode):
        raise PermissionError(errno.EPERM, "Operation not permitted")

    monkeypatch.setattr(os, "fchmod", fchmod)
    code, _, err = run_cli(capsys, "check", "50", "2", "3", "1", "8", "--out", str(target))
    assert code == 2 and "Operation not permitted" in err
    assert len(os.listdir("/proc/self/fd")) == len(fds)
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cert.json"]


@pytest.mark.skipif(
    not hasattr(os, "geteuid") or os.geteuid() == 0,
    reason="root may create files in a read-only directory",
)
def test_out_read_only_directory_leaves_target_untouched(capsys, tmp_path):
    target = tmp_path / "hits.csv"
    target.write_text("old\n", encoding="utf-8")
    tmp_path.chmod(0o555)
    try:
        code, out, err = run_cli(capsys, "search", "2-60", "2-3", "--csv", "--out", str(target))
    finally:
        tmp_path.chmod(0o755)
    assert_untouched(code, out, err, target, tmp_path)


# ------------------------------------------------------------------ signals


POSIX_SIGNALS = pytest.mark.skipif(not hasattr(signal, "SIGHUP"), reason="needs POSIX signals")


@contextlib.contextmanager
def search_in_session(target, h2, *options, **kwargs):
    """`python -m hilbstab search H2 2 --out TARGET OPTIONS` started in a new
    session, yielded once the scan has written to the temporary file beside
    target; whatever is left of the session is killed on the way out."""
    argv = [sys.executable, "-m", "hilbstab", "search", h2, "2", "--out", str(target), *options]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=child_env(), start_new_session=True, **kwargs) as proc:
        try:
            deadline = time.monotonic() + 10
            while not any(tmp.stat().st_size for tmp in target.parent.glob(".hilbstab.*.tmp")):
                assert proc.poll() is None and time.monotonic() < deadline, "no temporary file"
                time.sleep(0.01)
            yield proc
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)


def session_ends(pid) -> bool:
    """Whether no process is left in session pid within 5 s."""
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.01)
    return False


@POSIX_SIGNALS
@pytest.mark.parametrize(
    "name,workers,whole_session",
    [
        ("SIGTERM", "1", False),
        ("SIGTERM", "2", False),  # the search alone: it must end its workers
        ("SIGTERM", "2", True),  # as `timeout` signals: the workers get it too
        ("SIGHUP", "1", False),
    ],
    ids=["term", "term-workers", "term-session", "hup"],
)
def test_out_signal_leaves_target_and_no_temporary_file(tmp_path, name, workers, whole_session):
    # the search, which would run for several seconds, is stopped mid-scan
    target = tmp_path / "f"
    target.write_text("old\n", encoding="utf-8")
    signum = getattr(signal, name)
    with search_in_session(target, "2-3000", "--workers", workers) as proc:
        (os.killpg if whole_session else os.kill)(proc.pid, signum)
        _, err = proc.communicate(timeout=10)
        assert proc.returncode == -signum
        assert [p.name for p in tmp_path.iterdir()] == ["f"]
        assert target.read_text(encoding="utf-8") == "old\n"
        assert "Traceback" not in err
        assert session_ends(proc.pid)


def test_out_signal_after_the_move_is_no_error(capsys, tmp_path, monkeypatch):
    # the signal's exit lands once os.replace has moved the temporary file away
    target = tmp_path / "f"
    target.write_text("old\n", encoding="utf-8")
    replace = os.replace

    def replace_then_exit(src, dst):
        replace(src, dst)
        raise SystemExit(128 + 15)

    monkeypatch.setattr(os, "replace", replace_then_exit)
    with pytest.raises(SystemExit):
        main(["check", "50", "2", "3", "1", "8", "--csv", "--out", str(target)])
    assert capsys.readouterr().err == ""
    assert target.read_text(encoding="utf-8") == CHECK_CSV
    assert [p.name for p in tmp_path.iterdir()] == ["f"]


@POSIX_SIGNALS
def test_out_ignored_sighup_changes_nothing(tmp_path):
    # as under nohup: the search runs to its end and replaces the target
    target = tmp_path / "f"
    target.write_text("old\n", encoding="utf-8")

    def ignore_sighup():
        signal.signal(signal.SIGHUP, signal.SIG_IGN)

    with search_in_session(target, "2-600", preexec_fn=ignore_sighup) as proc:
        os.kill(proc.pid, signal.SIGHUP)
        out, err = proc.communicate(timeout=30)
    assert (proc.returncode, out, err) == (0, "", "")
    assert target.read_text(encoding="utf-8").startswith("[\n")
    assert [p.name for p in tmp_path.iterdir()] == ["f"]


@POSIX_SIGNALS
@pytest.mark.parametrize("h2,code", [("50", 0), ("51", 2)], ids=["exit-0", "exit-2"])
def test_main_gives_back_the_signal_handlers_it_found(capsys, h2, code):
    argv = ["check", h2, "2", "3", "1", "8"]
    before = [signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGHUP)]
    assert run_cli(capsys, *argv)[0] == code
    assert [signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGHUP)] == before
    previous = signal.signal(signal.SIGTERM, print)  # a handler main must leave alone
    try:
        assert run_cli(capsys, *argv)[0] == code
        assert signal.getsignal(signal.SIGTERM) is print
    finally:
        signal.signal(signal.SIGTERM, previous)


def test_main_runs_outside_the_main_thread(capsys):
    # only the main thread may set a handler: elsewhere main sets none
    codes = []
    argv = ["check", "50", "2", "3", "1", "8", "--csv"]
    thread = threading.Thread(target=lambda: codes.append(main(argv)))
    thread.start()
    thread.join()
    assert codes == [0]
    assert capsys.readouterr().out == CHECK_CSV


# ------------------------------------------------------- streaming, processes


def run_module(*argv, timeout=10.0):
    """`python -m hilbstab ARGV` in a subprocess; a hang fails after `timeout`."""
    return run_hilbstab(*argv, timeout=timeout, text=True)


def test_search_k_beyond_every_h2_returns_at_once():
    # k > (h^2 + 4) // 4 admits no rank, so the box holds no cell to scan
    proc = run_module("search", "2", "1000000-1000000000000", "--limit", "1")
    assert proc.returncode == 0
    assert proc.stdout == "[]\n"
    assert proc.stderr == ""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_search_limit_over_huge_h2_range_stops_early(workers):
    proc = run_module(
        "search", "2-2000000000000", "2", "--limit", "1", "--workers", workers
    )
    assert proc.returncode == 0
    hits = json.loads(proc.stdout)
    assert [(h["input"]["h_squared"], h["input"]["r"], h["input"]["s"]) for h in hits] == [
        ("4", "1", "3")
    ]


@pytest.mark.parametrize("fmt", ["--json", "--csv"])
def test_search_limit_above_sys_maxsize_is_no_limit(fmt):
    unlimited = run_module("search", "2-10", "2", fmt)
    proc = run_module("search", "2-10", "2", fmt, "--limit", str(2**64))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == unlimited.stdout


@pytest.mark.parametrize("k", [10**18, 10**20])
@pytest.mark.parametrize(
    "argv",
    [["check"], ["report", "--csv"], ["ext", "--distinct"]],
    ids=["check", "report-csv", "ext-distinct"],
)
def test_k_too_large_for_the_ext_table_exits_2(argv, k):
    # no Ext table of 2k + 1 degrees fits in memory: refused, not attempted
    proc = run_module(argv[0], "50", str(k), "3", "1", "8", *argv[1:])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: k = {k} is too large for an Ext table of 2k + 1 degrees\n"


@pytest.mark.xfail(strict=True, reason="single huge cell scanned in full; ROADMAP item 2")
def test_search_limit_in_single_huge_cell_returns_first_row():
    # one (h^2, k) cell with O(h^2) candidates: the scan of the whole cell
    # comes before its first hit
    proc = run_module("search", "2000000000000000000000", "2", "--limit", "1", timeout=2.0)
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)) == 1


def test_search_broken_pipe_exits_2_silently():
    proc = subprocess.Popen(
        [sys.executable, "-m", "hilbstab", "search", "2-1000", "2-4", "--csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    try:
        header = proc.stdout.readline()
        proc.stdout.close()  # the reader goes away, as `| head -1` does
        _, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
        proc.wait()
    assert header.startswith(b"h_squared,k,r,m,s,")
    assert proc.returncode == 2
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["check", "50", "2", "3", "1", "8"],
        ["report", "50", "2", "3", "1", "8"],
        ["ext", "50", "2", "3", "1", "8"],
        ["search", "50", "2"],
        ["--help"],
    ],
    ids=["check", "report", "ext", "search", "help"],
)
def test_full_stdout_exits_2(argv):
    # With buffered stdout the output only meets the full device when it is
    # flushed, after the command has returned.
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        proc = run_hilbstab(*argv, timeout=10, stdout=full, text=True, env=env)
    assert proc.returncode == 2
    assert "No space left on device" in proc.stderr
    assert "Exception ignored" not in proc.stderr


# ------------------------------------------------------- closed standard streams


def run_shell(redirect, *argv, buffered=False, then=None):
    """`python -m hilbstab ARGV REDIRECT` through sh, which can close fd 1 or 2;
    with `then`, `{ python -m hilbstab ARGV; THEN; } REDIRECT`, one redirect for both."""
    env = child_env()
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    command = '"$0" -m hilbstab "$@"'
    if then is not None:
        command = f"{{ {command}; {then}; }}"
    return subprocess.run(
        ["sh", "-c", f"{command} {redirect}", sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )


CHECK_CSV = (GOLDEN / "check_50_2_3_1_8.csv").read_text(encoding="utf-8")


NO_PROC_FD = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")


@pytest.mark.parametrize(
    "fd,out",
    [("", "/dev/stdout"), ("2", "/dev/stderr"), pytest.param("3", "/dev/fd/3", marks=NO_PROC_FD)],
)
def test_out_standard_stream_appends_where_the_stream_appends(tmp_path, fd, out):
    # the shell opens the target with O_APPEND; replacing it would drop "old"
    target = tmp_path / "f"
    target.write_text("old\n", encoding="utf-8")
    argv = ["check", "50", "2", "3", "1", "8", "--csv", "--out", out]
    proc = run_shell(f"{fd}>> {shlex.quote(str(target))}", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert target.read_text(encoding="utf-8") == "old\n" + CHECK_CSV


@pytest.mark.parametrize(
    "fd,out,then",
    [("", "/dev/stdout", "echo done"), pytest.param("3", "/dev/fd/3", "echo done >&3", marks=NO_PROC_FD)],
    ids=["stdout", "fd-3"],
)
def test_out_dev_stdout_leaves_the_shells_descriptor_on_the_file(tmp_path, fd, out, then):
    # what the shell writes after the command must land in the same file
    target = tmp_path / "f"
    argv = ["check", "50", "2", "3", "1", "8", "--csv", "--out", out]
    proc = run_shell(f"{fd}> {shlex.quote(str(target))}", *argv, then=then)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert target.read_text(encoding="utf-8") == CHECK_CSV + "done\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f"]


@pytest.mark.parametrize(
    "out", [None, pytest.param("/dev/fd/0", marks=NO_PROC_FD)], ids=["path", "dev-fd-0"]
)
def test_out_onto_the_file_stdin_reads_replaces_it(tmp_path, out):
    # a descriptor open only for reading is no stream to write through
    target = tmp_path / "h"
    target.write_text("old\n", encoding="utf-8")
    argv = ["check", "50", "2", "3", "1", "8", "--csv", "--out", out or str(target)]
    proc = run_shell(f"< {shlex.quote(str(target))}", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert target.read_text(encoding="utf-8") == CHECK_CSV
    assert [p.name for p in tmp_path.iterdir()] == ["h"]


NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
CLOSED_STREAM_CASES = [
    pytest.param(">&-", ["check", "50", "2", "3", "1", "8"], 2, id="check-no-stdout"),
    pytest.param(">&-", ["report", "50", "2", "3", "1", "8", "--csv"], 2, id="report-no-stdout"),
    pytest.param(">&-", ["ext", "50", "2", "3", "1", "8"], 2, id="ext-no-stdout"),
    pytest.param(">&-", ["search", "50", "2"], 2, id="search-no-stdout"),
    pytest.param(
        ">&-", ["search", "2-60", "2-3", "--csv", "--workers", "2"], 2, id="pool-no-stdout"
    ),
    pytest.param("2>&-", ["check", "50", "x", "3", "1", "8"], 2, id="bad-argument-no-stderr"),
    pytest.param(
        "2>&-", ["check", "50", "2", "3", "1", "8", "--out", "/nonexistent/dir/out"], 2,
        id="bad-out-no-stderr",
    ),
    pytest.param("2>&-", ["ext", "50", "2", "1", "0", "5"], 1, id="negative-ext-no-stderr"),
    pytest.param(
        "2>&- >&-", ["check", "50", "2", "3", "1", "8", "--strict"], 2, id="no-stdout-no-stderr"
    ),
    pytest.param(
        "2>&- >/dev/full", ["check", "50", "2", "3", "1", "8"], 2, id="full-stdout-no-stderr",
        marks=NO_DEV_FULL,
    ),
    pytest.param(
        "2>/dev/full", ["check", "50", "2", "3", "1", "8", "--out", "/nonexistent/dir/out"], 2,
        id="bad-out-full-stderr", marks=NO_DEV_FULL,
    ),
    pytest.param(">&-", ["--help"], 2, id="help-no-stdout"),
    pytest.param(">&-", ["check", "--help"], 2, id="subcommand-help-no-stdout"),
    pytest.param(">/dev/full", ["--help"], 2, id="help-full-stdout", marks=NO_DEV_FULL),
]


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("redirect,argv,code", CLOSED_STREAM_CASES)
def test_closed_stream_keeps_exit_code(redirect, argv, code, buffered):
    proc = run_shell(redirect, *argv, buffered=buffered)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    if redirect == ">&-":
        assert proc.stderr == "error: standard output is closed\n"


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_out_with_closed_stdout_exits_0(tmp_path, buffered):
    target = tmp_path / "check.csv"
    argv = ["check", "50", "2", "3", "1", "8", "--csv", "--out", str(target)]
    proc = run_shell(">&-", *argv, buffered=buffered)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert target.read_text(encoding="utf-8") == CHECK_CSV


# ------------------------------------------------------------ golden files


GOLDEN_CASES = [
    ("report_50_2_3_1_8.json", ["report", "50", "2", "3", "1", "8"]),
    ("report_186_3_5_1_18.json", ["report", "186", "3", "5", "1", "18"]),
    ("check_50_2_3_1_8.csv", ["check", "50", "2", "3", "1", "8", "--csv"]),
    ("check_186_3_5_1_18.csv", ["check", "186", "3", "5", "1", "18", "--csv"]),
    ("search_50_2.json", ["search", "50", "2", "--json"]),
    ("search_50_2.csv", ["search", "50", "2", "--csv"]),
    ("search_186_3.json", ["search", "186", "3", "--json"]),
    ("search_186_3.csv", ["search", "186", "3", "--csv"]),
]


@pytest.mark.parametrize("filename,argv", GOLDEN_CASES)
def test_golden_output_byte_exact(capsys, filename, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    golden = (GOLDEN / filename).read_text(encoding="utf-8", errors="strict")
    assert out == golden


# ext 50 1 1 1 25 --distinct has an all-zero table: every degree is still
# printed, where the canonical (stripped) GradedDims would print nothing.
EXT_ZEROS_JSON = """{
  "input": {
    "h_squared": "50",
    "k": "1",
    "r": "1",
    "m": "1",
    "s": "25"
  },
  "distinct": true,
  "ext_on_X": [
    "0",
    "0",
    "0"
  ],
  "ext_on_hilb": [
    "0",
    "0",
    "0"
  ]
}
"""
EXT_CASES = [
    (["ext", "50", "2", "3", "1", "8"], "ext_50_2_3_1_8.json"),
    (["ext", "50", "2", "3", "1", "8", "--csv"], "ext_50_2_3_1_8.csv"),
    (["ext", "50", "2", "3", "1", "8", "--distinct"], "ext_50_2_3_1_8_distinct.json"),
    (["ext", "50", "2", "3", "1", "8", "--distinct", "--csv"], "ext_50_2_3_1_8_distinct.csv"),
    (["ext", "50", "1", "1", "1", "25", "--distinct"], EXT_ZEROS_JSON),
    (["ext", "50", "1", "1", "1", "25", "--distinct", "--csv"], "space,dims\nX,0 0 0\nhilb,0 0 0\n"),
]


@pytest.mark.parametrize(
    "argv,expected", EXT_CASES,
    ids=["json", "csv", "distinct-json", "distinct-csv", "zeros-json", "zeros-csv"],
)
def test_ext_output_byte_exact(capsys, argv, expected):
    """ext prints each table over its full degree range, 0..2 and 0..2k."""
    if expected.startswith("ext_"):
        expected = (GOLDEN / expected).read_text(encoding="utf-8", errors="strict")
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, expected)


# ------------------------------------------------------------- entry point


def test_module_entry_point():
    proc = run_hilbstab("check", "50", "2", "3", "1", "8", "--strict", timeout=10, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["admissible"] is True


def test_in_process_main_reads_integers_of_any_length(capsys):
    # main lifts the 4300-digit cap itself, as the console script and
    # `python -m hilbstab` rely on
    argv = ["check", "2" + "0" * 5000, "2", "3", "1", "8", "--csv"]
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(cap)
    proc = run_module(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (code, out, err) == (0, proc.stdout, "")

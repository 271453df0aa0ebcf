import itertools
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from child_env import child_env

from hilbstab import cli
from hilbstab.cli import main

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


def test_search_malformed_range_exits_2(capsys):
    code, _, _ = run_cli(capsys, "search", "50..60", "2")
    assert code == 2


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
    assert main(["search", "50", "2", "--limit", "-1"]) == 2


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


def test_out_keeps_mode_of_existing_file(capsys, tmp_path):
    target = tmp_path / "cert.json"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o600)
    code, _, _ = run_cli(capsys, "check", "50", "2", "3", "1", "8", "--out", str(target))
    assert code == 0
    assert target.stat().st_mode & 0o777 == 0o600
    assert json.loads(target.read_text(encoding="utf-8"))["report"]["admissible"] is True


def test_out_new_file_gets_umask_mode(capsys, tmp_path):
    umask = os.umask(0o022)
    try:
        target = tmp_path / "cert.json"
        code, _, _ = run_cli(capsys, "check", "50", "2", "3", "1", "8", "--out", str(target))
    finally:
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


def test_out_directory_target_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "check", "50", "2", "3", "1", "8", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_out_failed_stream_keeps_old_file(capsys, tmp_path, monkeypatch):
    target = tmp_path / "hits.csv"
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
    assert [p.name for p in tmp_path.iterdir()] == ["hits.csv"]


# ------------------------------------------------------- streaming, processes


def run_module(*argv, timeout=10.0):
    """`python -m hilbstab ARGV` in a subprocess; a hang fails after `timeout`."""
    return subprocess.run(
        [sys.executable, "-m", "hilbstab", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=timeout,
    )


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
        proc = subprocess.run(
            [sys.executable, "-m", "hilbstab", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=10,
        )
    assert proc.returncode == 2
    assert "No space left on device" in proc.stderr
    assert "Exception ignored" not in proc.stderr


# ------------------------------------------------------- closed standard streams


def run_shell(redirect, *argv, buffered=False):
    """`python -m hilbstab ARGV REDIRECT` through sh, which can close fd 1 or 2."""
    env = child_env()
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        ["sh", "-c", f'"$0" -m hilbstab "$@" {redirect}', sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )


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
    assert target.read_text(encoding="utf-8") == (GOLDEN / "check_50_2_3_1_8.csv").read_text(
        encoding="utf-8"
    )


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


# ------------------------------------------------------------- entry point


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hilbstab", "check", "50", "2", "3", "1", "8", "--strict"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["admissible"] is True

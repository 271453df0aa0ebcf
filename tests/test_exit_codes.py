"""The exit-code contract of `cli.main`, fuzzed over generated argv.

Whatever the arguments, `main` returns 0 (ok), 1 (a semantic negative) or
2 (malformed input or an I/O failure), prints no traceback, and writes
nothing to stdout when it returns 2.  Candidate tokens mix plausible
integers with malformed ones; k stays small because the Ext table on
X^[k] has 2k + 1 degrees, and an example takes a k that no table fits.
Search boxes stay within h^2 <= 10^4 and run with `--workers 1`, so no
pool and no long scan starts; their endpoints are at times spelled with a
leading `+` or a `_` between digits, as `int` reads them.
"""

import contextlib
import io
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import example, given, settings

from hilbstab.cli import main

# --out into a directory that does not exist: the write fails with OSError
MISSING_DIR_OUT = str(Path(__file__).resolve().parent / "no-such-dir" / "out")

MALFORMED = st.one_of(
    st.sampled_from(["", "x", "1.5", "1e3", "0x10", "-", "--", "3-", "4-2", "50..60", "+"]),
    st.text(alphabet="ab-+. ", max_size=3),
)

# Valid values of h^2, k, r, m and s; SPOILED also holds odd, zero and
# negative integers, which each fail a check of h^2, k or r.
CANDIDATE_INTS = [
    st.one_of(st.integers(1, 150), st.integers(1, 10**30)).map(lambda n: 2 * n),
    st.integers(1, 8),
    st.integers(1, 30),
    st.integers(-4, 4),
    st.one_of(st.integers(-60, 60), st.integers(-(10**31), 10**31)),
]
SPOILED = st.one_of(MALFORMED, st.integers(-3, 3).map(str))

FLAGS = {"check": "--strict", "report": "--strict", "ext": "--distinct"}
BAD_FLAGS = ["-h", "--bogus", "--strict", "--distinct", "--out=" + MISSING_DIR_OUT]


@st.composite
def candidate_argv(draw):
    """check/report/ext argv: valid integers, at times one spoiled token, a
    token too few or too many, a flag the command lacks or a bad flag."""
    tokens = [str(draw(ints)) for ints in CANDIDATE_INTS]
    if draw(st.integers(0, 2)) == 0:
        tokens[draw(st.integers(0, 4))] = draw(SPOILED)
    arity = draw(st.sampled_from([5, 5, 5, 5, 5, 4, 6]))
    tokens = (tokens + [draw(SPOILED)])[:arity]
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = draw(st.lists(st.sampled_from(["--csv", "--json", FLAGS[command]]), max_size=2))
    if draw(st.integers(0, 5)) == 0:
        flags.append(draw(st.sampled_from(BAD_FLAGS)))
    for flag in flags:  # anywhere among the positionals, which keep their order
        tokens.insert(draw(st.integers(0, len(tokens))), flag)
    return [command, *tokens]


def _spell(draw, n):
    """n as int reads it: mostly plain, at times "+n" or with a "_" between digits."""
    text = str(n)
    how = draw(st.sampled_from(["plain", "plain", "plus", "underscore"]))
    if how == "plus":
        return "+" + text
    if how == "underscore" and len(text) > 1:
        cut = draw(st.integers(1, len(text) - 1))
        return f"{text[:cut]}_{text[cut:]}"
    return text


def _range(draw, bound, step):
    """"LO" or "LO-HI" within [0, bound], LO a multiple of step or one past."""
    lo = draw(st.integers(0, bound // step)) * step + draw(st.sampled_from([0, 0, 0, 0, 1]))
    width = draw(st.integers(0, 3)) * step
    if width == 0:
        return _spell(draw, lo)
    return f"{_spell(draw, lo)}-{_spell(draw, min(lo + width, bound))}"


@st.composite
def search_argv(draw):
    """search argv over a box with h^2 <= 10^4, or one that fails validation."""
    if draw(st.integers(0, 5)):
        h2 = _range(draw, draw(st.sampled_from([300, 10**4])), 2)
    else:
        h2 = draw(MALFORMED)
    k = _range(draw, 5, 1) if draw(st.integers(0, 5)) else draw(MALFORMED)
    limit = st.integers(-1, 4).map(str) if draw(st.integers(0, 5)) else MALFORMED
    flags = draw(
        st.lists(
            st.one_of(
                st.sampled_from(["--csv", "--json"]).map(lambda f: [f]),
                limit.map(lambda n: ["--limit", n]),
            ),
            max_size=2,
        )
    )
    return ["search", h2, k, "--workers", "1", *(t for f in flags for t in f)]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 2:
        assert out == "", argv


@settings(max_examples=300)
@given(candidate_argv())
@example(["check", "50", "2", "3", "1", "8"])
@example(["report", "50", "2", "4", "1", "6", "--strict"])  # exit 1
@example(["ext", "50", "2", "1", "1", "26", "--distinct"])  # negative ext, exit 1
@example(["ext", "50", "2", "3", "1", "8", "--out=" + MISSING_DIR_OUT])  # OSError
@example(["check", "50", "0", "3", "1", "8"])
@example(["check", "49", "2", "3", "1", "8", "--csv"])
@example(["ext", "50", "2", "0", "1", "8"])
@example(["check", "50", str(10**20), "3", "1", "8"])  # k too large for the Ext table
@example(["-h"])
@example([])
def test_candidate_commands_keep_the_exit_code_contract(argv):
    _assert_contract(argv)


@settings(max_examples=60)
@given(search_argv())
@example(["search", "50", "2", "--workers", "1"])
@example(["search", "4-2", "2", "--workers", "1"])
@example(["search", "3-9", "2", "--workers", "1", "--csv"])
@example(["search", "50", "2", "--workers", "1", "--limit", "-1"])
@example(["search", "50", "0", "--workers", "1"])
@example(["search", "+4_8-5_2", "+2", "--workers", "1"])
def test_search_keeps_the_exit_code_contract(argv):
    _assert_contract(argv)

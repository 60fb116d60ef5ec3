"""Generated argv for every subcommand, run twice through ``cli.main``.

Every run must end with an exit code in {0, 1, 2, 3} and raise nothing, and
a repeat must print exactly what the first run printed: the process-wide
memo may answer it, but never differently.  Budgets stay at or below 10^5
units, so each run ends quickly.  Besides small and malformed inputs, the
strategies draw the extremal builds over their parameters (k-uniform with
k in 3..6, d in 1..3 and small n; 3-uniform with up to four colors and
rectangular bounds) and inputs whose size once reached a crash: a 3-uniform
construction with one bound past the recursion limit, valid coloring files
with N = k + 1 and k up to past the recursion limit, and coloring files whose
edge count C(N, k) has tens of thousands of digits.  Files as ``save``
writes them are drawn with a few bytes replaced, inserted or dropped, since
``load`` reads that layout by its bytes; those copies must also load to the
coloring, or fail with the error, that ``json.load`` of the whole file
gives.  Each ``main`` call gets the recursion limit it has as a program.
"""

import contextlib
import io
import json
import sys
from math import comb

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import whole_file_load
from monopath.cli import main
from monopath.colorings import (
    EdgeColoring,
    color_3uniform_lower,
    color_graph_lower,
    random_coloring,
)

# the values just below each range are invalid on purpose
SMALL = st.integers(min_value=0, max_value=9)
# placeholder for the example's temporary directory
TMP = "<tmp>"
FILES = [f"{TMP}/drawn.json", f"{TMP}/c.json", f"{TMP}/missing.json"]


def _flag(name, values=SMALL):
    """``name value`` four times in five, nothing otherwise."""
    return st.tuples(st.integers(min_value=0, max_value=4), values).map(
        lambda t: [name, str(t[1])] if t[0] else [])


def _command(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def _word(*words):
    return st.sampled_from(words).map(lambda w: w.split())


def _ints(lo, hi):
    return st.integers(min_value=lo, max_value=hi)


FORMAT = _flag("--format", st.sampled_from(["json", "table"]))
BOUNDS_LIST = st.one_of(
    st.lists(_ints(0, 4), min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.just("x"),
)


@st.composite
def _long_bounds(draw):
    """``--q`` and ``--bounds`` with one bound past the recursion limit, the rest 1."""
    bounds = [1] * draw(_ints(2, 4))
    bounds[draw(_ints(0, len(bounds) - 1))] = draw(_ints(1000, 1300))
    return ["--q", str(len(bounds)), "--bounds", ",".join(map(str, bounds))]


@st.composite
def _kuniform(draw):
    """``construct --family kuniform`` with k in 3..6, d in 1..3 and small n."""
    k, d, n = draw(_ints(3, 6)), draw(_ints(1, 3)), draw(_ints(1, 3))
    return ["--k", str(k), "--d", str(d), "--n", str(n)]


@st.composite
def _rect_bounds(draw):
    """``--q`` up to 4 and ``--bounds``, one small bound per color."""
    bounds = draw(st.lists(_ints(1, 4), min_size=2, max_size=4))
    return ["--q", str(len(bounds)), "--bounds", ",".join(map(str, bounds))]


COMMANDS = st.one_of(
    _command(_word("count --kind partitions", "count --kind rho", "count --kind dedekind",
                   "count --kind rank-profile"),
             _flag("--d"), _flag("--n"), _flag("--k"), FORMAT),
    _command(_word("formula --kind p1", "formula --kind macmahon",
                   "formula --kind rectangular"),
             _flag("--n"), _flag("--a"), _flag("--b"), _flag("--c")),
    _command(_word("construct --family graph", "construct --family 3uniform",
                   "construct --family kuniform", "construct --family random"),
             _flag("--q", _ints(0, 4)), _flag("--n", _ints(0, 4)), _flag("--k", _ints(1, 5)),
             _flag("--d", _ints(0, 3)), _flag("--N", _ints(-1, 12)),
             _flag("--bounds", BOUNDS_LIST), _flag("--seed"),
             st.just(["--out", f"{TMP}/c.json"])),
    _command(_word("construct --family 3uniform"), _long_bounds(),
             st.just(["--out", f"{TMP}/c.json"])),
    _command(_word("construct --family kuniform"), _kuniform(),
             st.just(["--out", f"{TMP}/c.json"])),
    _command(_word("construct --family 3uniform"), _rect_bounds(),
             st.just(["--out", f"{TMP}/c.json"])),
    _command(st.just(["verify"]), st.sampled_from(FILES).map(lambda f: ["--file", f]),
             st.one_of(_ints(0, 5), st.sampled_from([50, 10**6])).map(
                 lambda n: ["--n", str(n)])),
    _command(st.just(["transitive"]), st.sampled_from(FILES).map(lambda f: ["--file", f])),
    _command(st.just(["search"]), _ints(2, 6).map(lambda k: ["--k", str(k)]),
             _ints(1, 3).map(lambda q: ["--q", str(q)]),
             _ints(1, 4).map(lambda n: ["--n", str(n)]),
             _flag("--max-N", _ints(0, 12)), _flag("--max-nodes", _ints(0, 10**5)),
             _flag("--max-seconds", st.sampled_from([0.0, 30.0, 30.0])),
             _flag("--extremal-out", st.just(f"{TMP}/c.json"))),
    _command(st.just(["bounds"]), _flag("--d-max", _ints(0, 4)),
             _flag("--n-max", _ints(0, 4)), _flag("--k-max", _ints(0, 5)), FORMAT),
)


@st.composite
def _coloring_doc(draw):
    """A coloring object, valid or broken in one or more fields."""
    k, q, n_verts = draw(_ints(1, 4)), draw(_ints(0, 3)), draw(_ints(0, 7))
    colors = draw(st.lists(_ints(1, max(q, 1)), min_size=comb(n_verts, k),
                           max_size=comb(n_verts, k)))
    doc = {"k": k, "q": q, "N": n_verts, "encoding": "colex-rank-array", "colors": colors}
    broken = draw(st.sampled_from([None, "k", "N", "encoding", "colors", "drop"]))
    if broken == "colors":
        doc["colors"] = draw(st.one_of(st.lists(_ints(-1, 300), max_size=40),
                                       st.just(["1"]), st.just(7)))
    elif broken == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif broken is not None:
        doc[broken] = draw(st.sampled_from(["two", -1, 9, "base64", None]))
    return doc


@st.composite
def _wide_doc(draw):
    """A valid coloring with N = k + 1: C(N, k - 1) windows, with k - 1 from
    past half of N up to past the recursion limit."""
    k = draw(st.one_of(_ints(20, 60), _ints(1000, 1100)))
    q = draw(_ints(1, 3))
    pattern = draw(st.lists(_ints(1, q), min_size=1, max_size=8))
    colors = [pattern[i % len(pattern)] for i in range(k + 1)]
    return {"k": k, "q": q, "N": k + 1, "encoding": "colex-rank-array", "colors": colors}


# too few colors for an edge count C(N, k) of tens of thousands of digits
HUGE_DOC = st.tuples(_ints(10**4, 10**5), _ints(0, 3)).map(lambda t: {
    "k": t[0], "q": 2, "N": 2 * t[0], "encoding": "colex-rank-array", "colors": [1] * t[1]})

# files as ``save`` writes them: single digits, two-digit colors, no colors
SAVED_TEXTS = [
    json.dumps(col.to_json_dict(), separators=(",", ":")) + "\n"
    for col in (color_3uniform_lower(2, 2), color_graph_lower(2, 2),
                random_coloring(3, 3, 6, seed=1), random_coloring(2, 12, 5, seed=3),
                random_coloring(4, 2, 3, seed=2))
]


@st.composite
def _perturbed_saved(draw):
    """A saved file with one to three bytes replaced, inserted or dropped, or cut short."""
    text = draw(st.sampled_from(SAVED_TEXTS))
    for _ in range(draw(_ints(1, 3))):
        at = draw(_ints(0, len(text)))
        ch = draw(st.sampled_from(list('0123456789,[]{}":- tx\\\n\u00e9')))
        edit = draw(st.sampled_from(["replace", "insert", "drop", "cut"]))
        if edit == "replace":
            text = text[:at] + ch + text[at + 1 :]
        elif edit == "insert":
            text = text[:at] + ch + text[at:]
        elif edit == "drop":
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at]
    return text


FILE_TEXT = st.one_of(
    _coloring_doc().map(json.dumps),
    _wide_doc().map(json.dumps),
    HUGE_DOC.map(json.dumps),
    _perturbed_saved(),
    st.sampled_from(["", "not json", "[]", "{}", "null", '{"k": 2']),
)


@contextlib.contextmanager
def _program_stack():
    """The stack ``main`` has in the ``monopath`` program: the interpreter's
    default of 1000 frames above the caller.  Hypothesis raises the recursion
    limit while a test runs, which would hide a recursion that grows with the
    input."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def _run(argv: list[str], search: bool) -> tuple:
    """(exit code, stdout, stderr) of one ``main`` call; search drops ``seconds``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), _program_stack():
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code
    text = out.getvalue()
    if search and text:
        doc = json.loads(text)
        doc.pop("seconds")
        text = json.dumps(doc)
    return rc, text, err.getvalue()


# one budget in ten is 0, which the CLI rejects
BUDGET = st.tuples(_ints(0, 9), _ints(1, 10**5)).map(lambda t: t[1] if t[0] else 0)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(command=COMMANDS, text=FILE_TEXT, budget=BUDGET, first=st.booleans())
def test_cli_ends_cleanly_and_repeats_itself(tmp_path, command, text, budget, first):
    (tmp_path / "drawn.json").write_text(text)
    argv = [a.replace(TMP, str(tmp_path)) for a in command]
    budget_flag = ["--budget", str(budget)]
    argv = budget_flag + argv if first else argv + budget_flag
    search = command[0] == "search"
    once = _run(argv, search)
    assert once[0] in (0, 1, 2, 3), (argv, once)
    assert _run(argv, search) == once, argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_perturbed_saved())
def test_perturbed_saved_files_load_as_whole_files(tmp_path, text):
    path = tmp_path / "drawn.json"
    path.write_text(text)
    try:
        got = EdgeColoring.load(path)
    except ValueError as exc:
        got = f"{type(exc).__name__}: {exc}"
    want = whole_file_load(path)
    assert got == want
    if not isinstance(got, str):
        assert (got.labels, got.meta) == (want.labels, want.meta)

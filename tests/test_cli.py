import contextlib
import hashlib
import io
import json
import sys
import time
import tracemalloc
from math import comb

import pytest

from monopath.budget import ENV_BUDGET
from monopath.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_count_partitions(capsys):
    # down-sets of the grid [n]^d
    code, doc = run_json(capsys, "count", "--kind", "partitions", "--d", "2", "--n", "2")
    assert code == 0
    assert doc["value"] == "6"
    code, doc = run_json(capsys, "count", "--kind", "partitions", "--d", "2", "--n", "3")
    assert code == 0
    assert doc["value"] == "20"
    code, doc = run_json(capsys, "count", "--kind", "partitions", "--d", "3", "--n", "3")
    assert code == 0
    assert doc["value"] == "980"


def test_count_rho_and_dedekind(capsys):
    code, doc = run_json(capsys, "count", "--kind", "rho", "--k", "4", "--d", "2", "--n", "2")
    assert code == 0 and doc["value"] == "8"
    code, doc = run_json(capsys, "count", "--kind", "dedekind", "--d", "5")
    assert code == 0 and doc["value"] == "7581"


def test_count_rank_profile_json(capsys):
    code, doc = run_json(capsys, "count", "--kind", "rank-profile", "--n", "3", "--d", "2")
    assert code == 0
    assert doc["sizes"][0] == "1"
    assert sum(int(s) for s in doc["sizes"]) == 3 ** 2
    assert doc["total"] == "9"


def test_count_rank_profile_table(capsys):
    code, out = run(capsys, "count", "--kind", "rank-profile", "--n", "2", "--format", "table")
    assert code == 0
    assert out.splitlines()[0].startswith("#")
    assert any(line.split()[-1] == "2" for line in out.splitlines()[1:])


def test_formula_commands(capsys):
    code, doc = run_json(capsys, "formula", "--kind", "macmahon", "--n", "3")
    assert code == 0 and doc["value"] == "980"
    code, doc = run_json(capsys, "formula", "--kind", "p1", "--n", "4")
    assert code == 0 and doc["value"] == "70"
    code, doc = run_json(capsys, "formula", "--kind", "rectangular", "--a", "2", "--b", "3")
    assert code == 0 and doc["value"] == "10"
    code, doc = run_json(
        capsys, "formula", "--kind", "rectangular", "--a", "2", "--b", "2", "--c", "2"
    )
    assert code == 0 and doc["value"] == "20"


def test_construct_then_verify_roundtrip(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, doc = run_json(capsys, "construct", "--family", "3uniform", "--q", "2", "--n", "3")
    assert code == 0
    assert doc["N"] == 20
    assert (tmp_path / doc["file"]).exists()
    code, rep = run_json(capsys, "verify", "--n", "3")
    assert code == 0
    assert rep["certificate"] == "distinct"
    assert all(v <= 2 for v in rep["per_color_max"])


def test_verify_explicit_file_and_oversize(tmp_path, capsys):
    target = str(tmp_path / "c.json")
    code, doc = run_json(
        capsys, "construct", "--family", "random", "--k", "3", "--q", "2", "--N", "7",
        "--seed", "3", "--out", target,
    )
    assert code == 0 and doc["file"] == target
    code, rep = run_json(capsys, "verify", "--file", target, "--n", "2")
    assert code == 1
    assert isinstance(rep["certificate"], dict)
    assert "path" in rep["certificate"]


def test_construct_graph_and_kuniform(tmp_path, capsys):
    g = str(tmp_path / "g.json")
    code, doc = run_json(capsys, "construct", "--family", "graph", "--q", "2", "--n", "3", "--out", g)
    assert code == 0 and doc["N"] == 9
    k4 = str(tmp_path / "k4.json")
    code, doc = run_json(capsys, "construct", "--family", "kuniform", "--k", "4", "--n", "2", "--out", k4)
    assert code == 0 and doc["N"] == 8
    code, doc = run_json(
        capsys, "construct", "--family", "3uniform", "--q", "2", "--bounds", "2,4",
        "--out", str(tmp_path / "r.json"),
    )
    assert code == 0 and doc["N"] == 15


def test_transitive_exit_codes(tmp_path, capsys):
    t = str(tmp_path / "t.json")
    run_json(capsys, "construct", "--family", "3uniform", "--q", "2", "--n", "2", "--out", t)
    code, doc = run_json(capsys, "transitive", "--file", t)
    assert code == 0 and doc["transitive"] is True

    r = str(tmp_path / "r.json")
    run_json(capsys, "construct", "--family", "random", "--k", "3", "--q", "2", "--N", "7",
             "--seed", "5", "--out", r)
    code, doc = run_json(capsys, "transitive", "--file", r)
    assert code == 1
    assert doc["transitive"] is False
    assert len(doc["witness"]) == 4
    assert min(doc["witness"]) >= 1  # vertices reported 1-based


def test_search_exact(tmp_path, capsys):
    ext = str(tmp_path / "ext.json")
    code, doc = run_json(
        capsys, "search", "--k", "3", "--q", "2", "--n", "2", "--extremal-out", ext,
    )
    assert code == 0
    assert doc["status"] == "exact"
    assert doc["value"] == 7
    code, rep = run_json(capsys, "verify", "--file", ext, "--n", "2")
    assert code == 0 and rep["certificate"] == "distinct"


def test_search_deeper_than_recursion_limit(capsys):
    code, doc = run_json(capsys, "search", "--k", "7", "--q", "2", "--n", "2")
    assert code == 0
    assert doc["status"] == "exact"
    assert doc["value"] == 15


def test_search_capped_and_starved(capsys):
    code, doc = run_json(capsys, "search", "--k", "3", "--q", "2", "--n", "2",
                         "--max-N", "5")
    assert code == 0
    assert doc["status"] == "lower_bound_only"
    assert doc["value"] is None
    code, doc = run_json(capsys, "search", "--k", "3", "--q", "2", "--n", "3",
                         "--max-nodes", "40")
    assert code == 3
    assert doc["status"] == "budget_exhausted"
    assert doc["lower_bound"] >= 6


def test_bounds_subcommand(capsys):
    code, doc = run_json(capsys, "bounds", "--d-max", "2", "--n-max", "2",
                         "--k-max", "4", "--budget", "2000000")
    assert code == 0
    assert doc["failures"] == 0
    assert doc["rows"]


def test_bounds_table(capsys):
    code, out = run(capsys, "bounds", "--d-max", "2", "--n-max", "2",
                    "--k-max", "4", "--budget", "2000000", "--format", "table")
    assert code == 0
    assert out.splitlines()[0].split()[0] == "name"
    assert out.rstrip().splitlines()[-1].startswith("#")


@pytest.mark.parametrize("flag", ["--d-max", "--n-max", "--k-max"])
def test_bounds_rejects_grid_sizes_below_one(capsys, flag):
    # a 0 once counted as "not given" and ran the default 4/4/5 grid
    argv = {"--d-max": "1", "--n-max": "1", "--k-max": "1", flag: "0"}
    assert main(["bounds", *(x for kv in argv.items() for x in kv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err


def test_global_flags_both_positions(capsys):
    code1, doc1 = run_json(capsys, "--budget", "100000", "count", "--kind", "partitions",
                           "--d", "2", "--n", "2")
    code2, doc2 = run_json(capsys, "count", "--kind", "partitions", "--d", "2", "--n", "2",
                           "--budget", "100000")
    assert code1 == code2 == 0
    assert doc1 == doc2


def test_exit_code_2_on_bad_input(tmp_path, capsys):
    assert main(["count", "--kind", "partitions", "--d", "0", "--n", "2"]) == 2
    capsys.readouterr()
    assert main(["verify", "--file", str(tmp_path / "missing.json"), "--n", "2"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["verify", "--file", str(bad), "--n", "2"]) == 2
    capsys.readouterr()
    assert main(["count", "--kind", "partitions", "--d", "2", "--n", "2", "--budget", "-5"]) == 2
    capsys.readouterr()
    assert main(["construct", "--family", "3uniform", "--q", "2"]) == 2  # neither n nor bounds
    capsys.readouterr()


def test_exit_code_3_on_budget(capsys):
    assert main(["count", "--kind", "rho", "--k", "5", "--d", "3", "--n", "3",
                 "--budget", "10000"]) == 3
    out = capsys.readouterr()
    assert out.out == "" or "budget" in out.out.lower()


@pytest.mark.parametrize(
    "argv",
    [
        "count --kind dedekind --d 5",
        "count --kind rank-profile --n 400",
        "count --kind rank-profile --n 40 --d 40",
        "formula --kind macmahon --n 50",
        "formula --kind rectangular --a 10 --b 100 --c 100",
        "formula --kind p1 --n 1000000",
        "formula --kind rectangular --a 1000000 --b 1000000",
        "construct --family random --k 3 --q 2 --N 3000",
        "construct --family graph --q 6 --n 6",
        "bounds --d-max 3 --n-max 300 --k-max 2",
    ],
)
def test_budget_reaches_every_count(capsys, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv.split() + ["--budget", "1000"]) == 3
    assert "budget" in capsys.readouterr().err


def test_big_values_are_decimal_strings(capsys):
    code, doc = run_json(capsys, "count", "--kind", "dedekind", "--d", "6")
    assert code == 0
    assert doc["value"] == "7828354"
    assert isinstance(doc["value"], str)


def _parse(parser, argv):
    """(namespace or None, exit code or None, stderr) of one parse."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv)), None, err.getvalue()
        except SystemExit as exc:
            return None, exc.code, err.getvalue()


def test_parser_is_built_once_and_parses_like_a_fresh_one():
    assert build_parser() is build_parser()
    argvs = [
        "--budget 7 count --kind partitions --d 2 --n 3",
        "count --kind partitions --d 2 --n 3 --budget 9",
        "search --k 3 --q 2 --n 2 --max-nodes 40",
        "--budget 5 --format table bounds --d-max 2 --budget 11",
        "count --kind rho --k 4 --d 2 --n 2",
        "formula --kind p1 --n 4 --format table --seed 3",
        "--seed 8 construct --family random --k 3 --q 2 --N 7",
        "verify --n 2",
        "count --kind nonsense",
        "--budget x count --kind dedekind --d 3",
        "transitive --file c.json --budget 4",
        "count --kind dedekind --d 3",
    ]
    # each argv twice, in order: what one parse sets must not leak into the next
    for argv in argvs + argvs:
        assert _parse(build_parser(), argv.split()) == _parse(
            build_parser.__wrapped__(), argv.split()
        ), argv


@pytest.mark.parametrize("bad", [0, 3])
def test_colors_out_of_range_exit_2(tmp_path, capsys, bad):
    # q = 2 allows colors 1 and 2 only; 0 and q + 1 are rejected on load
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"k": 2, "q": 2, "N": 3, "encoding": "colex-rank-array",
                                "colors": [1, bad, 2]}))
    for argv in (["verify", "--file", str(path), "--n", "2"],
                 ["transitive", "--file", str(path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: colors must lie in 1..2\n"


@pytest.mark.parametrize("field,value", [
    ("colors", [1, True, 1]), ("colors", [1, 1.0, 1]), ("k", 2.9), ("k", "2"), ("k", True),
    ("q", 2.5), ("N", 3.0),
])
def test_non_integer_fields_exit_2(tmp_path, capsys, field, value):
    # JSON floats, bools and strings are no integers, whatever int() makes of them
    doc = {"k": 2, "q": 2, "N": 3, "encoding": "colex-rank-array", "colors": [1, 1, 1]}
    doc[field] = value
    path = tmp_path / "c.json"
    for text in (json.dumps(doc), json.dumps(doc, separators=(",", ":"))):
        path.write_text(text)
        for argv in (["verify", "--file", str(path), "--n", "2"],
                     ["transitive", "--file", str(path)]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error: ")


def test_transitive_scan_runs_out_fast(tmp_path, capsys):
    # C(252, 4) tuples of the 2.6 M-edge coloring, a few lookups each: the
    # first 10^6 are scanned well inside the limit
    path = str(tmp_path / "c.json")
    assert main(["construct", "--family", "3uniform", "--q", "2", "--n", "5", "--out", path]) == 0
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(["transitive", "--file", path, "--budget", "1000000"]) == 3
    assert time.perf_counter() - t0 < 3.0
    assert capsys.readouterr().err == (
        "budget exhausted: transitivity scan: exceeded work budget of 1000000 units\n")


def test_verify_extremal_file_at_its_exact_units(tmp_path, capsys):
    # 31,626 windows + 2,635,500 edges + 42 candidate fronts of the witness
    # steps: the sweep bills every window and edge, repeated runs or not
    path = str(tmp_path / "c.json")
    assert main(["construct", "--family", "3uniform", "--q", "2", "--n", "5", "--out", path]) == 0
    capsys.readouterr()
    argv = ["verify", "--file", path, "--n", "5", "--budget"]
    code, rep = run_json(capsys, *argv, "2667168")
    assert code == 0 and rep["certificate"] == "distinct"
    assert main(argv + ["2667167"]) == 3
    assert capsys.readouterr().err == (
        "budget exhausted: path DP on 2635500 edges: exceeded work budget of 2667167 units\n")


def _all_one_coloring(path, k, n_vertices):
    path.write_text(json.dumps({"k": k, "q": 1, "N": n_vertices, "encoding": "colex-rank-array",
                                "colors": [1] * comb(n_vertices, k)}))
    return str(path)


def test_verify_wide_k_reports_its_path(tmp_path, capsys):
    # 35 vertices, 34-uniform: the window index lists 595 vertex pairs left out
    f = _all_one_coloring(tmp_path / "wide.json", 34, 35)
    code, rep = run_json(capsys, "verify", "--file", f, "--n", "2", "--budget", "1000")
    assert code == 1
    assert rep["per_color_max"] == [2]
    assert rep["certificate"] == {"path": {"color": 1, "length": 2,
                                           "vertices": list(range(1, 36))}}


def test_verify_k_deeper_than_recursion_limit(tmp_path, capsys):
    # 1.1 M windows of 1499 vertices, walked without recursion and paid for
    f = _all_one_coloring(tmp_path / "deep.json", 1500, 1501)
    code, rep = run_json(capsys, "verify", "--file", f, "--n", "2", "--budget", "2000000")
    assert code == 1
    assert rep["certificate"]["path"]["vertices"] == list(range(1, 1502))


def test_verify_wide_k_pays_for_its_windows(tmp_path, capsys):
    # 3000 units of edges and probes, but C(1501, 1499) = 1.1 M windows
    f = _all_one_coloring(tmp_path / "deep.json", 1500, 1501)
    t0 = time.perf_counter()
    code = main(["verify", "--file", f, "--n", "2", "--budget", "100000"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert capsys.readouterr().err == (
        "budget exhausted: path DP on 1501 edges: exceeded work budget of 100000 units\n")


def test_verify_pays_for_containment_masks(tmp_path, capsys):
    # 3 vertices, 11 colors: the labels live in the grid [3]^11, whose
    # 177147 points would be compared pairwise, 1.6*10^10 units; only the
    # labels that occur are compared, and the same budget certifies the file
    path = str(tmp_path / "c.json")
    argv = ["construct", "--family", "random", "--k", "3", "--q", "11", "--N", "3",
            "--out", path]
    assert main(argv) == 0
    capsys.readouterr()
    t0 = time.perf_counter()
    code, rep = run_json(capsys, "verify", "--file", path, "--n", "3", "--budget", "1000000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and rep["certificate"] == "distinct"


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_verify_certifies_past_the_universe_it_would_build(tmp_path, capsys, seed):
    # path-free at n = 3, with labels in the order-4 universe over [3]^3,
    # which no budget of a few hundred seconds built
    path = str(tmp_path / "c.json")
    argv = ["construct", "--family", "random", "--k", "5", "--q", "3", "--N", "8",
            "--seed", str(seed), "--out", path]
    assert main(argv) == 0
    capsys.readouterr()
    code, rep = run_json(capsys, "verify", "--file", path, "--n", "3", "--budget", "1000000")
    assert code == 0 and rep["certificate"] == "distinct"


def test_verify_extremal_file_far_below_its_n(tmp_path, capsys):
    # the 3-uniform extremal file for n = 3 has no path of length 100 either;
    # its labels would live in the grid [100]^2, 10^4 points compared pairwise
    path = str(tmp_path / "c.json")
    assert main(["construct", "--family", "3uniform", "--q", "2", "--n", "3",
                 "--out", path]) == 0
    capsys.readouterr()
    code, rep = run_json(capsys, "verify", "--file", path, "--n", "100")
    assert code == 0 and rep["certificate"] == "distinct"


def test_verify_far_below_a_huge_n_is_as_fast_as_at_a_small_one(tmp_path, capsys):
    # the labels live in the grid [10^6]^2: their containment masks must be
    # as wide as the coordinate values that occur, not as n
    path = str(tmp_path / "c.json")
    argv = ["construct", "--family", "random", "--k", "3", "--q", "2", "--N", "12",
            "--seed", "1", "--out", path]
    assert main(argv) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        code, rep = run_json(capsys, "verify", "--file", path, "--n", "1000000")
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and rep["certificate"] == "distinct"
    assert elapsed < 1.0 and peak < 500_000


def test_search_nan_seconds_is_rejected(capsys):
    # NaN passed the positivity check and then never hit its deadline
    assert main(["search", "--k", "3", "--q", "2", "--n", "2", "--max-seconds", "nan"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_search_reverifies_within_its_max_nodes(capsys, monkeypatch):
    # the re-verify once ran on the environment's default budget, not the
    # request's, and a default of 20 units stopped this search with exit 3
    monkeypatch.setenv("MONOPATH_BUDGET", "20")
    code, doc = run_json(capsys, "search", "--k", "3", "--q", "2", "--n", "2",
                         "--max-nodes", "1000000")
    assert code == 0
    assert (doc["status"], doc["value"]) == ("exact", 7)


def test_search_max_nodes_zero_is_rejected(capsys):
    # a 0 once counted as "not given" and searched at the default budget
    for nodes in ("0", "-5"):
        assert main(["search", "--k", "3", "--q", "2", "--n", "2", "--max-nodes", nodes]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_construct_kuniform_d_zero_is_rejected(tmp_path, capsys):
    # a 0 once counted as "not given" and wrote a 2-color file
    path = tmp_path / "c.json"
    assert main(["construct", "--family", "kuniform", "--k", "3", "--n", "2", "--d", "0",
                 "--out", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not path.exists()
    code, doc = run_json(capsys, "construct", "--family", "kuniform", "--k", "3", "--n", "2",
                         "--out", str(path))
    assert code == 0 and doc["q"] == 2


def test_rho_order_2_pays_before_its_power(capsys):
    # 3^(10^7) has 1.6*10^7 bits; taking the power took seconds unpaid
    t0 = time.perf_counter()
    assert main(["count", "--kind", "rho", "--k", "2", "--d", "10000000", "--n", "3",
                 "--budget", "10"]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == (
        "budget exhausted: size of order-2 universe (d=10000000, n=3): "
        "exceeded work budget of 10 units\n")
    code, doc = run_json(capsys, "count", "--kind", "rho", "--k", "2", "--d", "3", "--n", "5",
                         "--budget", "1")
    assert code == 0 and doc["value"] == "125"


def test_rho_box_too_large_for_the_room_ends_before_it_exists(capsys):
    # the box (3,) * 10^7, the count of its sides and the power 3^(10^7)
    # took 5 s and 90 MB unpaid before the first unit was charged
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        assert main(["count", "--kind", "rho", "--k", "4", "--d", "10000000", "--n", "3",
                     "--budget", "10"]) == 3
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 1_000_000
    assert capsys.readouterr().err == (
        "budget exhausted: size of order-4 universe (d=10000000, n=3): "
        "exceeded work budget of 10 units\n")


def test_rho_long_box_pays_before_its_points(capsys):
    # the point count of [3]^(10^6) as a product of 10^6 factors took tens
    # of seconds before the first unit was charged
    t0 = time.perf_counter()
    assert main(["count", "--kind", "rho", "--k", "4", "--d", "1000000", "--n", "3",
                 "--budget", "10"]) == 3
    assert time.perf_counter() - t0 < 2.0
    assert capsys.readouterr().err == (
        "budget exhausted: size of order-4 universe (d=1000000, n=3): "
        "exceeded work budget of 10 units\n")


def test_partitions_with_many_axes_end_on_budget(capsys):
    # 20000 axes of 3: a product per axis for the strides took O(d^2) big-int
    # work before the first unit was charged
    t0 = time.perf_counter()
    assert main(["count", "--kind", "partitions", "--d", "20000", "--n", "3",
                 "--budget", "10"]) == 3
    assert time.perf_counter() - t0 < 5.0
    assert capsys.readouterr().err.startswith("budget exhausted: partition count in shape [3]^19999")


@pytest.mark.parametrize("argv", [
    "count --kind rho --k 3 --d 200000 --n 3",
    "count --kind partitions --d 200000 --n 3",
])
def test_partitions_past_the_room_end_before_their_strides(capsys, argv):
    # the suffix products of 199998 sides took 6.9 s before the first unit
    t0 = time.perf_counter()
    assert main(argv.split() + ["--budget", "10"]) == 3
    assert time.perf_counter() - t0 < 0.5
    assert capsys.readouterr().err == (
        "budget exhausted: partition count in shape [3]^199999 bound 3: "
        "exceeded work budget of 10 units\n")


@pytest.mark.parametrize("argv,shape", [
    ("count --kind partitions --d 20000 --n 3", "[3]^19999 bound 3"),
    ("count --kind dedekind --d 5000", "[2]^4999 bound 2"),
])
def test_budget_miss_names_a_long_shape_compactly(capsys, argv, shape):
    # the message once listed every side: 60,083 bytes for the first argv
    assert main(argv.split() + ["--budget", "10"]) == 3
    err = capsys.readouterr().err
    assert err == (f"budget exhausted: partition count in shape {shape}: "
                   "exceeded work budget of 10 units\n")
    assert len(err.encode()) < 200


def test_construct_one_long_bound_ends_on_budget(capsys, tmp_path):
    # 1201 vertices, one per weakly decreasing 0/1 sequence of length 1200
    argv = ["--budget", "1000", "construct", "--family", "3uniform", "--q", "2",
            "--bounds", "1200,1", "--out", str(tmp_path / "c.json")]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("budget exhausted: 3-uniform coloring")


def test_construct_long_bound_pays_per_cell(capsys, tmp_path):
    # C(1202, 2) arrays of 1200 cells each: paid per array, the first 10^5
    # of them take seconds to build
    argv = ["construct", "--family", "3uniform", "--q", "2", "--bounds", "1200,2",
            "--budget", "100000", "--out", str(tmp_path / "c.json")]
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err == (
        "budget exhausted: 3-uniform coloring over [1200]x[2]: "
        "exceeded work budget of 100000 units\n")


def test_3uniform_budget_miss_names_a_long_box_compactly(capsys, tmp_path):
    # the meter once listed every bound: 849 bytes of stderr
    argv = ["construct", "--family", "3uniform", "--q", "255", "--bounds", ",".join(["3"] * 255),
            "--budget", "10", "--out", str(tmp_path / "c.json")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == ("budget exhausted: 3-uniform coloring over [3]^255: "
                   "exceeded work budget of 10 units\n")
    assert len(err.encode()) < 200


def test_coloring_length_checked_without_the_binomial(tmp_path, capsys):
    path = tmp_path / "c.json"
    for k, n_vertices, shown in [(100000, 200000, "C(200000, 100000)"), (3, 5, "10")]:
        path.write_text(json.dumps({"k": k, "q": 2, "N": n_vertices,
                                    "encoding": "colex-rank-array", "colors": []}))
        assert main(["verify", "--file", str(path), "--n", "2"]) == 2
        assert capsys.readouterr().err == (
            f"error: expected {shown} colors for N={n_vertices}, k={k}, got 0\n")


@pytest.mark.parametrize("argv", [
    "construct --family random --k 3 --q 300 --N 5",
    "construct --family 3uniform --q 300 --bounds " + ",".join(["1"] * 299 + ["2"]),
], ids=["random", "3uniform"])
def test_construct_rejects_colors_past_a_byte(capsys, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv.split()) == 2
    assert capsys.readouterr().err == "error: at most 255 colors (one byte per edge), got 300\n"


def test_values_past_the_str_digit_limit_print_in_full(capsys):
    # C(20000, 10000) has 6020 digits, past the interpreter's 4300 for str()
    code, doc = run_json(capsys, "formula", "--kind", "p1", "--n", "10000")
    assert code == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert doc["value"] == str(comb(20000, 10000))
    finally:
        sys.set_int_max_str_digits(limit)
    # the conversion is paid for: 313^2 = 97969 units
    assert main(["formula", "--kind", "p1", "--n", "10000", "--budget", "97968"]) == 3
    assert capsys.readouterr().err == (
        "budget exhausted: decimal output: exceeded work budget of 97968 units\n")


# sha256 of the file ``construct`` writes for each family, kept from the
# builds that each family had of its own before all three extremal ones
# became one iterated-delta build: a coloring file must not change with
# the code that makes it.  Square and ``--bounds`` boxes, two-digit colors
# in the q = 10 and q = 12 files, and a box of 257 points, too many for its
# level tables to be held as bytes.
CONSTRUCT_DIGESTS = [
    ("graph --q 2 --n 3",
     "ea3abe2f8843530c45ce44736619c1c5b19ab36742bc1218a68e78e58d2b6ad4"),
    ("graph --q 3 --n 4",
     "96ca63c1d8eb99bf45b49dc5c873734fc7e706bbed6a78266dc72b7d4c4351f9"),
    ("graph --q 1 --n 5",
     "c66076993d77831e2d2f290fed85b39768a8a78b58c752491d36b1ca7f1ffce8"),
    ("graph --q 4 --n 2",
     "9091ba820c0db952812de4a354d860b0f006ed0e87a4611b71b6b5698494944c"),
    ("graph --q 2 --n 10",
     "96281a07713d46b0d3fc8b11f32025cc5b4c844b4a3b46e94f0a10d74e1cc66b"),
    ("graph --q 10 --n 2",
     "5b9ac51a4e1a50e89fec6b194d7dde1d08b7a4e0efbf0994d85e1811c1542243"),
    ("3uniform --q 2 --n 3",
     "e00356348886081224d4575d80e67338e3b628a97be892ecd65fb2ac73204526"),
    ("3uniform --q 2 --n 4",
     "74cdf8cbeefad14e128a9293f4159dd8a144b00f750c0547ed42969c96fe2b1e"),
    ("3uniform --q 3 --n 2",
     "c10be95a0feec24e83df73eab50b1e84094fd3e1051021255b88a5577613d3f2"),
    ("3uniform --q 4 --n 2",
     "b7ca47409cb32213d90e0feb368721f029bd8c29c39dc0473912909888a46622"),
    ("3uniform --q 2 --n 5",
     "fbd080617f275f735f3a6278cd7a2f8ee660c7617c7a633d1ce3a3bb87982cb4"),
    ("3uniform --q 2 --bounds 3,5",
     "3be1f3b788f97e5a14b99d4e67edc2740a8d42010b16d5f726b587f693f58da8"),
    ("3uniform --q 3 --bounds 2,3,2",
     "5d09ddf0884fa78214c2bdf41ed42468fd94702bb0b0100cd5040248434c3923"),
    ("3uniform --q 2 --bounds 120,1",
     "64bf872d26f8a20044a67d77e7e2eb067c232f12e080733e11c2c5fad62ab5f1"),
    ("3uniform --q 2 --bounds 257,1",
     "8f5388a6bb2ca3c80e00c607e0f919ae1f46d731ebc9dcc48a86bbd3e9be2d83"),
    ("3uniform --q 4 --bounds 1,1,1,2",
     "cbaec6bf9d07b8ede7e22b7d79112d6fece3cec615680c024791e0faa38d1e44"),
    ("3uniform --q 2 --bounds 5,3",
     "1290257b9709d7409e4459c8da0f983c216520c1793091d554b53ca186e591f4"),
    ("3uniform --q 4 --bounds 2,3,2,1",
     "d003d7c12ccd05af72fb233af8a660355af9ba18eddfa9497b746f1b9605bebe"),
    ("3uniform --q 10 --bounds 1,1,1,1,1,1,1,1,2,2",
     "cd542818bdaf37135cb2f462c3d69cf49e555226bb14a74d69e582890c4bbd4a"),
    ("kuniform --k 4 --n 2",
     "37b3ad096fbe39d43854f7afd486ae26ac1e55717800d561a444eaf46e5d9bbb"),
    ("kuniform --k 4 --n 3",
     "9ee8ee3cef185a37c31ac2f8f81919262db10392285cd86162206fb1c208f266"),
    ("kuniform --k 5 --n 2",
     "ee9a42e4e0a854862abd55b01c3313bfc621beff6a1b814fbc42153b94613324"),
    ("kuniform --k 3 --n 4",
     "a61a6a31d3e5f75fcc3062a248494ac410f03194cc154414afdc05629075544d"),
    ("kuniform --k 4 --n 2 --d 3",
     "87335d83056cc61718cc7608bcc63e6143fc622e2f51c716a697514672aad1a0"),
    ("kuniform --k 3 --n 2 --d 3",
     "80778b131c3e6e6287eb460773a8db4f68c64705ee6c3bc432c99b8890b3d739"),
    ("random --k 3 --q 2 --N 9 --seed 5",
     "c45f350d4d78b7b2b06ecb5f1183f765b06dde1c9f4d628270b4df0fe0320d7f"),
    ("random --k 2 --q 12 --N 20 --seed 3",
     "7c5c8311410d51b4a03b421f931368d13387a64da3fec9b13cb5bbde17b5cfb1"),
]


@pytest.mark.parametrize("flags,digest", CONSTRUCT_DIGESTS, ids=[f for f, _ in CONSTRUCT_DIGESTS])
def test_construct_files_keep_their_bytes(flags, digest, tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["construct", "--family", *flags.split(), "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# sha256 of the ``bounds`` report for each grid, kept from the suite's
# hand-written loops before it became one table of checks: the rows, their
# order and the counts skipped under a budget must not change with the code
# that runs them.  The four count-mix suites, two suites with skipped rows
# and one table.  The tower-difference rows whose intervals take square
# roots draw on the pot since those roots are metered, so a row that cannot
# pay is SKIPPED: the last three pins changed with that, and with no other
# row.
BOUNDS_DIGESTS = [
    ("--d-max 2 --n-max 2 --k-max 2",
     "9c9eefd6ac43cd2f7138c8623876d0110f22617dda5640e61746519318991f2d"),
    ("--d-max 3 --n-max 3 --k-max 2",
     "56f5da199f7ff509b64920957f753243d61a23dd871e49d4d80cf44fa3531e8d"),
    ("--d-max 4 --n-max 3 --k-max 2 --budget 1000000",
     "650a78ee7cdaaaffa4eda6358c664aa7e82ec7ef5dc45684125e8cfe6f92f0ca"),
    ("--d-max 4 --n-max 4 --k-max 2 --budget 2000000",
     "31a38c85df3c3484f7026719610068a7b554ffb6acd92527e18c3db36c39e7f6"),
    # the 15 interval rows: k = 2 at (7/2, 2), (9/2, 3), (10/3, 11/6), and
    # k = 3 and 4 at every (a, b)
    ("--d-max 3 --n-max 3 --k-max 5 --budget 20000",
     "a544a6839e744b14c57ea364f20df1c83e7ef143f90008d0f0d16d44fbba11c6"),
    # eight k = 4, n = 1 rows fit the 100 units since ideals are no longer
    # charged for a sort; the same 15 interval rows are SKIPPED
    ("--d-max 2 --n-max 2 --k-max 6 --budget 100",
     "fdb63620c1f14301ba702fa01a4002d05df2b07e54138d9008bfb87add2cf6f1"),
    # SKIPPED: k = 3 at (10/3, 11/6) and k = 4 at every (a, b)
    ("--d-max 3 --n-max 3 --k-max 4 --budget 200000 --format table",
     "757219c1c375d1fe3b87bff63e2ac04a5b4c84215a80821fb3fdcda4e0b4ab93"),
]


@pytest.mark.parametrize("flags,digest", BOUNDS_DIGESTS, ids=[f for f, _ in BOUNDS_DIGESTS])
def test_bounds_reports_keep_their_bytes(flags, digest, capsys, monkeypatch):
    monkeypatch.delenv(ENV_BUDGET, raising=False)
    code, out = run(capsys, "bounds", *flags.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest

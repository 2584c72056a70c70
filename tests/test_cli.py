import hashlib
import json
import os
import stat

import pytest

from tropic.cli import (
    EXIT_BUDGET,
    EXIT_IDENTITY,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    build_parser,
    main,
)
from tropic import linprog
from tropic.linprog import lp_call_count


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def results_of(stdout: str) -> dict:
    return json.loads(stdout)["results"]


def test_bounds_shallow(capsys):
    code, out, _ = run(capsys, "bounds", "shallow", "--inputs", "2", "--ranks", "2,2,2")
    assert code == EXIT_OK
    assert results_of(out) == {"regions_max": 7, "trivial": 8, "bias_mode": "bias"}


def test_bounds_shallow_nobias(capsys):
    code, out, _ = run(capsys, "bounds", "shallow", "--inputs", "2", "--ranks", "2,2,2", "--no-bias")
    assert code == EXIT_OK
    assert results_of(out)["regions_max"] == 6


def test_bounds_deep(capsys):
    code, out, _ = run(capsys, "bounds", "deep", "--inputs", "2", "--widths", "2,2", "--rank", "3")
    assert code == EXIT_OK
    r = results_of(out)
    assert r["upper"] == 81 and r["lower"] == 25


def test_bounds_prior(capsys):
    code, out, _ = run(capsys, "bounds", "prior", "--inputs", "2", "--units", "3", "--rank", "3")
    assert code == EXIT_OK
    assert results_of(out) == {"lower": 9, "upper": 46}


def test_usage_error(capsys):
    code, _, _ = run(capsys, "bounds", "shallow", "--inputs", "2")
    assert code == EXIT_USAGE


def test_cached_parser_gives_the_outputs_of_a_fresh_one(capsys):
    # main reuses one parser per process: a usage error and the commands
    # after it print what they print with a newly built parser.
    commands = [
        ("bounds", "shallow", "--inputs", "2"),
        ("bounds", "shallow", "--inputs", "2", "--ranks", "2,2,2", "--no-bias"),
        ("bounds", "shallow", "--inputs", "2", "--ranks", "2,2,2"),
        ("construct", "shallow-max", "--inputs", "2", "--ranks", "3,3", "--seed", "1"),
    ]

    def outputs(fresh):
        seen = []
        for argv in commands:
            if fresh:
                build_parser.cache_clear()
            code, out, err = run(capsys, *argv)
            doc = json.loads(out) if out else None
            if isinstance(doc, dict):
                doc.pop("timings_ms", None)
            seen.append((code, doc, err))
        return seen

    cached = outputs(fresh=False)
    assert build_parser() is build_parser()
    assert [code for code, _, _ in cached] == [EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK]
    assert cached[1][1] != cached[2][1]
    assert cached == outputs(fresh=True)


def test_construct_then_count_all_methods(tmp_path, capsys):
    net = tmp_path / "net.json"
    code, _, _ = run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "3,3",
                     "--seed", "1", "-o", str(net))
    assert code == EXIT_OK
    code, out, _ = run(capsys, "regions", "count", "--network", str(net), "--method", "all")
    assert code == EXIT_OK
    r = results_of(out)
    assert r["pattern"]["regions"] == r["poset"]["regions"] == r["dual"]["regions"] == 9
    assert r["consistent"] is True


def test_regions_count_lp_cost(tmp_path, capsys):
    # One build_atoms serves is_simple and the poset; the dual count is the
    # upper-vertex count alone.  Per stage: atoms 9, is_simple 0, pattern
    # 0, poset 0, dual 27 LPs: one drop LP per point of the lifted sum.
    # The pattern count reads its regions, and their boundedness, off the
    # layer's fan.
    # In Q^2 two atoms of this generic layer meet in a point and three have
    # inconsistent ties, so is_simple and the poset's point elements are
    # decided by rank, and the ambient space, with no rows, needs no LP.
    # No system solves its margin LP twice, and the poset's one-atom
    # elements reuse the atoms' solved systems.
    net = tmp_path / "net.json"
    run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "3,3,3",
        "--seed", "1", "-o", str(net))
    expected = {
        "pattern": (0, {"pattern": {"regions": 19, "bounded_regions": 7}}),
        "poset": (9, {"poset": {"regions": 19}}),
        "dual": (36, {"dual": {"regions": 19}}),
        "all": (36, {
            "pattern": {"regions": 19, "bounded_regions": 7},
            "poset": {"regions": 19},
            "dual": {"regions": 19},
            "consistent": True,
        }),
    }
    for method, (lps, results) in expected.items():
        start = lp_call_count()
        code, out, _ = run(capsys, "regions", "count", "--network", str(net), "--method", method)
        assert code == EXIT_OK
        assert lp_call_count() - start == lps
        assert results_of(out) == results
        # The pinned count is exactly the budget the command needs.
        argv = ("regions", "count", "--network", str(net), "--method", method, "--lp-budget")
        code, out, _ = run(capsys, *argv, str(lps))
        assert code == EXIT_OK
        assert results_of(out) == results
        if lps:
            code, _, err = run(capsys, *argv, str(lps - 1))
            assert code == EXIT_BUDGET
            assert "TROPIC_BUDGET_LP" in err


def test_pattern_count_needs_no_lp_budget(tmp_path, capsys):
    # The pattern count reads the regions off the layer's fan, so a zero
    # budget is enough, and the command solves no LP.
    net = tmp_path / "net.json"
    run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "3,3,3",
        "--seed", "1", "-o", str(net))
    start = lp_call_count()
    code, out, _ = run(capsys, "regions", "count", "--network", str(net), "--method", "pattern",
                       "--lp-budget", "0")
    assert code == EXIT_OK
    assert lp_call_count() - start == 0
    assert '"results": {"pattern": {"bounded_regions": 7, "regions": 19}}' in out


def test_regions_count_takes_no_jobs_flag(tmp_path, capsys):
    # The pattern count runs in this process alone: --jobs is gone, and
    # passing it is a usage error.
    net = tmp_path / "net.json"
    run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "2,2",
        "--seed", "1", "-o", str(net))
    for value in ("1", "2"):
        code, _, err = run(capsys, "regions", "count", "--network", str(net), "--jobs", value)
        assert code == EXIT_USAGE
        assert "--jobs" in err


@pytest.mark.parametrize("method,budget", [("poset", 5), ("dual", 35), ("poset", 8)])
def test_lp_budget_bounds_the_whole_command(tmp_path, capsys, method, budget):
    # atoms and is_simple spend 9 LPs, then the poset (0) or the
    # upper-vertex classification (27) gets only what is left.  --method
    # poset needs 9 LPs in all and --method dual 36.
    net = tmp_path / "net.json"
    run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "3,3,3",
        "--seed", "1", "-o", str(net))
    code, _, err = run(capsys, "regions", "count", "--network", str(net),
                       "--method", method, "--lp-budget", str(budget))
    assert code == EXIT_BUDGET
    assert "TROPIC_BUDGET_LP" in err


def test_env_budget_bounds_commands_without_the_flag(tmp_path, capsys, monkeypatch):
    # Classifying the six points solves 6 LPs, one per point.
    f = tmp_path / "fig.json"
    f.write_text(json.dumps({"dim": 2, "points": [[0, 0], [2, 0], [0, 2], [2, 2], [1, 1], [3, 1]]}))
    monkeypatch.setenv("TROPIC_BUDGET_LP", "5")
    code, _, err = run(capsys, "minkowski", "classify", "--points", str(f))
    assert code == EXIT_BUDGET
    assert "TROPIC_BUDGET_LP" in err
    monkeypatch.setenv("TROPIC_BUDGET_LP", "6")
    assert run(capsys, "minkowski", "classify", "--points", str(f))[0] == EXIT_OK
    # The flag, where a command has it, overrides the environment.  The
    # dual count solves 15 LPs on this layer.
    net = tmp_path / "net.json"
    run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "3,3",
        "--seed", "1", "-o", str(net))
    argv = ("regions", "count", "--network", str(net), "--method", "dual")
    assert run(capsys, *argv)[0] == EXIT_BUDGET
    assert run(capsys, *argv, "--lp-budget", "1000")[0] == EXIT_OK


def test_invalid_env_budget_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # Also for a command that solves no LP.
    net = tmp_path / "net.json"
    run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "2,2",
        "--seed", "1", "-o", str(net))
    monkeypatch.setenv("TROPIC_BUDGET_LP", "abc")
    for argv in (("bounds", "shallow", "--inputs", "2", "--ranks", "2,2"),
                 ("regions", "count", "--network", str(net))):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert "TROPIC_BUDGET_LP must be an integer, got 'abc'" in err


@pytest.mark.parametrize("argv,env,name", [
    (("regions", "count", "--network", "{net}", "--lp-budget", "-1"), None, "--lp-budget"),
    (("regions", "count", "--network", "{net}"), "-5", "TROPIC_BUDGET_LP"),
    (("sample", "layer", "--inputs", "2", "--ranks", "2,2", "--seed", "1",
      "--magnitude", "-3"), None, "--magnitude"),
    (("bounds", "prior", "--inputs", "-2", "--units", "3", "--rank", "3"), None, "--inputs"),
    (("bounds", "prior", "--inputs", "2", "--units", "0", "--rank", "3"), None, "--units"),
    (("bounds", "deep", "--inputs", "2", "--widths", "2,2", "--rank", "-1"), None, "--rank"),
    (("verify", "identities", "--trials", "-2", "--seed", "1"), None, "--trials"),
    (("construct", "shallow-max", "--inputs", "2", "--ranks", "2,2", "--seed", "-1"),
     None, "--seed"),
], ids=["lp-budget", "env-budget", "magnitude", "inputs", "units",
        "rank", "trials", "seed"])
def test_negative_limits_are_usage_errors(tmp_path, capsys, monkeypatch, argv, env, name):
    net = tmp_path / "net.json"
    run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "2,2",
        "--seed", "1", "-o", str(net))
    if env is not None:
        monkeypatch.setenv("TROPIC_BUDGET_LP", env)
    code, _, err = run(capsys, *(a.format(net=net) for a in argv))
    assert code == EXIT_USAGE
    assert name in err and "must be an integer >=" in err


def test_limits_at_their_floor_are_accepted(tmp_path, capsys, monkeypatch):
    # A zero budget only stops a command that solves an LP.
    net = tmp_path / "net.json"
    run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "2,2",
        "--seed", "1", "-o", str(net))
    assert run(capsys, "sample", "layer", "--inputs", "2", "--ranks", "2,2", "--seed", "1",
               "--magnitude", "1")[0] == EXIT_OK
    assert run(capsys, "poset", "cells", "--network", str(net),
               "--lp-budget", "0")[0] == EXIT_BUDGET
    code, out, _ = run(capsys, "bounds", "prior", "--inputs", "1", "--units", "1", "--rank", "1")
    assert code == EXIT_OK
    assert results_of(out) == {"lower": 1, "upper": 1}
    code, out, _ = run(capsys, "verify", "identities", "--trials", "1", "--seed", "0",
                       "--suite", "lemmas")
    assert code == EXIT_OK
    assert results_of(out)["suites"][0]["passed"] == 1
    monkeypatch.setenv("TROPIC_BUDGET_LP", "0")
    assert run(capsys, "bounds", "shallow", "--inputs", "2", "--ranks", "2,2")[0] == EXIT_OK
    assert run(capsys, "regions", "count", "--network", str(net))[0] == EXIT_OK
    assert run(capsys, "regions", "count", "--network", str(net),
               "--method", "poset")[0] == EXIT_BUDGET


def test_poset_dump_has_no_signature_cap(tmp_path, capsys):
    # The LP budget is the one work limit; no command takes a signature cap.
    net = tmp_path / "net.json"
    run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "2,2",
        "--seed", "1", "-o", str(net))
    for argv in (("poset", "dump"), ("poset", "cells"), ("regions", "count")):
        code, _, err = run(capsys, *argv, "--network", str(net), "--max-signatures", "1")
        assert code == EXIT_USAGE
        assert "--max-signatures" in err
        assert run(capsys, *argv, "--network", str(net), "--lp-budget", "1000")[0] == EXIT_OK


def test_regions_deterministic_bytes(tmp_path, capsys):
    net = tmp_path / "net.json"
    run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "2,2",
        "--seed", "3", "-o", str(net))
    _, out1, _ = run(capsys, "regions", "count", "--network", str(net), "--method", "pattern")
    _, out2, _ = run(capsys, "regions", "count", "--network", str(net), "--method", "pattern")
    assert json.dumps(json.loads(out1)["results"]) == json.dumps(json.loads(out2)["results"])


def test_budget_exit(tmp_path, capsys):
    net = tmp_path / "net.json"
    run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "3,3",
        "--seed", "1", "-o", str(net))
    # The poset count solves 6 LPs on this layer.
    argv = ("regions", "count", "--network", str(net), "--method", "poset")
    code, _, err = run(capsys, *argv, "--lp-budget", "2")
    assert code == EXIT_BUDGET
    assert "TROPIC_BUDGET_LP" in err
    # The next in-process command does not inherit the spent budget.
    assert run(capsys, *argv)[0] == EXIT_OK
    assert linprog._lp_limit is None


def test_require_simple_exit(tmp_path, capsys):
    # two units tying on the same hyperplane {x = 0}
    doc = {
        "input_dim": 2,
        "layers": [
            {
                "bias_mode": "bias",
                "units": [
                    {"weights": [[1, 0], [0, 0]], "biases": [0, 0]},
                    {"weights": [[2, 0], [0, 0]], "biases": [0, 0]},
                ],
            }
        ],
    }
    net = tmp_path / "bad.json"
    net.write_text(json.dumps(doc))
    code, _, err = run(capsys, "regions", "count", "--network", str(net),
                       "--method", "pattern", "--require-simple")
    assert code == EXIT_PRECONDITION
    assert "not simple" in err


def test_deep_network_pattern_only(tmp_path, capsys):
    net = tmp_path / "deep.json"
    run(capsys, "construct", "deep-lower", "--inputs", "1", "--widths", "2,1",
        "--rank", "2", "--seed", "0", "-o", str(net))
    code, out, _ = run(capsys, "regions", "count", "--network", str(net), "--method", "pattern")
    assert code == EXIT_OK
    assert results_of(out)["pattern"]["regions"] >= 6
    code, _, _ = run(capsys, "regions", "count", "--network", str(net), "--method", "poset")
    assert code == EXIT_PRECONDITION
    # --method all would report the pattern count alone, with no
    # consistency check across methods, so it is refused too.
    code, out, err = run(capsys, "regions", "count", "--network", str(net), "--method", "all")
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "only --method pattern" in err


def test_require_simple_refused_on_multi_layer_input(tmp_path, capsys):
    # Simplicity is certified for one layer's arrangement only, so the
    # flag is refused, not ignored, on a deep network.
    net = tmp_path / "deep.json"
    run(capsys, "construct", "deep-lower", "--inputs", "1", "--widths", "2,1",
        "--rank", "2", "--seed", "0", "-o", str(net))
    code, out, err = run(capsys, "regions", "count", "--network", str(net),
                         "--method", "pattern", "--require-simple")
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "--require-simple" in err


def test_deep_lower_builds_what_the_bound_admits(tmp_path, capsys):
    # bounds deep attains lower 14 on (2; 6,1) at n = 1, so construct
    # deep-lower builds that network rather than refusing it.
    _, out, _ = run(capsys, "bounds", "deep", "--inputs", "2", "--widths", "6,1", "--rank", "2")
    assert (results_of(out)["lower"], results_of(out)["lower_n"]) == (14, 1)
    net = tmp_path / "deep.json"
    code, _, _ = run(capsys, "construct", "deep-lower", "--inputs", "2", "--widths", "6,1",
                     "--rank", "2", "--seed", "0", "-o", str(net))
    assert code == EXIT_OK


def test_poset_dump(tmp_path, capsys):
    net = tmp_path / "net.json"
    run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "2,2",
        "--seed", "1", "-o", str(net))
    code, out, _ = run(capsys, "poset", "dump", "--network", str(net))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["regions"] == 4
    assert len(doc["atoms"]) == 2
    assert any(e["dim"] == 0 and e["mobius"] == 1 for e in doc["elements"])
    assert doc["faces"]["1"] == 4 and doc["faces"]["0"] == 1


def test_poset_dump_lp_budget_counts_the_atoms(tmp_path, capsys):
    # 7 LPs in all, every one for build_atoms: the poset itself solves none.
    net = tmp_path / "net.json"
    run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "3,3,2",
        "--seed", "1", "-o", str(net))
    code, _, err = run(capsys, "poset", "dump", "--network", str(net), "--lp-budget", "6")
    assert code == EXIT_BUDGET
    assert "TROPIC_BUDGET_LP" in err
    code, out, _ = run(capsys, "poset", "dump", "--network", str(net), "--lp-budget", "7")
    assert code == EXIT_OK
    assert json.loads(out)["regions"] == 14


def test_cells_dump(tmp_path, capsys):
    doc = {
        "input_dim": 1,
        "layers": [{"bias_mode": "bias", "units": [{"weights": [[1], [0]], "biases": [0, 0]}]}],
    }
    net = tmp_path / "relu.json"
    net.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "poset", "cells", "--network", str(net))
    assert code == EXIT_OK
    cells = json.loads(out)["cells"]
    assert sorted(c["dim"] for c in cells) == [0, 1, 1]


def test_minkowski_classify(tmp_path, capsys):
    pts = {
        "dim": 3,
        "points": [[1, 0, 1], [0, 1, 1], [1, 1, 0], [2, 3, 1], [3, 2, 1], [3, 3, 0]],
        "label": "figure-sum",
    }
    f = tmp_path / "fig.json"
    f.write_text(json.dumps(pts))
    code, out, _ = run(capsys, "minkowski", "classify", "--points", str(f))
    assert code == EXIT_OK
    r = results_of(out)
    assert r["vertices"] == 6 and r["upper_vertices"] == 5


def test_emitted_witnesses_are_pinned(tmp_path, capsys):
    # The sha256 of the exact witnesses that two commands print: every cell
    # of shallow-max (2; 3,3,2), and the classification of the lifted sum
    # of shallow-max (3; 2,2,2,2,2), whose drop LPs carry the multi-digit
    # Bareiss entries of 5 x 5 minors in Q^4.
    net = tmp_path / "net.json"
    run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "3,3,2",
        "--seed", "1", "-o", str(net))
    code, out, _ = run(capsys, "poset", "cells", "--network", str(net))
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4155d368b84c599ec064a8cdf237fd64a1bd501e194bfc1c4fc364f69f5ffe6c")
    run(capsys, "construct", "shallow-max", "--inputs", "3", "--ranks", "2,2,2,2,2",
        "--seed", "1", "-o", str(net))
    pts = tmp_path / "pts.json"
    code, out, _ = run(capsys, "minkowski", "lift-sum", "--network", str(net))
    pts.write_text(out)
    code, out, _ = run(capsys, "minkowski", "classify", "--points", str(pts))
    assert code == EXIT_OK
    results = json.dumps(results_of(out), sort_keys=True)
    assert hashlib.sha256(results.encode()).hexdigest() == (
        "220c73580c40761828388d1c96b4b07420f9dfc462a28ce7ba8f88e05172c17b")


@pytest.mark.parametrize("text,message", [
    (json.dumps({"dim": 2, "points": [["abc", 0], [1, 1]]}),
     "$.points[0][0]: not a valid rational string: 'abc'"),
    ('{"dim": 2, "points": [[0, 0], [1', "invalid JSON"),
    ("[[0, 0]]", "$: expected an object"),
    (json.dumps({"dim": 0, "points": [[]]}), "$.dim: expected a positive integer"),
    (json.dumps({"dim": 2, "points": []}), "$.points: expected a nonempty array"),
    (json.dumps({"dim": 2, "points": [[0, 0], [1, 1, 1]]}),
     "$.points[1]: expected an array of length 2"),
    (json.dumps({"dim": 2, "points": [[0, 0]], "label": 7}), "$.label: expected a string"),
], ids=["bad-rational", "truncated", "root", "dim", "points", "point-length", "label"])
def test_bad_point_file_is_usage_error(tmp_path, capsys, text, message):
    # The same faults as in a network file, and the same exit code.
    f = tmp_path / "pts.json"
    f.write_text(text)
    code, _, err = run(capsys, "minkowski", "classify", "--points", str(f))
    assert code == EXIT_USAGE
    assert message in err


def test_repeated_point_is_usage_error(tmp_path, capsys):
    # A repeat is refused, not dropped, so the classification keeps one
    # entry per input point; "2/4" and "1/2" are the same rational.
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"dim": 2, "points": [[0, 0], ["1/2", 1], [2, 0], ["2/4", 1]]}))
    code, out, err = run(capsys, "minkowski", "classify", "--points", str(f))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "$.points[3]: repeats $.points[1]\n"


def _network_doc(**layer_fields):
    # A one-layer network file of one rank-2 unit in Q^2, with the given
    # fields of its layer replaced.
    unit = {"weights": [[1, 0], [0, 1]], "biases": [0, 0]}
    return {"input_dim": 2, "layers": [{"bias_mode": "bias", "units": [unit], **layer_fields}]}


@pytest.mark.parametrize("doc,message", [
    ([1], "$: expected an object"),
    ({**_network_doc(), "input_dim": 0}, "$.input_dim: expected a positive integer"),
    ({**_network_doc(), "layers": []}, "$.layers: expected a nonempty array"),
    ({**_network_doc(), "layers": ["dense"]}, "$.layers[0]: expected an object"),
    (_network_doc(bias_mode="relu"), "$.layers[0].bias_mode: expected 'bias' or 'no_bias'"),
    (_network_doc(units=[]), "$.layers[0].units: expected a nonempty array"),
    (_network_doc(units=[[1, 0]]), "$.layers[0].units[0]: expected an object"),
    (_network_doc(units=[{"weights": [[1, 0], [0, 1]], "biases": [0]}]),
     "$.layers[0].units[0].biases: expected an array of length 2"),
], ids=["root", "input_dim", "layers", "layer", "bias_mode", "units", "unit", "biases"])
def test_bad_network_file_is_usage_error(tmp_path, capsys, doc, message):
    net = tmp_path / "net.json"
    net.write_text(json.dumps(doc))
    code, out, err = run(capsys, "regions", "count", "--network", str(net))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == message + "\n"


def test_ranks_below_one_are_a_usage_error(capsys):
    code, out, err = run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "0,2",
                         "--seed", "1")
    assert (code, out) == (EXIT_USAGE, "")
    assert "ranks/widths must be positive integers" in err


@pytest.mark.parametrize("flag,text", [
    ("--ranks", "1,,2"), ("--ranks", "2,"), ("--widths", "1,,2"), ("--widths", "2,"),
], ids=["ranks-inner", "ranks-trailing", "widths-inner", "widths-trailing"])
def test_empty_rank_entries_are_a_usage_error(capsys, flag, text):
    # An empty entry is refused, not dropped: "1,,2" is not "1,2".
    command = ("shallow", "--ranks") if flag == "--ranks" else ("deep", "--widths")
    code, out, err = run(capsys, "bounds", *command, text, "--inputs", "3",
                         *(("--rank", "2") if flag == "--widths" else ()))
    assert (code, out) == (EXIT_USAGE, "")
    assert f"bad integer list: {text!r}" in err and flag in err


def test_minkowski_lift_sum(tmp_path, capsys):
    net = tmp_path / "net.json"
    run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "2,2",
        "--seed", "1", "-o", str(net))
    code, out, _ = run(capsys, "minkowski", "lift-sum", "--network", str(net))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["dim"] == 3 and len(doc["points"]) == 4


def test_sample_layer(tmp_path, capsys):
    out_file = tmp_path / "sampled.json"
    code, _, _ = run(capsys, "sample", "layer", "--inputs", "2", "--ranks", "2,2",
                     "--seed", "11", "-o", str(out_file))
    assert code == EXIT_OK
    code, out, _ = run(capsys, "regions", "count", "--network", str(out_file),
                       "--method", "pattern")
    assert results_of(out)["pattern"]["regions"] == 4


def test_verify_identities(capsys):
    code, out, _ = run(capsys, "verify", "identities", "--trials", "2", "--seed", "7")
    assert code == EXIT_OK
    r = results_of(out)
    assert r["all_passed"] is True
    assert {s["suite"] for s in r["suites"]} == {
        "subsum_noncentral", "subsum_central", "weibel_upper", "bounded_gap", "lemmas"
    }


def test_verify_failure_exits_5(capsys, monkeypatch):
    from tropic import verify as vmod

    def fake(trials, seed, names=None):
        return [{"suite": "lemmas", "trials": 1, "passed": 0,
                 "failures": [{"trial": 0, "value": 2}]}]

    monkeypatch.setattr(vmod, "run_suites", fake)
    code, out, _ = run(capsys, "verify", "identities", "--trials", "1", "--seed", "0")
    assert code == EXIT_IDENTITY
    assert json.loads(out)["results"]["all_passed"] is False


def test_identity_failure_reports_its_counterexample(capsys, monkeypatch):
    # A real failing trial, through _suite: trial 0 of the lemmas suite is
    # the inclusion-exclusion lemma, which must collapse to 1; trial 1, the
    # reformulation, still passes.
    from tropic import verify as vmod

    monkeypatch.setattr(vmod, "identity_inclusion_exclusion", lambda m, n, r: 2)
    code, out, _ = run(capsys, "verify", "identities", "--suite", "lemmas", "--trials", "2",
                       "--seed", "0")
    assert code == EXIT_IDENTITY
    r = results_of(out)
    assert r["all_passed"] is False
    assert r["suites"] == [{
        "suite": "lemmas",
        "trials": 2,
        "passed": 1,
        "failures": [{"trial": 0, "lemma": "inclusion_exclusion", "m": 7, "n": 6, "r": 3,
                      "value": 2}],
    }]


def test_missing_file_is_usage_error(capsys):
    code, _, _ = run(capsys, "regions", "count", "--network", "/nonexistent.json")
    assert code == EXIT_USAGE


def _unreadable(tmp_path, kind):
    # A directory can be opened by no user, root included, where a
    # permission bit would not stop root; a file starting with a UTF-16
    # byte-order mark is not UTF-8.
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "file.json"
    path.write_bytes(b"\xff\xfe{}")
    return str(path)


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
@pytest.mark.parametrize("argv", [
    ("regions", "count", "--network"),
    ("minkowski", "classify", "--points"),
], ids=["network", "points"])
def test_unreadable_input_is_a_usage_error(tmp_path, capsys, argv, kind):
    path = _unreadable(tmp_path, kind)
    code, out, err = run(capsys, *argv, path)
    assert (code, out) == (EXIT_USAGE, "")
    assert path in err and "Traceback" not in err


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "2,2",
                         "--seed", "1", "-o", str(tmp_path))
    assert (code, out) == (EXIT_USAGE, "")
    assert str(tmp_path) in err


NETWORK = object()  # stands for the path of the network an -o command reads

OUTPUT_COMMANDS = {
    "construct": ("construct", "shallow-max", "--inputs", "2", "--ranks", "3,3", "--seed", "1"),
    "sample-layer": ("sample", "layer", "--inputs", "2", "--ranks", "2,2", "--seed", "11"),
    "poset-dump": ("poset", "dump", "--network", NETWORK),
    "poset-cells": ("poset", "cells", "--network", NETWORK),
    "lift-sum": ("minkowski", "lift-sum", "--network", NETWORK),
}


def _output_command(tmp_path, capsys, name):
    """The argv of an -o command, without -o, and the bytes it prints.

    A command that reads a network reads shallow-max (2; 3,3), written
    from stdout so that no -o write is under test in it."""
    net = tmp_path / "net.json"
    _, doc, _ = run(capsys, *OUTPUT_COMMANDS["construct"])
    net.write_text(doc)
    argv = [str(net) if a is NETWORK else a for a in OUTPUT_COMMANDS[name]]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    return argv, out.encode()


@pytest.mark.parametrize("name", OUTPUT_COMMANDS)
def test_output_over_a_longer_file_leaves_the_printed_bytes(tmp_path, capsys, name):
    # -o writes in place and cuts the file to length: no tail of the old,
    # longer file is left.
    argv, printed = _output_command(tmp_path, capsys, name)
    target = tmp_path / "out.json"
    target.write_bytes(b"#" * (len(printed) + 4096))
    assert run(capsys, *argv, "-o", str(target)) == (EXIT_OK, "", "")
    assert target.read_bytes() == printed


@pytest.mark.parametrize("name", OUTPUT_COMMANDS)
def test_output_to_devnull(tmp_path, capsys, name):
    # /dev/null seeks but cannot be truncated.
    argv, _ = _output_command(tmp_path, capsys, name)
    assert run(capsys, *argv, "-o", os.devnull) == (EXIT_OK, "", "")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("name", OUTPUT_COMMANDS)
def test_output_to_a_pipe_delivers_the_document(tmp_path, capsys, name):
    # A pipe can be neither seeked nor truncated; each document here is
    # smaller than a pipe's buffer.
    argv, printed = _output_command(tmp_path, capsys, name)
    r, w = os.pipe()
    try:
        result = run(capsys, *argv, "-o", f"/dev/fd/{w}")
    finally:
        os.close(w)
    with os.fdopen(r, "rb") as fh:
        delivered = fh.read()
    assert result == (EXIT_OK, "", "")
    assert delivered == printed


@pytest.mark.parametrize("name", OUTPUT_COMMANDS)
def test_output_creates_a_file_with_the_umask_mode(tmp_path, capsys, name):
    argv, printed = _output_command(tmp_path, capsys, name)
    target = tmp_path / "new.json"
    umask = os.umask(0o002)
    try:
        code, _, _ = run(capsys, *argv, "-o", str(target))
    finally:
        os.umask(umask)
    assert code == EXIT_OK and target.read_bytes() == printed
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~0o002


@pytest.mark.parametrize("argv, message", [
    (("poset", "dump"), "poset dump needs a single-layer network"),
    (("poset", "cells"), "cell dump needs a single-layer network"),
    (("minkowski", "lift-sum"), "lift-sum needs a single-layer network"),
], ids=["poset-dump", "poset-cells", "lift-sum"])
def test_single_layer_commands_refuse_a_deep_network(tmp_path, capsys, argv, message):
    net = tmp_path / "deep.json"
    code, _, _ = run(capsys, "construct", "deep-lower", "--inputs", "2", "--widths", "2,2",
                     "--rank", "2", "--seed", "1", "-o", str(net))
    assert code == EXIT_OK
    code, out, err = run(capsys, *argv, "--network", str(net))
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert message in err


def test_construct_shallow_max_without_bias(tmp_path, capsys):
    # The no-bias construction attains the central bound, 6 on (2; 3,3),
    # with every region unbounded.
    net = tmp_path / "net.json"
    code, _, _ = run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "3,3",
                     "--seed", "1", "--no-bias", "-o", str(net))
    assert code == EXIT_OK
    assert json.loads(net.read_text())["layers"][0]["bias_mode"] == "no_bias"
    _, out, _ = run(capsys, "bounds", "shallow", "--inputs", "2", "--ranks", "3,3", "--no-bias")
    assert results_of(out)["regions_max"] == 6
    code, out, _ = run(capsys, "regions", "count", "--network", str(net), "--method", "all")
    assert code == EXIT_OK
    r = results_of(out)
    assert r["pattern"] == {"regions": 6, "bounded_regions": 0} and r["consistent"] is True


def test_deep_bounds_report_a_lower_bound_they_cannot_attain(capsys):
    # No replication dimension is admissible on (2; 3,3), so the report
    # carries the reason in place of a lower bound, and still succeeds.
    code, out, _ = run(capsys, "bounds", "deep", "--inputs", "2", "--widths", "3,3", "--rank", "2")
    assert code == EXIT_OK
    r = results_of(out)
    assert "lower" not in r and "no admissible replication dimension" in r["lower_error"]
    assert r["upper"] == 49


def test_library_refusal_is_a_precondition_failure(capsys):
    # main turns the ValueError a constructor raises into exit 4 and its
    # message.
    code, out, err = run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "1,2",
                         "--seed", "1")
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert "ranks must all be >= 2" in err


def test_non_integer_ranks_are_a_usage_error(capsys):
    code, out, err = run(capsys, "construct", "shallow-max", "--inputs", "2", "--ranks", "a,b",
                         "--seed", "1")
    assert (code, out) == (EXIT_USAGE, "")
    assert "bad integer list: 'a,b'" in err

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dlrepair
import pool_digest
from dlrepair import apply_update, eval_member, parse_fact, parse_instance, parse_program, Rule, Update
from dlrepair.classify import _classify
from dlrepair import parser
from dlrepair.cli import _argparse, _fast_parse, run
from dlrepair.engine import _plan, _readers
from dlrepair.model import _specialize, ungrounded_vars
from dlrepair.repair import _prepare

TRIANGLE_SRC = "s(X,Y,Z) :- r(X,Y), r(Y,Z), !r(Z,X).\n"


@pytest.fixture()
def triangle(tmp_path):
    query = tmp_path / "q.dl"
    query.write_text(TRIANGLE_SRC)
    data = tmp_path / "d.facts"
    data.write_text("r(3,1).\n")
    return query, data


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run([str(a) for a in argv], out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestRepairCommand:
    def test_json_golden(self, triangle):
        query, data = triangle
        code, out, _ = invoke(["repair", "-q", query, "-d", data, "-t", "(1,2,3)", "--json"])
        assert code == 0
        assert json.loads(out) == {
            "status": "found",
            "size": 3,
            "insert": ["r(1,2)", "r(2,3)"],
            "delete": ["r(3,1)"],
            "witness_assignment": {"X": "1", "Y": "2", "Z": "3"},
        }

    def test_json_round_trip_applies(self, triangle):
        query, data = triangle
        _, out, _ = invoke(["repair", "-q", query, "-d", data, "-t", "(1,2,3)", "--json"])
        payload = json.loads(out)
        update = Update.of(
            [parse_fact(s, allow_fresh=True) for s in payload["insert"]],
            [parse_fact(s, allow_fresh=True) for s in payload["delete"]],
        )
        program = parse_program(TRIANGLE_SRC)
        instance = parse_instance("r(3,1).")
        assert eval_member(program, apply_update(instance, update), ("1", "2", "3"))

    def test_no_repair_exit(self, triangle):
        query, data = triangle
        code, out, _ = invoke(["repair", "-q", query, "-d", data, "-t", "(1,1,1)"])
        assert code == 1
        assert "no_repair" in out

    def test_oracle_no_repair_exit(self, triangle):
        """The oracle's default budget bounds every minimal repair of a
        non-recursive query, so its empty search proves that none exists."""
        query, data = triangle
        code, out, _ = invoke(["repair", "-q", query, "-d", data, "-t", "(1,1,1)", "--oracle"])
        assert code == 1
        assert out == "status: no_repair\n"

    def test_budget_exhausted_exit(self, tmp_path):
        query = tmp_path / "sp.dl"
        query.write_text(
            "t(X,Y) :- e(X,Y), !bad(X). t(X,Z) :- e(X,Y), !bad(X), t(Y,Z). @answer t.\n"
        )
        data = tmp_path / "sp.facts"
        data.write_text("bad(a).\n")
        code, out, _ = invoke(["repair", "-q", query, "-d", data, "-t", "(a,c)", "--budget", "0"])
        assert code == 2
        assert "budget_exhausted" in out

    def test_oracle_agrees(self, triangle):
        query, data = triangle
        _, plain, _ = invoke(["repair", "-q", query, "-d", data, "-t", "(1,2,3)", "--json"])
        _, oracle, _ = invoke(["repair", "-q", query, "-d", data, "-t", "(1,2,3)", "--json", "--oracle"])
        assert json.loads(plain)["size"] == json.loads(oracle)["size"]


    def test_plain_text_found(self, triangle):
        query, data = triangle
        code, out, _ = invoke(["repair", "-q", query, "-d", data, "-t", "(1,2,3)"])
        assert code == 0
        assert out.splitlines() == [
            "status: found",
            "size: 3",
            "insert: r(1,2)",
            "insert: r(2,3)",
            "delete: r(3,1)",
            "witness: X=1, Y=2, Z=3",
        ]

    @pytest.mark.parametrize(
        "program, facts, target",
        [
            ("r(X) :- a(X). r(X) :- r(Y), e(Y,X). ans(X) :- r(X), b(X). @answer ans.", "a(1).", "(2)"),
            ("t(X,Y) :- e(X,Y), !bad(X). t(X,Z) :- e(X,Y), !bad(X), t(Y,Z). @answer t.", "bad(a). e(a,b).", "(a,b)"),
        ],
        ids=["positive", "semipositive"],
    )
    def test_oracle_agrees_on_datalog(self, tmp_path, program, facts, target):
        query = tmp_path / "q.dl"
        query.write_text(program + "\n")
        data = tmp_path / "d.facts"
        data.write_text(facts + "\n")
        code, plain, _ = invoke(["repair", "-q", query, "-d", data, "-t", target, "--json"])
        assert code == 0
        code, oracle, _ = invoke(["repair", "-q", query, "-d", data, "-t", target, "--json", "--oracle"])
        assert code == 0
        assert json.loads(oracle)["size"] == json.loads(plain)["size"]

    def test_zero_arity_facts_render_bare(self, tmp_path):
        query = tmp_path / "q.dl"
        query.write_text("ans :- p, !q, r(X).\n")
        data = tmp_path / "d.facts"
        data.write_text("q.\n")
        code, out, _ = invoke(["repair", "-q", query, "-d", data, "-t", "()", "--json"])
        assert code == 0
        assert '"insert": ["p", "r(_c0)"], "delete": ["q"]' in out


SPDL_SRC = "ans(X) :- r(X), !b(X), c(X). r(X) :- a(X). r(X) :- r(Y), e(Y,X).\n"


class TestSizeCommand:
    @pytest.mark.parametrize(
        "program, facts, target, extra, expected",
        [
            ("ans(X) :- e(X,Y), !bad(X), X != a.", "", "(a)", [], (1, "no repair\n")),
            (
                "ans(X) :- r(X), !b(X). r(X) :- a(X). r(X) :- r(Y), e(Y,X).",
                "b(t).",
                "(t)",
                ["--budget", "1"],
                (2, "budget exhausted\n"),
            ),
        ],
        ids=["no-repair", "budget-exhausted"],
    )
    def test_prints_the_status_without_a_size(self, tmp_path, program, facts, target, extra, expected):
        query = tmp_path / "q.dl"
        query.write_text(program + "\n")
        data = tmp_path / "d.facts"
        data.write_text(facts + "\n")
        code, out, _ = invoke(["size", "-q", query, "-d", data, "-t", target, *extra])
        assert (code, out) == expected


class TestDatalogRepairs:
    # A 6-node chain whose end n5 is reachable from no a node, has no c fact
    # and has a b fact that !b(X) forbids: one edit for each.
    CHAIN = "".join(f"e(n{i},n{i + 1}).\n" for i in range(5)) + "c(n2).\nb(n3).\nb(n5).\n"

    @pytest.mark.parametrize("budget", [["--budget", "3"], []], ids=["budget-3", "default-budget"])
    def test_size_3_chain_repair(self, tmp_path, budget):
        query, data = tmp_path / "q.dl", tmp_path / "d.facts"
        query.write_text(SPDL_SRC)
        data.write_text(self.CHAIN)
        code, out, _ = invoke(["repair", "-q", query, "-d", data, "-t", "(n5)", "--json", *budget])
        assert code == 0
        payload = json.loads(out)
        assert (payload["size"], payload["insert"], payload["delete"]) == (3, ["a(n0)", "c(n5)"], ["b(n5)"])

    @pytest.mark.parametrize("program", [SPDL_SRC, SPDL_SRC.replace("!b(X)", "b(X)")], ids=["semipositive", "positive"])
    @pytest.mark.parametrize(
        "fact, complaint",
        [("r(n1).", "derived relation r"), ("a(n1,n2).", "fact a has arity 2, program uses 1")],
        ids=["derived-fact", "arity-mismatch"],
    )
    def test_bad_instance_is_an_input_error(self, tmp_path, program, fact, complaint):
        query, data = tmp_path / "q.dl", tmp_path / "d.facts"
        query.write_text(program)
        data.write_text(self.CHAIN + fact + "\n")
        code, out, err = invoke(["repair", "-q", query, "-d", data, "-t", "(n5)"])
        assert (code, out) == (65, "")
        assert complaint in err

    @pytest.mark.parametrize(
        "command", [["repair"], ["size"], ["bound", "-k", "3"], ["decide"]], ids=lambda c: c[0]
    )
    @pytest.mark.parametrize(
        "fact, complaint",
        [("s(a,b).", "fact s has arity 2, program uses 1"), ("r(a).", "derived relation r")],
        ids=["arity-mismatch", "derived-fact"],
    )
    def test_bad_instance_without_a_repair_is_an_input_error(self, tmp_path, command, fact, complaint):
        # Positive datalog with no repair at (b): the instance is still checked.
        query, data = tmp_path / "q.dl", tmp_path / "d.facts"
        query.write_text("ans(X) :- r(X), X = a. r(X) :- s(X).\n")
        data.write_text(fact + "\n")
        code, out, err = invoke([command[0], "-q", query, "-d", data, "-t", "(b)", *command[1:]])
        assert (code, out) == (65, "")
        assert complaint in err


FRAGMENTS = [
    (TRIANGLE_SRC, "r(3,1).", "(1,2,3)"),
    ("r(X) :- a(X). r(X) :- r(Y), e(Y,X). ans(X) :- r(X), b(X). @answer ans.", "a(1).", "(2)"),
    ("t(X,Y) :- e(X,Y), !bad(X). t(X,Z) :- e(X,Y), !bad(X), t(Y,Z). @answer t.", "bad(a).", "(a,b)"),
]


@pytest.mark.parametrize("program, facts, target", FRAGMENTS, ids=["ucq", "positive", "semipositive"])
class TestNegativeBudget:
    """A negative budget is a usage error on every fragment and command."""

    def files(self, tmp_path, program, facts):
        query = tmp_path / "q.dl"
        query.write_text(program + "\n")
        data = tmp_path / "d.facts"
        data.write_text(facts + "\n")
        return query, data

    @pytest.mark.parametrize("extra", [[], ["--oracle"]], ids=["solver", "oracle"])
    def test_repair(self, tmp_path, program, facts, target, extra):
        query, data = self.files(tmp_path, program, facts)
        code, out, err = invoke(["repair", "-q", query, "-d", data, "-t", target, "--budget", "-1", *extra])
        assert (code, out) == (64, "")
        assert "--budget: expected a non-negative integer, got '-1'" in err

    def test_size_and_bound(self, tmp_path, program, facts, target):
        query, data = self.files(tmp_path, program, facts)
        for option in (["size", "--budget", "-2"], ["bound", "-k", "-1"]):
            code, out, err = invoke([option[0], "-q", query, "-d", data, "-t", target, *option[1:]])
            assert (code, out) == (64, "")
            assert "expected a non-negative integer" in err

    def test_not_an_integer(self, tmp_path, program, facts, target):
        query, data = self.files(tmp_path, program, facts)
        code, out, err = invoke(["size", "-q", query, "-d", data, "-t", target, "--budget", "x"])
        assert (code, out) == (64, "")
        assert "--budget: expected a non-negative integer, got 'x'" in err


class TestDecisionCommands:
    def test_eval_exit_codes(self, triangle):
        query, data = triangle
        assert invoke(["eval", "-q", query, "-d", data, "-t", "(1,2,3)"])[0] == 1
        good = parse_instance("r(1,2). r(2,3).")
        data.write_text("r(1,2). r(2,3).\n")
        assert invoke(["eval", "-q", query, "-d", data, "-t", "(1,2,3)"])[0] == 0

    def test_bound_zero_equals_eval(self, triangle):
        query, data = triangle
        for target in ["(1,2,3)", "(1,1,1)"]:
            eval_code = invoke(["eval", "-q", query, "-d", data, "-t", target])[0]
            bound_code = invoke(["bound", "-q", query, "-d", data, "-t", target, "-k", "0"])[0]
            assert eval_code == bound_code

    def test_decide_boolean_satisfiable(self, tmp_path):
        query = tmp_path / "b.dl"
        query.write_text("ans() :- r(X,Y).\n")
        data = tmp_path / "empty.facts"
        data.write_text("")
        assert invoke(["decide", "-q", query, "-d", data, "-t", "()"])[0] == 0

    def test_size_command(self, triangle):
        query, data = triangle
        code, out, _ = invoke(["size", "-q", query, "-d", data, "-t", "(1,2,3)"])
        assert code == 0 and out.strip() == "3"

    def test_sat_command(self, triangle):
        query, _ = triangle
        code, out, _ = invoke(["sat", "-q", query])
        assert code == 0 and out.startswith("satisfiable")

    def test_sat_positive_datalog_witness(self, tmp_path):
        query = tmp_path / "tc.dl"
        query.write_text("t(X) :- e(X,a). t(X) :- e(X,Y), t(Y). @answer t.\n")
        code, out, _ = invoke(["sat", "-q", query])
        assert code == 0
        assert out.splitlines() == [
            "satisfiable",
            "witness: e(_c0,_c0)",
            "witness: e(_c0,a)",
            "witness: e(a,_c0)",
            "witness: e(a,a)",
        ]

    def test_sat_semipositive_recursive_is_unsupported(self, tmp_path):
        query = tmp_path / "sp.dl"
        query.write_text("t(X) :- e(X). t(X) :- f(X,Y), t(Y), !u(X). @answer t.\n")
        code, _, err = invoke(["sat", "-q", query])
        assert code == 65
        assert err.startswith("error:")

    def test_decide_answer_read_by_rule_body(self, tmp_path):
        query = tmp_path / "reach.dl"
        query.write_text("t(X) :- a(X), X = c. t(X) :- t(Y), e(Y,X).\n")
        data = tmp_path / "empty.facts"
        data.write_text("")
        code, out, _ = invoke(["decide", "-q", query, "-d", data, "-t", "(d)"])
        assert code == 0 and out.strip() == "true"

    def test_classify_command(self, triangle):
        query, _ = triangle
        code, out, _ = invoke(["classify", "-q", query])
        assert code == 0
        assert "is_ucq: true" in out
        assert "projection_free: true" in out


class TestSetcoverCommands:
    def test_full_pipeline(self, tmp_path):
        code, text, _ = invoke(["gen-setcover", "--seed", 7, "-n", 4, "-m", 3, "--density", 0.6])
        assert code == 0
        coverfile = tmp_path / "sc.txt"
        coverfile.write_text(text)
        outdir = tmp_path / "red"
        code, _, _ = invoke(["reduce-setcover", "-i", coverfile, "-o", outdir])
        assert code == 0
        code, rep, _ = invoke(
            [
                "repair",
                "-q",
                outdir / "query.dl",
                "-d",
                outdir / "data.facts",
                "-t",
                (outdir / "tuple.txt").read_text().strip(),
                "--json",
            ]
        )
        assert code == 0
        repfile = tmp_path / "rep.json"
        repfile.write_text(rep)
        code, names, _ = invoke(["extract-cover", "-i", coverfile, "--repair", repfile])
        assert code == 0
        chosen = names.split()
        payload = json.loads(rep)
        assert len(chosen) <= payload["size"]

    def test_gen_setcover_without_a_covering_draw_fails_fast(self):
        # One roll covers 20 elements with 2 sets at density 0.1 with
        # probability about 4e-15, so the generator gives up.
        started = time.perf_counter()
        code, out, err = invoke(["gen-setcover", "--seed", 1, "-n", 20, "-m", 2, "--density", 0.1])
        assert time.perf_counter() - started < 2.0
        assert (code, out) == (65, "")
        assert "n=20 elements, m=2 sets at density 0.1 in 1000 rolls" in err

    @pytest.mark.parametrize(
        "payload, complaint",
        [
            ("[]", "must be an object"),
            ('{"insert": [5]}', "'insert' must be a list of strings"),
            ('{"delete": "s1"}', "'delete' must be a list of strings"),
            ("[" * 100000, "repair JSON is nested too deeply"),
        ],
        ids=["array", "non-string-entry", "string-for-list", "nested-too-deeply"],
    )
    def test_malformed_repair_json_is_an_input_error(self, tmp_path, payload, complaint):
        coverfile = tmp_path / "sc.txt"
        coverfile.write_text(invoke(["gen-setcover", "--seed", 7, "-n", 4, "-m", 3, "--density", 0.6])[1])
        repfile = tmp_path / "rep.json"
        repfile.write_text(payload)
        code, out, err = invoke(["extract-cover", "-i", coverfile, "--repair", repfile])
        assert (code, out) == (65, "")
        assert complaint in err


class TestErrors:
    def test_usage_error(self):
        assert invoke(["bogus"])[0] == 64
        assert invoke(["repair", "-q", "x.dl"])[0] == 64

    def test_input_error_with_position(self, tmp_path):
        bad = tmp_path / "bad.dl"
        bad.write_text("ans(X) :- r(X,\n")
        code, _, err = invoke(["eval", "-q", bad, "-d", bad, "-t", "()"])
        assert code == 65
        assert "line" in err

    def test_missing_file(self):
        assert invoke(["sat", "-q", "/nonexistent/file.dl"])[0] == 65

    def test_unsafe_rule_rejected_by_parser(self, tmp_path):
        query = tmp_path / "unsafe.dl"
        query.write_text("ans(X) :- p(X), !q(X,Y).\n")
        data = tmp_path / "p.facts"
        data.write_text("p(a).\n")
        code, _, err = invoke(["eval", "-q", query, "-d", data, "-t", "(a)"])
        assert code == 65
        assert "variable Y occurs in no positive literal" in err

    def test_unsupported_fragment(self, tmp_path):
        query = tmp_path / "spdec.dl"
        query.write_text("t(X) :- e(X). t(X) :- f(X,Y), t(Y), !u(X). @answer t.\n")
        data = tmp_path / "e.facts"
        data.write_text("")
        assert invoke(["decide", "-q", query, "-d", data, "-t", "(a)"])[0] == 65


class TestLongInputs:
    """Evaluation cost grows about linearly in rules and in body length, and
    neither evaluation nor the repair search recurses; only answers are
    asserted here."""

    def test_eval_on_a_long_rule_chain(self, tmp_path):
        n = 5000
        query = tmp_path / "chain.dl"
        query.write_text("".join(f"p{i}(X) :- p{i + 1}(X).\n" for i in range(n)) + f"p{n}(X) :- a(X).\n")
        data = tmp_path / "a.facts"
        data.write_text("a(n0).\n")
        assert invoke(["eval", "-q", query, "-d", data, "-t", "(n0)"])[:2] == (0, "true\n")

    def test_eval_on_a_long_chain_body(self, tmp_path):
        n = 5000
        query = tmp_path / "chain.dl"
        query.write_text("ans(X0) :- " + ", ".join(f"e(X{i},X{i + 1})" for i in range(n)) + ".\n")
        data = tmp_path / "chain.facts"
        data.write_text("".join(f"e(n{i},n{i + 1}).\n" for i in range(n)))
        assert invoke(["eval", "-q", query, "-d", data, "-t", "(n0)"])[:2] == (0, "true\n")

    @pytest.mark.parametrize(
        "facts, insert",
        [("".join(f"e(n{i},n{i + 1}).\n" for i in range(5000)), []), ("", ["e(_c0,_c0)"])],
        ids=["chain-instance", "empty-instance"],
    )
    def test_repair_on_a_long_chain_body(self, tmp_path, facts, insert):
        # 5,001 variable classes, one plan step each.
        query = tmp_path / "chain.dl"
        query.write_text("ans :- " + ", ".join(f"e(X{i},X{i + 1})" for i in range(5000)) + ".\n")
        data = tmp_path / "chain.facts"
        data.write_text(facts)
        code, out, _ = invoke(["repair", "-q", query, "-d", data, "-t", "()", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["size"], payload["insert"], payload["delete"]) == (len(insert), insert, [])

    def test_eval_on_a_long_boolean_chain_body(self, tmp_path):
        # Every variable is unbound on entry, so evaluation tries the chain
        # from each stored fact: kept at 1,000 literals.
        n = 1000
        query = tmp_path / "chain.dl"
        query.write_text("ans :- " + ", ".join(f"e(X{i},X{i + 1})" for i in range(n)) + ".\n")
        data = tmp_path / "chain.facts"
        data.write_text("".join(f"e(n{i},n{i + 1}).\n" for i in range(n)))
        assert invoke(["eval", "-q", query, "-d", data, "-t", "()"])[:2] == (0, "true\n")


def test_runs_are_independent(triangle):
    # The argument parser is built once and shared by every run.
    query, data = triangle
    argv = ["repair", "-q", query, "-d", data, "-t", "(1,2,3)"]
    code, out, _ = invoke(argv + ["--json"])
    assert (code, json.loads(out)["size"]) == (0, 3)
    code, out, err = invoke(argv + ["--budget", "-1"])
    assert (code, out) == (64, "")
    assert "usage error" in err
    code, out, _ = invoke(argv)
    assert code == 0
    assert out.splitlines()[:2] == ["status: found", "size: 3"]


# Help as argparse lays it out at 80 columns (Python 3.11).
TOP_HELP = """\
usage: dlrepair [-h]
                {classify,eval,decide,bound,size,repair,sat,gen-setcover,reduce-setcover,extract-cover}
                ...

Command-line interface. Exit status: 0 on success (or a true answer / found
repair), 1 for a false answer or no repair, 2 when a budget-capped search
comes back empty, 64 for usage errors, 65 for input errors.

positional arguments:
  {classify,eval,decide,bound,size,repair,sat,gen-setcover,reduce-setcover,extract-cover}
    classify            report the query's syntactic fragment
    eval                is the tuple in the answer?
    decide              does any repair exist?
    bound               does a repair of size at most k exist?
    size                minimum repair size
    repair              compute a minimum repair
    sat                 is the query satisfiable?
    gen-setcover        generate a random set-cover instance
    reduce-setcover     translate a set-cover instance into a repair problem
    extract-cover       turn a repair back into a set cover

options:
  -h, --help            show this help message and exit
"""

REPAIR_HELP = """\
usage: dlrepair repair [-h] -q QUERY -d DATA -t TUPLE_TEXT [--budget BUDGET]
                       [--oracle] [--json]

options:
  -h, --help            show this help message and exit
  -q QUERY, --query QUERY
                        query file (.dl)
  -d DATA, --data DATA  fact database file (.facts)
  -t TUPLE_TEXT, --tuple TUPLE_TEXT
                        target tuple, e.g. "(a,b)"
  --budget BUDGET
  --oracle              use the brute-force reference search
  --json
"""

CHAIN_SRC = "".join(f"e(n{i},n{i + 1}).\n" for i in range(5)) + "c(n2).\nb(n3).\nb(n5).\n"
REPAIR_N5 = ["repair", "-q", "{query}", "-d", "{data}", "-t", "(n5)"]
EXHAUSTED = (2, "status: budget_exhausted\n", "")


def shell(argv):
    """Exit code, stdout and stderr of ``run(argv)`` as a shell call sees
    them, with the streams left to their defaults."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestUsageFallback:
    """Argument lists outside the fast path's subset get argparse's answer,
    byte for byte as the CLI gave it before the fast path existed."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["-h"], (0, TOP_HELP, "")),
            (["repair", "-h"], (0, REPAIR_HELP, "")),
            (REPAIR_N5 + ["--budget=2"], EXHAUSTED),
            (REPAIR_N5 + ["--bud", "2"], EXHAUSTED),
            (["repair", "-q{query}", "-d", "{data}", "-t", "(n5)", "--budget", "2"], EXHAUSTED),
            (REPAIR_N5 + ["--budget", "3", "--budget", "2"], EXHAUSTED),
            (
                REPAIR_N5 + ["--budget", "2", "--budget", "3"],
                (0, "status: found\nsize: 3\ninsert: a(n0)\ninsert: c(n5)\ndelete: b(n5)\n", ""),
            ),
            (
                REPAIR_N5 + ["--budget", "-1"],
                (64, "", "usage error: argument --budget: expected a non-negative integer, got '-1'\n"),
            ),
            (
                ["bound", "-q", "{query}", "-d", "{data}", "-t", "(n5)", "-k", "x"],
                (64, "", "usage error: argument -k: expected a non-negative integer, got 'x'\n"),
            ),
            (
                ["repair", "-q", "{query}", "-d", "{data}"],
                (64, "", "usage error: the following arguments are required: -t/--tuple\n"),
            ),
            (REPAIR_N5 + ["--fast"], (64, "", "usage error: unrecognized arguments: --fast\n")),
            (
                ["repair", "-q", "{query}", "-d", "{data}", "--", "-t", "(n5)"],
                (64, "", "usage error: the following arguments are required: -t/--tuple\n"),
            ),
            ([], (64, "", "usage error: the following arguments are required: command\n")),
            (
                ["fix", "-q", "{query}"],
                (
                    64,
                    "",
                    "usage error: argument command: invalid choice: 'fix' (choose from 'classify', 'eval', "
                    "'decide', 'bound', 'size', 'repair', 'sat', 'gen-setcover', 'reduce-setcover', "
                    "'extract-cover')\n",
                ),
            ),
        ],
        ids=[
            "help",
            "command-help",
            "equals",
            "abbreviation",
            "attached-value",
            "repeated-last-2",
            "repeated-last-3",
            "negative-budget",
            "k-not-a-number",
            "missing-tuple",
            "unknown-option",
            "double-dash",
            "empty",
            "unknown-command",
        ],
    )
    def test_same_answer(self, tmp_path, monkeypatch, argv, expected):
        monkeypatch.setenv("COLUMNS", "80")
        query, data = tmp_path / "q.dl", tmp_path / "d.facts"
        query.write_text(SPDL_SRC)
        data.write_text(CHAIN_SRC)
        assert shell([a.format(query=query, data=data) for a in argv]) == expected


# The option strings of each command, with the values to draw for each:
# well-formed ones first, then some that argparse rejects or reads apart.
PATHS = ["q.dl", "d.facts", "(a,b)", "x y", "", "=", "-", "-q"]
COUNTS = ["0", "3", "12", "-1", "x", "1.5", "٣", " 4"]
INTS = ["0", "7", "25", "-2", "x", "0x1"]
FLOATS = ["0.4", "1", "nan", "1e3", "-0.5", "x", "inf"]
IO = [(("-q", "--query"), PATHS, True), (("-d", "--data"), PATHS, True), (("-t", "--tuple"), PATHS, True)]
COMMAND_OPTIONS = {
    "classify": IO[:1],
    "eval": IO,
    "decide": IO,
    "bound": IO + [(("-k",), COUNTS, True)],
    "size": IO + [(("--budget",), COUNTS, False)],
    "repair": IO + [(("--budget",), COUNTS, False), (("--oracle",), None, False), (("--json",), None, False)],
    "sat": IO[:1],
    "gen-setcover": [
        (("--seed",), INTS, True),
        (("-n",), INTS, True),
        (("-m",), INTS, True),
        (("--density",), FLOATS, True),
    ],
    "reduce-setcover": [(("-i", "--input"), PATHS, True), (("-o", "--outdir"), PATHS, True)],
    "extract-cover": [(("-i", "--input"), PATHS, True), (("--repair",), PATHS, True)],
}
STRAYS = ["-h", "--help", "--", "-", "--bud", "--que", "--json=1", "-qx.dl", "-k3", "bogus", "", "repair", "-x"]


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *COMMAND_OPTIONS])
def test_help_goes_to_the_callers_stream(flag, command):
    """``run`` returns help's exit code and writes the help to ``out``, not
    to the process's stdout."""
    argv = [flag] if command is None else [command, flag]
    out, err, stray = io.StringIO(), io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stray):
        code = run(argv, out, err)
    assert (code, err.getvalue(), stray.getvalue()) == (0, "", "")
    assert out.getvalue().startswith("usage: dlrepair " + ("" if command is None else command))


def random_argv(rng: random.Random) -> list[str]:
    """A command with each of its options in random order, each value-taking
    one followed by a value, mostly well-formed: some options are dropped,
    repeated or given a bad value, and some argvs get a stray token."""
    command = rng.choice(list(COMMAND_OPTIONS) * 5 + ["bogus", "Repair", "--help"])
    pairs = []
    for flags, values, required in COMMAND_OPTIONS.get(command, []):
        if rng.random() < (0.05 if required else 0.5):
            continue
        for _ in range(2 if rng.random() < 0.05 else 1):
            flag = rng.choice(flags)
            if values is None:
                pairs.append([flag])
            else:
                pairs.append([flag, values[0] if rng.random() < 0.6 else rng.choice(values)])
    rng.shuffle(pairs)
    argv = [command] + [token for pair in pairs for token in pair]
    if rng.random() < 0.2:
        argv.insert(rng.randint(1, len(argv)), rng.choice(STRAYS))
    if rng.random() < 0.05:
        del argv[rng.randrange(len(argv))]
    return argv


def argparse_namespace(argv):
    """argparse's namespace for ``argv``, or None where argparse reports a
    usage error or prints help."""
    args = _argparse(argv, io.StringIO(), io.StringIO())
    return None if isinstance(args, int) else args


class TestFastParse:
    """``_fast_parse`` returns None or exactly argparse's namespace: the
    same attributes, in the same order, with values of the same types."""

    @pytest.mark.parametrize(
        "argv, fast",
        [
            (["repair", "-q", "q.dl", "-d", "d.facts", "-t", "(a)", "--json", "--budget", "3"], True),
            (["repair", "--json", "--oracle", "-t", "()", "--data", "d", "--query", "q"], True),
            (["eval", "-q", "q.dl", "-d", "d.facts", "-t", "(v4,v3)"], True),
            (["classify", "-q", "q.dl"], True),
            (["sat", "--query", "q.dl"], True),
            (["bound", "-q", "q", "-d", "d", "-t", "(a)", "-k", "0"], True),
            (["size", "-q", "q", "-d", "d", "-t", "(a)", "--budget", "5"], True),
            (["gen-setcover", "--seed", "1", "-n", "5", "-m", "4", "--density", "0.4"], True),
            (["gen-setcover", "--seed", "1", "-n", "5", "-m", "4", "--density", "nan"], True),
            (["reduce-setcover", "-i", "c.txt", "-o", "out"], True),
            (["extract-cover", "--input", "c.txt", "--repair", "r.json"], True),
            (["repair", "-q", "q", "-d", "d", "-t", ""], True),
            (["repair", "-q", "q", "-d", "d", "-t", "(a)", "--budget", "1", "--budget", "2"], True),
            (["gen-setcover", "--seed", "-1", "-n", "5", "-m", "4", "--density", "0.4"], False),
            (["repair", "-q", "q", "-d", "d", "-t", "-x"], False),
            (["repair", "-q", "q", "-d", "d", "-t"], False),
            (["repair", "-q", "q", "-d", "d", "-t", "(a)", "-k", "3"], False),
            (["bound", "-q", "q", "-d", "d", "-t", "(a)", "-k", "1.5"], False),
            (["classify", "-q", "q.dl", "extra"], False),
            (["classify", "-h"], False),
            (["--help"], False),
            (["Repair", "-q", "q"], False),
        ],
    )
    def test_hand_written(self, argv, fast):
        namespace = _fast_parse(argv)
        assert (namespace is not None) == fast
        if fast:
            assert repr(namespace) == repr(argparse_namespace(argv))

    def test_random_argvs(self):
        rng = random.Random(25)
        taken = 0
        for _ in range(2500):
            argv = random_argv(rng)
            namespace = _fast_parse(argv)
            if namespace is not None:
                taken += 1
                assert repr(namespace) == repr(argparse_namespace(argv)), argv
        assert 750 < taken < 2000

    def test_every_pool_request_takes_the_fast_path(self):
        """Every request of the seed-1 pools of the benchmark workloads, and
        its target, is read without argparse and without the token parser."""
        for workload in pool_digest.WORKLOADS:
            _, requests = pool_digest.run.workloads.make_requests(workload, 1, pool_digest.run.POOL[workload])
            for i, request in enumerate(requests):
                argv = [a.format(query="query.dl", data=f"{i}.facts") for a in request.argv]
                namespace = _fast_parse(argv)
                assert namespace is not None, argv
                assert repr(namespace) == repr(argparse_namespace(argv))
                assert parser._TUPLE_RE.fullmatch(namespace.tuple_text), argv


def _repair_json_under_hash_seeds(query, data, target, *extra):
    """The stdout of ``repair --json`` in fresh processes under hash seeds 0 and 1."""
    outputs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "dlrepair", "repair", "-q", str(query), "-d", str(data), "-t", target, "--json", *extra],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(Path(dlrepair.__file__).parent.parent)},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


class TestOutputIsProcessIndependent:
    """Ties between repairs and the witness do not depend on string hashing."""

    def test_setcover_repair_and_witness(self, tmp_path):
        # A size-2 repair whose witness comes from the search order.
        coverfile = tmp_path / "sc.txt"
        coverfile.write_text(invoke(["gen-setcover", "--seed", 3, "-n", 6, "-m", 5, "--density", 0.5])[1])
        outdir = tmp_path / "red"
        assert invoke(["reduce-setcover", "-i", coverfile, "-o", outdir])[0] == 0
        target = (outdir / "tuple.txt").read_text().strip()
        first, second = _repair_json_under_hash_seeds(outdir / "query.dl", outdir / "data.facts", target)
        assert json.loads(first)["size"] == 2
        assert first == second

    def test_spdl_tie(self, tmp_path):
        # Size 3 either way: insert a(n2), or insert e(n1,n2); the least wins.
        query, data = tmp_path / "q.dl", tmp_path / "d.facts"
        query.write_text(SPDL_SRC)
        data.write_text("a(n0). e(n0,n1). e(n2,n3). b(n3).\n")
        first, second = _repair_json_under_hash_seeds(query, data, "(n3)", "--budget", "3")
        payload = json.loads(first)
        assert (payload["size"], payload["insert"], payload["delete"]) == (3, ["a(n2)", "c(n3)"], ["b(n3)"])
        assert first == second


def test_query_rewritten_in_place_is_read_again(tmp_path):
    """The query memo is keyed by the text, not by the path."""
    query, data = tmp_path / "q.dl", tmp_path / "d.facts"
    data.write_text("r(a).\n")
    argv = ["eval", "-q", query, "-d", data, "-t", "(a)"]
    query.write_text("ans(X) :- r(X).\n")
    assert invoke(argv) == (0, "true\n", "")
    query.write_text("ans(X) :- r(X), X != a.\n")
    assert invoke(argv) == (1, "false\n", "")


class TestBenchmarkPools:
    """Exit codes and stdout of the first 40 seed-1 requests of each
    benchmark workload, against the digest recorded in
    ``pool_digest_seed1.txt`` (``pool_digest.py --count 40``)."""

    def test_first_requests_match_the_recorded_digest(self):
        expected = (Path(__file__).parent / "pool_digest_seed1.txt").read_text().splitlines()
        assert list(pool_digest.digest_lines(pool_digest.WORKLOADS, 1, 40)) == expected

    def test_a_second_pass_in_the_same_process_matches_too(self):
        """The memoised query steps keep no state between requests."""
        expected = (Path(__file__).parent / "pool_digest_seed1.txt").read_text().splitlines()
        for _ in range(2):
            assert list(pool_digest.digest_lines(pool_digest.WORKLOADS, 1, 40)) == expected


def test_a_repeated_request_compares_no_rules(tmp_path, monkeypatch):
    """After one warm-up request, repeated requests get the same parsed and
    specialised rules, so every cache keyed by a rule hits by identity and
    ``Rule.__eq__`` is never called.  The caches start empty, as in a new
    process: a cache keeps the first of equal keys, and other tests parse
    texts whose rules equal the query's."""
    for cache in (parse_program, _specialize, ungrounded_vars, _plan, _classify, _prepare, _readers):
        cache.cache_clear()
    _, argvs = pool_digest.run.write_inputs("spdl", 1, 1, tmp_path)
    assert argvs[0][0] == "repair"
    calls = []
    compare = Rule.__eq__

    def counting(self, other):
        calls.append(other)
        return compare(self, other)

    monkeypatch.setattr(Rule, "__eq__", counting)
    assert Rule("ans", (), ()) == Rule("ans", (), ()) and len(calls) == 1
    first = invoke(argvs[0])
    calls.clear()
    for _ in range(4):
        assert invoke(argvs[0]) == first
    assert calls == []


def test_a_repeated_request_prepares_nothing_again(tmp_path):
    """After one warm-up request, an identical request misses none of the
    caches that prepare a query: the label search's set-up, the readers of
    the self-check's fixpoint, and the rule plans."""
    _, argvs = pool_digest.run.write_inputs("spdl", 1, 1, tmp_path)
    caches = (_prepare, _readers, _plan)
    first = invoke(argvs[0])
    misses = [cache.cache_info().misses for cache in caches]
    assert invoke(argvs[0]) == first
    assert [cache.cache_info().misses for cache in caches] == misses


def test_module_entry_point(triangle):
    query, data = triangle
    proc = subprocess.run(
        [sys.executable, "-m", "dlrepair", "size", "-q", str(query), "-d", str(data), "-t", "(1,2,3)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(dlrepair.__file__).parent.parent)},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"

"""Smoke tests of the benchmark itself: deterministic inputs, references that
agree with the solver and reject wrong answers, and a tracer that leaves the
program as it found it.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import DOMAIN_BUILDERS, WRAPPED_FUNCTIONS, COUNTED_FUNCTIONS, Tracer  # noqa: E402

import dlrepair.cli  # noqa: E402
import dlrepair.repair  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    count = len(workloads.CLASSES[workload])
    q1, first = workloads.make_requests(workload, 7, count)
    q2, again = workloads.make_requests(workload, 7, count)
    _, other = workloads.make_requests(workload, 8, count)
    assert q1 == q2
    assert [(r.argv, r.data) for r in first] == [(r.argv, r.data) for r in again]
    assert [(r.argv, r.data) for r in first] != [(r.argv, r.data) for r in other]
    # Request i does not depend on how many requests were asked for.
    _, prefix = workloads.make_requests(workload, 7, 2)
    assert [(r.argv, r.data) for r in prefix] == [(r.argv, r.data) for r in first[:2]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_agrees_with_solver(workload, tmp_path):
    # Request 0 is of each workload's cheapest class (0.005-0.2 s).
    requests, argvs = run.write_inputs(workload, 3, 1, tmp_path)
    times, failures = run.closed_loop(dlrepair.cli, requests, argvs, count=1)
    assert failures == [] and len(times) == 1


def test_references_reject_wrong_answers():
    request = workloads.make_requests("posdl", 3, 1)[1][0]
    wrong_size = {"status": "found", "size": 2, "insert": [], "delete": [], "witness_assignment": None}
    assert request.check(0, json.dumps(wrong_size)) is not None
    assert request.check(2, json.dumps({**wrong_size, "status": "budget_exhausted", "size": None})) is not None
    # Right size, but the inserted fact does not put the target in the answer.
    target = request.argv[request.argv.index("-t") + 1].strip("()")
    payload = {**wrong_size, "size": 1, "insert": [f"zz({target})"]}
    assert request.check(0, json.dumps(payload)) is not None

    tc = workloads.make_requests("tceval", 3, 2)[1]
    assert tc[0].check(0, "true\n") is None and tc[0].check(1, "false\n") is not None
    assert tc[1].check(1, "false\n") is None and tc[1].check(0, "true\n") is not None

    assert workloads.min_cover_size([{"a", "b"}, {"b", "c"}, {"c"}, {"a"}]) == 2
    facts = {("f", ("b1", "a1")), ("f", ("b2", "a2")), ("p", ("b1",))}
    assert not workloads.cover_holds(facts, ("a1", "a2"))
    assert workloads.cover_holds(facts | {("p", ("b2",))}, ("a1", "a2"))


def _bound_objects():
    objs = [(m, a, sys.modules[m].__dict__[a]) for m, a, *_ in WRAPPED_FUNCTIONS + COUNTED_FUNCTIONS]
    domain = dlrepair.repair.SearchDomain
    return objs + [("SearchDomain", a, domain.__dict__[a]) for a in DOMAIN_BUILDERS]


def test_traced_run_restores_wrapped_names(tmp_path):
    for module_name, *_ in WRAPPED_FUNCTIONS + COUNTED_FUNCTIONS:
        __import__(module_name)
    before = _bound_objects()
    requests, argvs = run.write_inputs("spdl", 3, 2, tmp_path)
    with Tracer() as tracer:
        assert all(now is not orig for (_, _, orig), (_, _, now) in zip(before, _bound_objects()))
        _, failures = run.closed_loop(dlrepair.cli, requests, argvs, count=2, tracer=tracer)
    assert failures == []
    assert tracer.counts["repair.eval_member"] > 0 and tracer.domain_sizes
    assert all(orig is now for (_, _, orig), (_, _, now) in zip(before, _bound_objects()))
    # Every span closed, and self times add up to the requests' wall time.
    assert all(end >= start > 0 for _, start, end, _, _ in tracer.spans)
    requests_s = tracer.total_times()["cli.run"]
    assert sum(tracer.layer_self_times().values()) == pytest.approx(requests_s)

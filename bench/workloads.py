"""Seeded request generators and the independent references that check them.

Every request is built from ``random.Random(f"{workload}:{seed}:{index}")``,
so request ``i`` of a seed is the same whatever the batch size, and the
traced run's batch is a prefix of the untraced one.  Requests cycle through
fixed classes (instance size, repair size needed, budget), so that only the
details inside a class depend on the seed and a run's cost mix does not.

The references share no code with the solver: no ``dlrepair`` function is
called to compute an expected answer or to check a response.  ``dlrepair``
is used only to build the set-cover inputs (``setcover.generate`` and
``reduce_f`` are the paper's reduction) and render them as files.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from typing import Callable

POSITIVE_QUERY = """ans(X) :- r(X), b(X), c(X).
r(X) :- a(X).
r(X) :- r(Y), e(Y,X).
"""
SEMIPOSITIVE_QUERY = POSITIVE_QUERY.replace(" b(X)", " !b(X)")
CLOSURE_QUERY = """t(X,Y) :- e(X,Y).
t(X,Y) :- t(X,Z), e(Z,Y), !blocked(Z).
"""

# Exit codes and statuses of the CLI contract (README "Exit status").
EXIT_OK, EXIT_FALSE, EXIT_BUDGET = 0, 1, 2

# Generator parameters.  Each class list is cycled by request index, and
# the shares are set so that the median and the 90th percentile of request
# time fall inside one class's range, not on a boundary between a cheap and
# an expensive class, where they would jump between seeds.
# setcover: (elements n, sets m, minimum cover size), density 0.4 as in the
# ROADMAP.  Instances are redrawn until the cover size matches.  Size-3
# covers of 5 elements take 0.05-0.5 s each in one unimodal range; larger
# (n, m) take up to 12 s, too few requests per run for a steady tail.
SETCOVER_CLASSES = ((5, 4, 3), (5, 5, 3))
SETCOVER_DENSITY = 0.4
# posdl and spdl: (chain nodes, unmet conditions[, --budget]).  The target
# misses one edit per letter: r (not reachable from an a node), c (no c(t)),
# b (b(t) absent, or present under !b).  Which conditions fail decides where
# the first repair sits in the solver's enumeration order, so it is fixed
# per class.  Shares of 20/60/20 % cheap/middle/expensive requests put the
# median mid-way through the middle classes and the 90th percentile between
# the two expensive ones, which cost about the same.
POSDL_CLASSES = (
    (3, "c"), (6, "b"),
    (4, "rc"), (4, "rb"), (5, "rc"), (5, "rb"), (6, "rc"), (6, "rb"),
    (5, "rcb"), (5, "rcb"),
)  # fmt: skip
# Size > budget gives budget_exhausted.  A size-3 repair at budget 3 takes
# 4-7 s and is left out.
SPDL_CLASSES = (
    (2, "b", 3), (4, "c", 3),
    (2, "rc", 3), (3, "rc", 3), (4, "rc", 3), (2, "rb", 3), (3, "rb", 3), (4, "rb", 3),
    (2, "cb", 3), (3, "rcb", 2),
)  # fmt: skip
# tceval: (graph nodes, target in the answer).
TCEVAL_CLASSES = tuple(itertools.product((70, 90, 110), (True, False)))
TCEVAL_OUT_DEGREE = 2.5
TCEVAL_BLOCKED = 0.2
FACT_DENSITY = 0.4


@dataclass
class Request:
    """One CLI call: ``argv`` with ``{query}``/``{data}`` placeholders for the
    files set-up writes, and ``check(exit_code, stdout)`` returning None when
    the response is right, else the reason it is wrong."""

    argv: list[str]
    data: str
    check: Callable[[int, str], str | None]


# ---------------------------------------------------------------------------
# Shared parsing of the program's JSON output


_FACT_RE = re.compile(r"^([a-z][A-Za-z0-9_]*)\(([^()]*)\)$")


def parse_fact_text(text: str) -> tuple[str, tuple[str, ...]]:
    m = _FACT_RE.match(text)
    if m is None:
        raise ValueError(f"unexpected fact {text!r}")
    return m.group(1), tuple(a.strip() for a in m.group(2).split(","))


def facts_of(data: str) -> set[tuple[str, tuple[str, ...]]]:
    return {parse_fact_text(line.rstrip(".")) for line in data.split("\n") if line}


def _apply_repair(code: int, out: str, facts: set, size: int) -> tuple[set | None, str | None]:
    """Validate a ``repair --json`` response that must be a found repair of
    the given size; return the repaired fact set."""
    if code != EXIT_OK:
        return None, f"exit code {code}, expected {EXIT_OK}"
    payload = json.loads(out)
    if payload["status"] != "found" or payload["size"] != size:
        return None, f"status {payload['status']} size {payload['size']}, expected found size {size}"
    ins = {parse_fact_text(s) for s in payload["insert"]}
    dels = {parse_fact_text(s) for s in payload["delete"]}
    if len(ins) + len(dels) != size or ins & facts or not dels <= facts:
        return None, "update is not a valid edit of the instance with the reported size"
    return (facts | ins) - dels, None


def _check_exhausted(code: int, out: str) -> str | None:
    payload = json.loads(out)
    if code != EXIT_BUDGET or payload["status"] != "budget_exhausted" or payload["size"] is not None:
        return f"exit code {code} status {payload['status']}, expected budget_exhausted"
    return None


# ---------------------------------------------------------------------------
# setcover: brute-force minimum cover


def min_cover_size(sets: list[set[str]]) -> int:
    universe = set().union(*sets)
    for k in range(len(sets) + 1):
        for combo in itertools.combinations(sets, k):
            if set().union(*combo) >= universe:
                return k
    raise AssertionError("the sets cover their own union")


def cover_holds(facts: set, elements: tuple[str, ...]) -> bool:
    """``ans(a1..an)`` holds iff every element has an ``f`` edge from some
    set constant that is in ``p``."""
    chosen = {args[0] for rel, args in facts if rel == "p"}
    reached = {args[1] for rel, args in facts if rel == "f" and args[0] in chosen}
    return set(elements) <= reached


def setcover_request(seed: int, index: int) -> tuple[Request, str]:
    from dlrepair import parser, setcover

    rng = random.Random(f"setcover:{seed}:{index}")
    n, m, size = SETCOVER_CLASSES[index % len(SETCOVER_CLASSES)]
    while True:
        cover = setcover.generate(rng.randrange(2**31), n, m, SETCOVER_DENSITY)
        if min_cover_size([set(elements) for _, elements in cover.sets]) == size:
            break
    program, instance, target = setcover.reduce_f(cover)
    data = parser.render_instance(instance)
    facts = facts_of(data)

    def check(code: int, out: str) -> str | None:
        repaired, why = _apply_repair(code, out, facts, size)
        if why is None and not cover_holds(repaired, target):
            why = "some element has no f edge to a set in p after the update"
        return why

    argv = ["repair", "-q", "{query}", "-d", "{data}", "-t", parser.render_tuple(target), "--json"]
    return Request(argv, data, check), parser.render_program(program)


# ---------------------------------------------------------------------------
# posdl / spdl: chains, with a closed-form repair size


def _reachable(facts: set) -> set[str]:
    """Nodes reachable along ``e`` from a node in ``a``."""
    reached = {args[0] for rel, args in facts if rel == "a"}
    edges: dict[str, list[str]] = {}
    for rel, args in facts:
        if rel == "e":
            edges.setdefault(args[0], []).append(args[1])
    frontier = list(reached)
    while frontier:
        for nxt in edges.get(frontier.pop(), ()):
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    return reached


def _unmet(facts: set, target: str, negated_b: bool) -> list[bool]:
    b_ok = (("b", (target,)) in facts) != negated_b
    return [target not in _reachable(facts), ("c", (target,)) not in facts, not b_ok]


def chain_member(facts: set, target: str, negated_b: bool) -> bool:
    """``ans(t)``: t reachable from an ``a`` node, ``c(t)``, and ``b(t)``
    (its absence when ``b`` is negated)."""
    return not any(_unmet(facts, target, negated_b))


def chain_size(facts: set, target: str, negated_b: bool) -> int:
    """Minimum repair size: one edit per unmet condition of ``ans(t)``.
    Each condition needs a fact of its own, and ``a(t)``, ``c(t)`` and
    ``b(t)`` meet them, so the count is exact."""
    return sum(_unmet(facts, target, negated_b))


def _chain_data(rng: random.Random, k: int, unmet: str, negated_b: bool) -> tuple[str, str]:
    """A chain of k nodes whose target fails exactly the ``unmet``
    conditions: ``r`` reachability, ``c`` and ``b``."""
    nodes = [f"n{i}" for i in range(k)]
    pos = rng.randrange(k)
    target = nodes[pos]
    facts = {("e", (nodes[i], nodes[i + 1])) for i in range(k - 1)}
    for i, node in enumerate(nodes):
        if rng.random() < FACT_DENSITY and not ("r" in unmet and i <= pos):
            facts.add(("a", (node,)))
        for rel in "bc":
            if node != target and rng.random() < FACT_DENSITY:
                facts.add((rel, (node,)))
    if "r" not in unmet:
        facts.add(("a", (nodes[rng.randrange(pos + 1)],)))
    if "c" not in unmet:
        facts.add(("c", (target,)))
    if ("b" in unmet) == negated_b:
        facts.add(("b", (target,)))
    data = "".join(f"{rel}({','.join(args)}).\n" for rel, args in sorted(facts))
    return data, target


def chain_request(workload: str, seed: int, index: int) -> Request:
    rng = random.Random(f"{workload}:{seed}:{index}")
    negated_b = workload == "spdl"
    if negated_b:
        k, unmet, budget = SPDL_CLASSES[index % len(SPDL_CLASSES)]
    else:
        (k, unmet), budget = POSDL_CLASSES[index % len(POSDL_CLASSES)], None
    data, target = _chain_data(rng, k, unmet, negated_b)
    facts = facts_of(data)
    size = chain_size(facts, target, negated_b)
    assert size == len(unmet), (size, unmet)
    found = budget is None or size <= budget

    def check(code: int, out: str) -> str | None:
        if not found:
            return _check_exhausted(code, out)
        repaired, why = _apply_repair(code, out, facts, size)
        if why is None and not chain_member(repaired, target, negated_b):
            why = f"ans({target}) does not hold after the update"
        return why

    argv = ["repair", "-q", "{query}", "-d", "{data}", "-t", f"({target})", "--json"]
    if budget is not None:
        argv += ["--budget", str(budget)]
    return Request(argv, data, check)


# ---------------------------------------------------------------------------
# tceval: breadth-first search


def closure_member(edges: dict[str, list[str]], blocked: set[str], x: str, y: str) -> bool:
    """``t(x,y)``: a path from x to y whose intermediate nodes are unblocked."""
    reached = set(edges.get(x, ()))
    frontier = [z for z in reached if z not in blocked]
    while frontier:
        for nxt in edges.get(frontier.pop(), ()):
            if nxt not in reached:
                reached.add(nxt)
                if nxt not in blocked:
                    frontier.append(nxt)
    return y in reached


def tceval_request(seed: int, index: int) -> Request:
    rng = random.Random(f"tceval:{seed}:{index}")
    n, want = TCEVAL_CLASSES[index % len(TCEVAL_CLASSES)]
    nodes = [f"v{i}" for i in range(n)]
    pairs: set[tuple[str, str]] = set()
    while len(pairs) < int(TCEVAL_OUT_DEGREE * n):
        x, y = rng.sample(nodes, 2)
        pairs.add((x, y))
    blocked = {v for v in nodes if rng.random() < TCEVAL_BLOCKED}
    edges: dict[str, list[str]] = {}
    for x, y in sorted(pairs):
        edges.setdefault(x, []).append(y)
    while True:
        source, sink = rng.choice(nodes), rng.choice(nodes)
        if closure_member(edges, blocked, source, sink) == want:
            break
    data = "".join(f"e({x},{y}).\n" for x, y in sorted(pairs))
    data += "".join(f"blocked({v}).\n" for v in sorted(blocked))
    expected = (EXIT_OK, "true\n") if want else (EXIT_FALSE, "false\n")

    def check(code: int, out: str) -> str | None:
        if (code, out) != expected:
            return f"got exit {code} output {out!r}, expected {expected}"
        return None

    return Request(["eval", "-q", "{query}", "-d", "{data}", "-t", f"({source},{sink})"], data, check)


# ---------------------------------------------------------------------------


WORKLOADS = ("setcover", "posdl", "spdl", "tceval")
CLASSES = {"setcover": SETCOVER_CLASSES, "posdl": POSDL_CLASSES, "spdl": SPDL_CLASSES, "tceval": TCEVAL_CLASSES}
_QUERIES = {"posdl": POSITIVE_QUERY, "spdl": SEMIPOSITIVE_QUERY, "tceval": CLOSURE_QUERY}


def make_requests(workload: str, seed: int, count: int) -> tuple[str, list[Request]]:
    """The query text and requests ``0..count-1`` of a workload."""
    if workload == "setcover":
        made = [setcover_request(seed, i) for i in range(count)]
        # reduce_f gives every instance of one (n) the same query; the
        # classes share n, so one query file serves the batch.
        queries = {q for _, q in made}
        assert len(queries) == 1, "setcover classes must share the universe size"
        return queries.pop(), [r for r, _ in made]
    if workload == "tceval":
        return CLOSURE_QUERY, [tceval_request(seed, i) for i in range(count)]
    if workload in ("posdl", "spdl"):
        return _QUERIES[workload], [chain_request(workload, seed, i) for i in range(count)]
    raise ValueError(f"unknown workload {workload!r}")

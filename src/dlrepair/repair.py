"""Minimum-cardinality repair solvers.

Four search strategies share one contract: find the smallest set of fact
insertions and deletions placing the target tuple in the query answer.

* non-recursive queries with negated atoms: exhaustive assignment search
  with branch-and-bound pruning, plus closed-form fast paths for rules
  without projection (no bound variables) and rules with a single atom;
* positive datalog: insertion-only search over the visible constants plus
  one fresh constant, complete by monotonicity;
* recursive programs with negation: budget-capped search over the visible
  constants plus ``max-arity * budget`` fresh ones (no finite bound on
  minimal repair size is computed, so exhausting the budget is a distinct
  outcome from proving no repair exists);
* a brute-force oracle that enumerates every update over a given domain in
  order of size, used by tests and the CLI's ``--oracle`` mode.

All solvers break ties deterministically: among minimum-size repairs, the
one whose (sorted insertions, sorted deletions) pair is lexicographically
least under the canonical fact order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from .classify import classify
from .engine import Saturation, _check_instance, _head_binding, eval_member
from .model import (
    ArityMismatch,
    Fact,
    Instance,
    Program,
    Rule,
    Term,
    Update,
    _Closure,
    active_domain,
    canonical_key,
    facts_over,
    fresh_constants,
    update_size,
    var,
)
from .sat import NotPositiveDatalog, NotUcq

FOUND = "found"
NO_REPAIR = "no_repair"
BUDGET_EXHAUSTED = "budget_exhausted"

DEFAULT_SP_BUDGET = 8


class NotProjectionFree(ValueError):
    """The rule has bound (non-head) variables."""


class NotJoinFree(ValueError):
    """The rule body does not consist of exactly one relational literal."""


class NotSemipositive(ValueError):
    """The program negates an intensional symbol."""


class PartialAssignment(ValueError):
    """The assignment does not cover every variable of the rule."""


@dataclass(frozen=True)
class RepairResult:
    status: str
    repair: Update | None = None
    size: int | None = None
    witness_assignment: Mapping[str, str] | None = None

    @classmethod
    def found(cls, repair: Update, witness: Mapping[str, str] | None = None) -> "RepairResult":
        return cls(FOUND, repair, update_size(repair), witness)

    @classmethod
    def no_repair(cls) -> "RepairResult":
        return cls(NO_REPAIR)

    @classmethod
    def budget_exhausted(cls) -> "RepairResult":
        return cls(BUDGET_EXHAUSTED)


@dataclass(frozen=True)
class SearchDomain:
    """The constants repairs may mention: target ∪ visible constants ∪ a
    fragment-dependent number of fresh constants."""

    constants: tuple[str, ...]

    @classmethod
    def _build(cls, base: set[str], fresh_count: int) -> "SearchDomain":
        return cls(tuple(sorted(base)) + fresh_constants(fresh_count, base))

    @classmethod
    def for_ucq(cls, program: Program, instance: Instance, target: tuple[str, ...]) -> "SearchDomain":
        """One fresh constant per variable of the widest rule."""
        m = max((len(r.all_vars) for r in program.rules), default=0)
        return cls._build(set(target) | set(active_domain(program, instance)), m)

    @classmethod
    def for_positive_datalog(
        cls, program: Program, instance: Instance, target: tuple[str, ...]
    ) -> "SearchDomain":
        return cls._build(set(target) | set(active_domain(program, instance)), 1)

    @classmethod
    def for_spdatalog(
        cls, program: Program, instance: Instance, target: tuple[str, ...], budget: int
    ) -> "SearchDomain":
        """max-arity * budget fresh constants."""
        m = max(program.schema.values(), default=0)
        return cls._build(set(target) | set(active_domain(program, instance)), m * budget)


# ---------------------------------------------------------------------------
# Induced repair of a total assignment


def repair_for_assignment(rule: Rule, assignment: Mapping[str, str], instance: Instance) -> Update | None:
    """The unique minimal update making the rule body hold under a total
    assignment, or None when the assignment is infeasible (a comparison
    fails, or some fact is demanded both present and absent)."""
    missing = rule.all_vars - set(assignment)
    if missing:
        raise PartialAssignment(f"assignment misses variable {sorted(missing)[0]!r}")

    def value(term: Term) -> str:
        return assignment[term.name] if term.is_variable else term.name

    for cmp_ in rule.comparisons():
        if not cmp_.holds(value(cmp_.left), value(cmp_.right)):
            return None
    required: set[Fact] = set()
    forbidden: set[Fact] = set()
    for lit in rule.relational_literals():
        fact = Fact(lit.relation, tuple(value(t) for t in lit.args))
        (required if lit.positive else forbidden).add(fact)
    if required & forbidden:
        return None
    return Update(
        frozenset(f for f in required if f not in instance.facts),
        frozenset(f for f in forbidden if f in instance.facts),
    )


# ---------------------------------------------------------------------------
# General per-rule search (branch and bound)


def _rule_search(
    rule: Rule,
    instance: Instance,
    domain: Sequence[str],
    target: tuple[str, ...],
) -> tuple[Update, dict[str, str]] | None:
    """Minimum repair for one rule by exhaustive enumeration of assignments
    over the domain, with the head pinned to the target.

    Equality atoms collapse variables into classes before enumeration, and
    partial assignments are pruned as soon as their demanded edits exceed
    the best complete assignment seen.
    """
    binding = _head_binding(rule, target)
    if binding is None:
        return None
    cl = _Closure(rule, binding)
    if cl.conflict:
        return None

    reps: dict[tuple[str, str], int] = {}

    def rep_of(root: tuple[str, str]) -> int:
        if root not in reps:
            reps[root] = len(reps)
        return reps[root]

    # Slots: ("k", constant) or ("r", rep index).
    literals: list[tuple[bool, str, tuple]] = []
    for lit in rule.relational_literals():
        slots = []
        for t in lit.args:
            root = cl.term_root(t)
            v = cl.forced.get(root)
            slots.append(("k", v) if v is not None else ("r", rep_of(root)))
        literals.append((lit.positive, lit.relation, tuple(slots)))

    neq_by_rep: dict[int, list[tuple]] = {}
    for cmp_ in rule.comparisons():
        if cmp_.op == "eq":
            continue
        ra, rb = cl.term_root(cmp_.left), cl.term_root(cmp_.right)
        if ra == rb:
            return None
        va, vb = cl.forced.get(ra), cl.forced.get(rb)
        if va is not None and vb is not None:
            if va == vb:
                return None
            continue
        a = ("k", va) if va is not None else ("r", rep_of(ra))
        b = ("k", vb) if vb is not None else ("r", rep_of(rb))
        at = max(i for kind, i in (a, b) if kind == "r")
        neq_by_rep.setdefault(at, []).append((a, b))

    nrep = len(reps)
    rep_slots: dict[int, list[int]] = {i: [] for i in range(nrep)}
    lit_unbound = []
    for li, (_, _, slots) in enumerate(literals):
        count = 0
        for kind, v in slots:
            if kind == "r":
                rep_slots[v].append(li)
                count += 1
        lit_unbound.append(count)

    rep_value: list[str | None] = [None] * nrep
    required: dict[Fact, int] = {}
    forbidden: dict[Fact, int] = {}
    cost = [0]
    in_instance = instance.facts

    def ground(li: int, trail: list) -> bool:
        positive, relname, slots = literals[li]
        args = tuple(v if kind == "k" else rep_value[v] for kind, v in slots)
        fact = Fact(relname, args)
        if positive:
            if forbidden.get(fact):
                return False
            required[fact] = required.get(fact, 0) + 1
            trail.append(("req", fact))
            if required[fact] == 1 and fact not in in_instance:
                cost[0] += 1
                trail.append(("cost",))
        else:
            if required.get(fact):
                return False
            forbidden[fact] = forbidden.get(fact, 0) + 1
            trail.append(("forb", fact))
            if forbidden[fact] == 1 and fact in in_instance:
                cost[0] += 1
                trail.append(("cost",))
        return True

    def undo(trail: list) -> None:
        for entry in reversed(trail):
            tag = entry[0]
            if tag == "req":
                fact = entry[1]
                required[fact] -= 1
                if not required[fact]:
                    del required[fact]
            elif tag == "forb":
                fact = entry[1]
                forbidden[fact] -= 1
                if not forbidden[fact]:
                    del forbidden[fact]
            elif tag == "cost":
                cost[0] -= 1
            else:  # "lit"
                lit_unbound[entry[1]] += 1

    def side_value(side: tuple) -> str:
        kind, v = side
        return v if kind == "k" else rep_value[v]

    def bind(rep: int, v: str, trail: list) -> bool:
        rep_value[rep] = v
        for a, b in neq_by_rep.get(rep, ()):
            if side_value(a) == side_value(b):
                return False
        for li in rep_slots[rep]:
            lit_unbound[li] -= 1
            trail.append(("lit", li))
            if lit_unbound[li] == 0 and not ground(li, trail):
                return False
        return True

    # Ground everything that has no free class at all.
    base_trail: list = []
    for li in range(len(literals)):
        if lit_unbound[li] == 0 and not ground(li, base_trail):
            return None

    best: list = [None]  # (size, key, update, assignment)

    def snapshot() -> tuple[Update, dict[str, str]]:
        update = Update(
            frozenset(f for f in required if f not in in_instance),
            frozenset(f for f in forbidden if f in in_instance),
        )
        assignment: dict[str, str] = {}
        for name in rule.all_vars:
            root = cl.term_root(var(name))
            v = cl.forced.get(root)
            assignment[name] = v if v is not None else rep_value[reps[root]]
        return update, assignment

    def visit_leaf() -> None:
        update, assignment = snapshot()
        size = update_size(update)
        key = canonical_key(update)
        if best[0] is None or (size, key) < (best[0][0], best[0][1]):
            best[0] = (size, key, update, assignment)

    def dfs(i: int) -> None:
        if i == nrep:
            visit_leaf()
            return
        order = []
        for vi, v in enumerate(domain):
            trail: list = []
            before = cost[0]
            ok = bind(i, v, trail)
            delta = cost[0] - before
            undo(trail)
            rep_value[i] = None
            if ok:
                order.append((delta, vi))
        order.sort()
        for _, vi in order:
            trail = []
            bind(i, domain[vi], trail)
            if best[0] is None or cost[0] <= best[0][0]:
                dfs(i + 1)
            undo(trail)
            rep_value[i] = None

    dfs(0)
    if best[0] is None:
        return None
    return best[0][2], best[0][3]


# ---------------------------------------------------------------------------
# Closed-form fast paths


def _projection_free(rule: Rule, instance: Instance, target: tuple[str, ...]):
    binding = _head_binding(rule, target)
    if binding is None:
        return None
    update = repair_for_assignment(rule, binding, instance)
    if update is None:
        return None
    return update, binding


def _join_free(rule: Rule, instance: Instance, target: tuple[str, ...]):
    binding = _head_binding(rule, target)
    if binding is None:
        return None
    cl = _Closure(rule, binding)
    if cl.conflict:
        return None
    beta = rule.relational_literals()[0]
    # Free classes, ordered by first occurrence in the single atom and then
    # the comparisons, each get their own fresh constant.
    terms = itertools.chain(beta.args, *((c.left, c.right) for c in rule.comparisons()))
    fresh_values = cl.instantiate(terms, instance.constants())

    def check_neq(values: Mapping[tuple[str, str], str]) -> bool:
        for cmp_ in rule.comparisons():
            lv = values[cl.term_root(cmp_.left)]
            rv = values[cl.term_root(cmp_.right)]
            if not cmp_.holds(lv, rv):
                return False
        return True

    def assignment(values: Mapping[tuple[str, str], str]) -> dict[str, str]:
        return {name: values[cl.term_root(var(name))] for name in rule.all_vars}

    if not check_neq(fresh_values):
        # Only constant-vs-constant comparisons can fail under all-fresh
        # instantiation, so no assignment at all satisfies the rule.
        return None

    if beta.positive:
        for fact in sorted(f for f in instance.facts if f.relation == beta.relation):
            if len(fact.args) != len(beta.args):
                continue
            values = dict(cl.forced)
            ok = True
            for t, v in zip(beta.args, fact.args):
                root = cl.term_root(t)
                bound = values.get(root)
                if bound is None:
                    values[root] = v
                elif bound != v:
                    ok = False
                    break
            if not ok:
                continue
            for root, v in fresh_values.items():
                values.setdefault(root, v)
            if check_neq(values):
                return Update.of(), assignment(values)
        fact = Fact(beta.relation, tuple(fresh_values[cl.term_root(t)] for t in beta.args))
        return Update.of([fact]), assignment(fresh_values)

    fact = Fact(beta.relation, tuple(fresh_values[cl.term_root(t)] for t in beta.args))
    if fact not in instance.facts:
        return Update.of(), assignment(fresh_values)
    return Update.of((), [fact]), assignment(fresh_values)


def ma_min_projection_free(rule: Rule, instance: Instance, target: tuple[str, ...]) -> RepairResult:
    """Rules with no bound variables: the head binding is the only candidate
    assignment, so the induced repair formula is exact."""
    if rule.bound_vars:
        raise NotProjectionFree(f"rule for {rule.head} has bound variables")
    if len(target) != len(rule.head_args):
        raise ArityMismatch(f"target has length {len(target)}, head arity is {len(rule.head_args)}")
    res = _projection_free(rule, instance, target)
    if res is None:
        return RepairResult.no_repair()
    return RepairResult.found(*res)


def ma_min_join_free(rule: Rule, instance: Instance, target: tuple[str, ...]) -> RepairResult:
    """Rules whose body is a single relational literal (plus comparisons):
    the repair is empty or a single insertion/deletion."""
    if len(rule.relational_literals()) != 1:
        raise NotJoinFree(f"rule for {rule.head} has more than one relational literal")
    if len(target) != len(rule.head_args):
        raise ArityMismatch(f"target has length {len(target)}, head arity is {len(rule.head_args)}")
    res = _join_free(rule, instance, target)
    if res is None:
        return RepairResult.no_repair()
    return RepairResult.found(*res)


# ---------------------------------------------------------------------------
# Union solver


def ma_min_ucqneg(
    program: Program,
    instance: Instance,
    target: tuple[str, ...],
    dispatch: bool = True,
) -> RepairResult:
    """Exact minimum repair for a non-recursive query: per rule, the best
    assignment over the search domain; across rules, the smallest result.

    ``dispatch`` routes projection-free and join-free rules to their
    closed-form solvers; disabling it forces the general search everywhere.
    """
    flags = classify(program)
    if not flags.is_ucq:
        raise NotUcq("the exhaustive-assignment solver needs a non-recursive query")
    program.check_target(target)
    _check_instance(program, instance.facts)
    domain = SearchDomain.for_ucq(program, instance, target)
    best = None
    for rule in program.rules:
        if dispatch and not rule.bound_vars:
            res = _projection_free(rule, instance, target)
        elif dispatch and len(rule.relational_literals()) == 1:
            res = _join_free(rule, instance, target)
        else:
            res = _rule_search(rule, instance, domain.constants, target)
        if res is None:
            continue
        update, witness = res
        cand = (update_size(update), canonical_key(update), update, witness)
        if best is None or cand[:2] < best[:2]:
            best = cand
    if best is None:
        return RepairResult.no_repair()
    return RepairResult.found(best[2], best[3])


# ---------------------------------------------------------------------------
# Size-ordered update enumeration (shared by the datalog solvers and oracle)


def _enumerate_updates(
    ins_pool: Sequence[Fact], del_pool: Sequence[Fact], size: int
) -> Iterator[tuple[tuple[Fact, ...], tuple[Fact, ...]]]:
    """All updates of exactly this size, in canonical order: sorted
    insertion tuples first, deletions breaking ties."""

    def rec(start: int, acc: list[Fact]) -> Iterator[tuple[tuple[Fact, ...], tuple[Fact, ...]]]:
        remaining = size - len(acc)
        if remaining <= len(del_pool):
            ins = tuple(acc)
            for dels in itertools.combinations(del_pool, remaining):
                yield ins, dels
        if len(acc) < size:
            for i in range(start, len(ins_pool)):
                acc.append(ins_pool[i])
                yield from rec(i + 1, acc)
                acc.pop()

    yield from rec(0, [])


def _search_by_size(
    instance: Instance,
    ins_pool: Sequence[Fact],
    del_pool: Sequence[Fact],
    budget: int,
    is_repair: Callable[[Instance], bool],
) -> Update | None:
    for size in range(budget + 1):
        for ins, dels in _enumerate_updates(ins_pool, del_pool, size):
            candidate = Instance((instance.facts | set(ins)) - set(dels))
            if is_repair(candidate):
                return Update.of(ins, dels)
    return None


# ---------------------------------------------------------------------------
# Datalog solvers


def ma_min_datalog_positive(program: Program, instance: Instance, target: tuple[str, ...]) -> RepairResult:
    """Positive programs are monotone, so insertions alone suffice and
    insertions over the visible constants plus one fresh constant are
    complete: any satisfying instance collapses onto them."""
    if not classify(program).is_positive_datalog:
        raise NotPositiveDatalog("program contains negation or inequality atoms")
    program.check_target(target)
    base = Saturation(program, instance)
    domain = SearchDomain.for_positive_datalog(program, instance, target)
    pool = [
        f
        for f in facts_over(base.positive, program.arities, domain.constants)
        if f not in instance.facts
    ]
    everything = Instance(instance.facts | set(pool))
    if not eval_member(program, everything, target, base):
        return RepairResult.no_repair()
    update = _search_by_size(
        instance, pool, (), len(pool), lambda i: eval_member(program, i, target, base)
    )
    assert update is not None  # the full insertion succeeds, so the search cannot miss
    return RepairResult.found(update)


def ma_min_spdatalog(
    program: Program, instance: Instance, target: tuple[str, ...], budget: int
) -> RepairResult:
    """Budget-capped search for recursive programs with negated extensional
    atoms.  Minimal repairs never touch relations the program does not read,
    never insert into relations it only negates, and never delete from
    relations it only asserts, so the pools are restricted accordingly."""
    flags = classify(program)
    if not flags.is_semipositive_datalog:
        raise NotSemipositive("negation on derived symbols is not supported")
    program.check_target(target)
    if budget < 0:
        raise ValueError("budget must be non-negative")
    base = Saturation(program, instance)
    domain = SearchDomain.for_spdatalog(program, instance, target, budget)
    ins_pool = [
        f
        for f in facts_over(base.positive, program.arities, domain.constants)
        if f not in instance.facts
    ]
    del_pool = [f for f in sorted(instance.facts) if f.relation in base.negated]
    update = _search_by_size(
        instance, ins_pool, del_pool, budget, lambda i: eval_member(program, i, target, base)
    )
    if update is None:
        return RepairResult.budget_exhausted()
    return RepairResult.found(update)


def oracle_ma_min(
    program: Program,
    instance: Instance,
    target: tuple[str, ...],
    domain: SearchDomain,
    budget: int,
) -> RepairResult:
    """Reference brute force: every update over the domain, in order of size
    then canonical order, first success wins.  No pruning of any kind; this
    is the ground truth the real solvers are tested against."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    ins_pool = [
        f
        for f in facts_over(program.schema, program.arities, domain.constants)
        if f not in instance.facts
    ]
    del_pool = sorted(instance.facts)
    update = _search_by_size(
        instance, ins_pool, del_pool, budget, lambda i: eval_member(program, i, target)
    )
    if update is None:
        return RepairResult.budget_exhausted()
    return RepairResult.found(update)


# ---------------------------------------------------------------------------
# Fragment dispatch


def oracle_defaults(
    program: Program, instance: Instance, target: tuple[str, ...], budget: int | None
) -> tuple[SearchDomain, int]:
    """Default domain and budget for ``oracle_ma_min``: the fragment's search
    domain, and for non-recursive queries a budget of the most literals in
    one rule, which bounds every minimal repair; else ``DEFAULT_SP_BUDGET``."""
    flags = classify(program)
    if flags.is_ucq:
        if budget is None:
            budget = max((r.positive_count() + r.negative_count() for r in program.rules), default=0)
        return SearchDomain.for_ucq(program, instance, target), budget
    if budget is None:
        budget = DEFAULT_SP_BUDGET
    if flags.is_positive_datalog:
        return SearchDomain.for_positive_datalog(program, instance, target), budget
    return SearchDomain.for_spdatalog(program, instance, target, budget), budget


def ma_min(
    program: Program, instance: Instance, target: tuple[str, ...], budget: int | None = None
) -> RepairResult:
    """Route to the cheapest complete solver for the program's fragment."""
    flags = classify(program)
    if flags.is_ucq:
        return ma_min_ucqneg(program, instance, target)
    if flags.is_positive_datalog:
        return ma_min_datalog_positive(program, instance, target)
    return ma_min_spdatalog(
        program, instance, target, DEFAULT_SP_BUDGET if budget is None else budget
    )


def ma_size(
    program: Program, instance: Instance, target: tuple[str, ...], budget: int | None = None
) -> int | None:
    """Minimum repair size, or None when no repair was found."""
    result = ma_min(program, instance, target, budget)
    return result.size


def ma_bound(program: Program, instance: Instance, target: tuple[str, ...], k: int) -> bool:
    """Does a repair of size at most k exist?  The exact solvers ignore the
    budget; the budget-capped one searches exactly up to k."""
    result = ma_min(program, instance, target, budget=k)
    return result.status == FOUND and result.size <= k

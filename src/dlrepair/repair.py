"""Minimum-cardinality repair solvers.

Four search strategies share one contract: find the smallest set of fact
insertions and deletions placing the target tuple in the query answer.

* non-recursive queries with negated atoms: per rule, a branch and bound
  over assignments that tries only one labelling of the interchangeable
  fresh constants, plus a closed-form fast path for rules with a single
  atom; a rule without projection needs no search, since the head binding
  forces every class and the branch and bound visits a single leaf;
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
least under the canonical fact order.  The per-rule search keeps this by
relabelling the fresh constants of each complete assignment onto the
least fresh names, and the single-atom path builds the least matching
fact position by position.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from .classify import classify
from .engine import Saturation, _check_instance, _getter, _head_binding, eval_member
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
from .sat import NotPositiveDatalog, NotUcq, ma_dec

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
    fresh: frozenset[str],
) -> tuple[Update, dict[str, str]] | None:
    """Minimum repair for one rule by branch and bound over assignments of
    the domain to the rule's free equality classes, with the head pinned to
    the target.

    Classes are bound in order of first occurrence, and a literal is
    grounded when its last class is bound.  Each node probes its children
    without binding them, tries them in order of (added cost, domain
    index), and stops at the first whose cost exceeds the best complete
    assignment's.  The ``fresh`` constants occur in neither the rule, the
    instance nor the target, so they are interchangeable: a class tries only
    the fresh constants already in use and the next unused one, and each
    leaf is relabelled onto the least fresh names before it is compared, so
    the canonically least repair is still the one returned.
    """
    binding = _head_binding(rule, target)
    if binding is None:
        return None
    cl = _Closure(rule, binding)
    if cl.conflict:
        return None

    literals = rule.relational_literals()
    neqs = [c for c in rule.comparisons() if c.op != "eq"]
    # values[i] holds class i's value while it is bound; constants follow.
    index: dict[tuple[str, str], int] = {}
    for t in itertools.chain(*(lit.args for lit in literals), *((c.left, c.right) for c in neqs)):
        root = cl.term_root(t)
        if root not in cl.forced:
            index.setdefault(root, len(index))
    nrep = len(index)
    values: list[str | None] = [None] * nrep

    def slot(t: Term) -> int:
        root = cl.term_root(t)
        if root in index:
            return index[root]
        values.append(cl.forced[root])
        return len(values) - 1

    # Level nrep grounds what no class reaches; level i what class i completes.
    neq_at: list[list[tuple[int, int]]] = [[] for _ in range(nrep + 1)]
    for cmp_ in neqs:
        ra, rb = cl.term_root(cmp_.left), cl.term_root(cmp_.right)
        if ra == rb or cl.forced.get(ra, ra) == cl.forced.get(rb, rb):
            return None  # one class, or two classes forced to one constant
        a, b = slot(cmp_.left), slot(cmp_.right)
        if min(a, b) < nrep:
            neq_at[max(s for s in (a, b) if s < nrep)].append((a, b))
    grounds_at: list[list[tuple[bool, str, Callable]]] = [[] for _ in range(nrep + 1)]
    for lit in literals:
        slots = tuple(slot(t) for t in lit.args)
        at = max((s for s in slots if s < nrep), default=nrep)
        grounds_at[at].append((lit.positive, lit.relation, _getter(slots)))
    present = {(f.relation, f.args) for f in instance.facts}
    required: set[tuple] = set()
    forbidden: set[tuple] = set()

    def probe(level: int):
        """(added cost, new required keys, new forbidden keys) of grounding
        a level under the current values, or None when infeasible."""
        for a, b in neq_at[level]:
            if values[a] == values[b]:
                return None
        pos, neg = set(), set()
        for positive, relation, get in grounds_at[level]:
            (pos if positive else neg).add((relation, get(values)))
        if not (pos.isdisjoint(neg) and pos.isdisjoint(forbidden) and neg.isdisjoint(required)):
            return None
        pos -= required
        neg -= forbidden
        return len(pos - present) + len(neg & present), pos, neg

    base = probe(nrep)
    if base is None:
        return None
    required |= base[1]
    forbidden |= base[2]

    fixed = [vi for vi, v in enumerate(domain) if v not in fresh]
    fresh_at = [vi for vi, v in enumerate(domain) if v in fresh]
    names = sorted(fresh)
    best = None  # (size, key, relabelling, values)

    def leaf(cost: int) -> None:
        nonlocal best
        ins = [k for k in required if k not in present]
        dels = tuple(sorted(k for k in forbidden if k in present))
        moved = sorted({a for _, args in ins for a in args if a in fresh})
        key = rho = None
        # Try every map of the fresh constants of the insertions onto the
        # least fresh names; deletions hold no fresh constant.
        for perm in itertools.permutations(names[: len(moved)]):
            r = dict(zip(moved, perm))
            k = (tuple(sorted((rel, tuple(r.get(a, a) for a in args)) for rel, args in ins)), dels)
            if key is None or k < key:
                key, rho = k, r
        if best is None or (cost, key) < best[:2]:
            best = (cost, key, rho, values[:nrep])

    def dfs(i: int, cost: int, used: int) -> None:
        if i == nrep:
            leaf(cost)
            return
        children = []
        for vi in itertools.chain(fixed, fresh_at[: used + 1]):
            values[i] = domain[vi]
            probed = probe(i)
            if probed is not None:
                children.append((probed[0], vi, probed[1], probed[2]))
        children.sort()
        nxt = fresh_at[used] if used < len(fresh_at) else None
        for delta, vi, pos, neg in children:
            if best is not None and cost + delta > best[0]:
                break
            values[i] = domain[vi]
            required.update(pos)
            forbidden.update(neg)
            dfs(i + 1, cost + delta, used + (vi == nxt))
            required.difference_update(pos)
            forbidden.difference_update(neg)

    dfs(0, base[0], 0)
    if best is None:
        return None
    _, (ins, dels), rho, bound = best
    # Fresh constants of the witness outside the insertions take the least
    # names the relabelling left free.
    spare = iter(n for n in names if n not in rho.values())
    for v in bound:
        if v in fresh and v not in rho:
            rho[v] = next(spare)
    assignment: dict[str, str] = {}
    for name in rule.all_vars:
        root = cl.term_root(var(name))
        v = cl.forced[root] if root in cl.forced else bound[index[root]]
        assignment[name] = rho.get(v, v)
    return Update.of((Fact(*k) for k in ins), (Fact(*k) for k in dels)), assignment


# ---------------------------------------------------------------------------
# Single-rule solvers


def _join_free(rule: Rule, instance: Instance, target: tuple[str, ...], domain: Sequence[str]):
    binding = _head_binding(rule, target)
    if binding is None:
        return None
    cl = _Closure(rule, binding)
    if cl.conflict:
        return None
    beta = rule.relational_literals()[0]
    comparisons = rule.comparisons()
    # Free classes in order of first occurrence in the single atom, then in
    # the comparisons.
    terms = list(itertools.chain(beta.args, *((c.left, c.right) for c in comparisons)))
    roots = list(dict.fromkeys(map(cl.term_root, terms)))

    def holds(values: Mapping[tuple[str, str], str]) -> bool:
        for cmp_ in comparisons:
            lv = values.get(cl.term_root(cmp_.left))
            rv = values.get(cl.term_root(cmp_.right))
            if lv is not None and rv is not None and not cmp_.holds(lv, rv):
                return False
        return True

    def least(values: dict[tuple[str, str], str]) -> dict[tuple[str, str], str] | None:
        """Give each unvalued class, in order, the least domain value that
        keeps the comparisons true; unused fresh constants always can."""
        for root in roots:
            if root not in values:
                values[root] = min((v for v in domain if holds({**values, root: v})), default=None)
                if values[root] is None:
                    return None
        return values if holds(values) else None

    def assignment(values: Mapping[tuple[str, str], str]) -> dict[str, str]:
        return {name: values[cl.term_root(var(name))] for name in rule.all_vars}

    def fact(values: Mapping[tuple[str, str], str]) -> Fact:
        return Fact(beta.relation, tuple(values[cl.term_root(t)] for t in beta.args))

    if not beta.positive:
        # A fresh value per free class keeps the negated fact out of the
        # instance whenever any assignment can.
        values = cl.instantiate(terms, instance.constants())
        if not holds(values):
            return None
        if fact(values) not in instance.facts:
            return Update.of(), assignment(values)
        return Update.of((), [fact(values)]), assignment(values)

    matching = (f for f in instance.facts if f.relation == beta.relation and len(f.args) == len(beta.args))
    for stored in sorted(matching):
        values = dict(cl.forced)
        for t, v in zip(beta.args, stored.args):
            if values.setdefault(cl.term_root(t), v) != v:
                break
        else:
            values = least(values)
            if values is not None:
                return Update.of(), assignment(values)
    # No stored fact matches, so the least matching fact is not stored.
    values = least(dict(cl.forced))
    if values is None:
        return None
    return Update.of([fact(values)]), assignment(values)


def ma_min_projection_free(rule: Rule, instance: Instance, target: tuple[str, ...]) -> RepairResult:
    """Rules with no bound variables: the head binding leaves no class to
    choose, so the search over an empty domain visits one leaf, the
    repair the head binding induces."""
    if rule.bound_vars:
        raise NotProjectionFree(f"rule for {rule.head} has bound variables")
    if len(target) != len(rule.head_args):
        raise ArityMismatch(f"target has length {len(target)}, head arity is {len(rule.head_args)}")
    res = _rule_search(rule, instance, (), target, frozenset())
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
    program = Program((rule,), rule.head, {})
    res = _join_free(rule, instance, target, SearchDomain.for_ucq(program, instance, target).constants)
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

    ``dispatch`` routes rules with a single atom to their closed-form
    solver; disabling it forces the general search everywhere.
    """
    flags = classify(program)
    if not flags.is_ucq:
        raise NotUcq("the exhaustive-assignment solver needs a non-recursive query")
    program.check_target(target)
    _check_instance(program, instance.facts)
    domain = SearchDomain.for_ucq(program, instance, target).constants
    fresh = frozenset(domain) - active_domain(program, instance, target)
    best = None
    for rule in program.rules:
        if dispatch and len(rule.relational_literals()) == 1:
            res = _join_free(rule, instance, target, domain)
        else:
            res = _rule_search(rule, instance, domain, target, fresh)
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
    if not ma_dec(program, instance, target):
        return RepairResult.no_repair()
    base = Saturation(program, instance)
    domain = SearchDomain.for_positive_datalog(program, instance, target)
    pool = [
        f
        for f in facts_over(base.positive, program.arities, domain.constants)
        if f not in instance.facts
    ]
    update = _search_by_size(
        instance, pool, (), len(pool), lambda i: eval_member(program, i, target, base)
    )
    assert update is not None  # a repair exists, so inserting the whole pool is one
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
    domain: SearchDomain | None = None,
    budget: int | None = None,
) -> RepairResult:
    """Reference brute force: every update over the domain, in order of size
    then canonical order, first success wins.  No pruning of any kind; this
    is the ground truth the real solvers are tested against.

    By default the budget is the most literals in one rule for non-recursive
    queries, which bounds every minimal repair, and ``DEFAULT_SP_BUDGET``
    otherwise; the domain is the fragment's search domain.
    """
    if budget is not None and budget < 0:
        raise ValueError("budget must be non-negative")
    flags = classify(program)
    if budget is None and flags.is_ucq:
        budget = max((r.positive_count() + r.negative_count() for r in program.rules), default=0)
    elif budget is None:
        budget = DEFAULT_SP_BUDGET
    if domain is None and flags.is_ucq:
        domain = SearchDomain.for_ucq(program, instance, target)
    elif domain is None and flags.is_positive_datalog:
        domain = SearchDomain.for_positive_datalog(program, instance, target)
    elif domain is None:
        domain = SearchDomain.for_spdatalog(program, instance, target, budget)
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

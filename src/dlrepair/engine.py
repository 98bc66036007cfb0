"""Query evaluation.

Answers come from a bottom-up fixpoint, semi-naive by default; a naive
fixpoint is kept for the tests to compare.  Each rule runs a join plan
compiled once from its equality closure (``_plan``), without recursion.
Membership runs the query specialised to the target (``model.specialize``)
after checking the program and instance once, as written (``_member_test``):
a non-recursive query stops at the first solution of a pinned rule, and a
datalog program computes its goal's fixpoint.
Only the brute-force oracle tests candidate instances here.  The solvers
ground rules themselves, over edit labels (``repair._label_search``), and
the datalog ones call ``eval_member`` once to check the repair they return.
"""

from __future__ import annotations

import functools
import heapq
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .classify import classify
from .model import (
    ArityMismatch,
    Comparison,
    Fact,
    Instance,
    Program,
    RelLiteral,
    Rule,
    Term,
    _Closure,
    specialize,
    ungrounded_vars,
)


class NotDatalog(ValueError):
    """The program negates an intensional symbol, so the fixpoint semantics
    do not apply."""


@dataclass(frozen=True)
class AnswerSet:
    relation: str
    tuples: frozenset[tuple[str, ...]]


# ---------------------------------------------------------------------------
# Fact indexing


def _getter(slots: tuple[int, ...]) -> Callable[[Sequence], tuple]:
    """The tuple of a sequence's items at ``slots``."""
    if len(slots) == 1:
        (s,) = slots
        return lambda values: (values[s],)
    return operator.itemgetter(*slots) if slots else lambda values: ()


class _Relation:
    """The rows of one relation in insertion order, whatever tuples a caller
    indexes (facts, derived tuples, ``repair._label_search``'s label rows),
    with a hash index per tuple of columns that a caller looks up by: built
    on the first lookup, kept current by ``add``."""

    __slots__ = ("tuples", "indexes")

    def __init__(self, tuples: Iterable[tuple] = ()):
        self.tuples: dict[tuple, None] = dict.fromkeys(tuples)
        self.indexes: dict[tuple[int, ...], tuple[Callable, dict]] = {}

    def add(self, t: tuple) -> None:
        if t not in self.tuples:
            self.tuples[t] = None
            for key, index in self.indexes.values():
                index.setdefault(key(t), []).append(t)

    def lookup(self, columns: tuple[int, ...], values: tuple) -> Sequence[tuple]:
        """The rows holding ``values`` at ``columns``, in insertion order."""
        if columns not in self.indexes:
            key, index = _getter(columns), {}
            for t in self.tuples:
                index.setdefault(key(t), []).append(t)
            self.indexes[columns] = (key, index)
        return self.indexes[columns][1].get(values, ())


_EMPTY_RELATION = _Relation()


def _index_instance(facts: Iterable[Fact]) -> dict[str, _Relation]:
    out: dict[str, _Relation] = {}
    for f in facts:
        out.setdefault(f.relation, _Relation()).add(f.args)
    return out


def _check_instance(program: Program, facts: Iterable[Fact]) -> None:
    arities = program.arities
    idb = program.idb
    for f in facts:
        if f.relation in idb:
            raise ValueError(f"instance contains fact for derived relation {f.relation}")
        want = arities.get(f.relation)
        if want is not None and want != len(f.args):
            raise ArityMismatch(f"fact {f.relation} has arity {len(f.args)}, program uses {want}")


# ---------------------------------------------------------------------------
# Join plans


# Bounded, since a long-lived process may evaluate many distinct programs.
@functools.lru_cache(maxsize=4096)
def _plan(rule: Rule) -> tuple | None:
    """The join plan of ``rule``, or None when its equality atoms equate two
    distinct constants.  A target reaches a rule only as equality atoms
    (``model.pin``).

    An assignment is a list with a slot per equality class.  The plan is
    ``(constants, size, steps, head)``: the constants the closure forces,
    the number of slots, the steps, and the head tuple's reader.  A step
    ``(pos, relation, columns, key, repeats, binds, negated, unequal)``
    looks up the tuples of body literal ``pos`` holding the ``key`` slots'
    values at ``columns`` and copies columns into slots by ``binds``; it
    drops the assignment if a slot that ``binds`` repeats got two values, a
    ``negated`` literal's tuple is stored, or an ``unequal`` pair agrees.
    Step 0 reads one row instead, the constants; the positive literals
    follow, fewest unbound arguments first and lowest body index on ties.
    Each check sits at the first step where it is ground.
    """
    if ungrounded_vars(rule):
        raise ValueError("unsafe rule: a variable occurs in no positive literal")
    closure = _Closure(rule)
    if closure.conflict:
        return None
    slots = {root: i for i, root in enumerate(dict.fromkeys(map(closure.find, list(closure.parent))))}

    def slots_of(terms: Iterable[Term]) -> tuple[int, ...]:
        return tuple(slots[closure.term_root(t)] for t in terms)

    forced = {slots[root]: value for root, value in closure.forced.items()}
    bound_at = dict.fromkeys(forced, 0)
    positives: list[tuple[int, str, tuple[int, ...]]] = []
    readers: dict[int, list[int]] = {}
    for pos, lit in enumerate(rule.body):
        if isinstance(lit, RelLiteral) and lit.positive:
            args = slots_of(lit.args)
            for s in args:
                readers.setdefault(s, []).append(len(positives))
            positives.append((pos, lit.relation, args))
    unbound = [sum(s not in bound_at for s in args) for _, _, args in positives]
    # (unbound arguments, literal) entries; stale once the count has changed.
    heap = [(n, k) for k, n in enumerate(unbound)]
    heapq.heapify(heap)
    order = [(-1, "", tuple(forced))]
    while heap:
        n, k = heapq.heappop(heap)
        if n == unbound[k]:
            unbound[k] = -1
            order.append(positives[k])
            for s in positives[k][2]:
                if s not in bound_at:
                    bound_at[s] = len(order) - 1
                    for other in readers[s]:
                        if unbound[other] > 0:
                            unbound[other] -= 1
                            heapq.heappush(heap, (unbound[other], other))

    negated: list[list] = [[] for _ in order]
    unequal: list[list] = [[] for _ in order]
    for lit in rule.body:
        if isinstance(lit, Comparison) and lit.op == "neq":
            pair = slots_of((lit.left, lit.right))
            unequal[max(bound_at[s] for s in pair)].append(pair)
        elif isinstance(lit, RelLiteral) and not lit.positive:
            where = slots_of(lit.args)
            negated[max((bound_at[s] for s in where), default=0)].append((lit.relation, _getter(where)))
    steps = []
    for i, (pos, relation, args) in enumerate(order):
        columns = tuple(j for j, s in enumerate(args) if bound_at[s] < i)
        binds = tuple((j, s) for j, s in enumerate(args) if bound_at[s] == i)
        repeats = len({s for _, s in binds}) < len(binds)
        key = _getter(tuple(args[j] for j in columns))
        steps.append((pos, relation, columns, key, repeats, binds, tuple(negated[i]), tuple(unequal[i])))
    return tuple(forced.values()), len(slots), tuple(steps), _getter(slots_of(rule.head_args))


def rule_solutions(
    rule: Rule, relations: Mapping[str, _Relation], delta: tuple[int, _Relation] | None = None
) -> Iterator[tuple[str, ...]]:
    """The head tuple of each assignment that satisfies the body of
    ``rule``, from the rule's plan (``_plan``).

    ``relations`` maps each symbol, stored or derived, to its tuples; a
    symbol it lacks is empty.  ``delta`` makes the positive literal at the
    given body index read a specific relation view (semi-naive evaluation).
    Raises ValueError on an unsafe rule.
    """
    plan = _plan(rule)
    if plan is None:
        return
    constants, size, steps, head = plan
    vals: list[str | None] = [None] * size
    levels = []
    for pos, relation, columns, key, repeats, binds, negated, unequal in steps:
        if delta is not None and pos == delta[0]:
            rel = delta[1]
        else:
            rel = relations.get(relation, _EMPTY_RELATION)
        negated = tuple((relations.get(name, _EMPTY_RELATION).tuples, get) for name, get in negated)
        levels.append((rel, columns, key, repeats, binds, negated, unequal))
    stack = [iter([constants])]
    while stack:
        _, _, _, repeats, binds, negated, unequal = levels[len(stack) - 1]
        for t in stack[-1]:
            for j, s in binds:
                vals[s] = t[j]
            if repeats and any(vals[s] != t[j] for j, s in binds):
                continue
            if unequal and any(vals[a] == vals[b] for a, b in unequal):
                continue
            if negated and any(get(vals) in tuples for tuples, get in negated):
                continue
            if len(stack) == len(levels):
                yield head(vals)
            else:
                rel, columns, key = levels[len(stack)][:3]
                stack.append(iter(rel.lookup(columns, key(vals))))
                break
        else:
            stack.pop()


# ---------------------------------------------------------------------------
# Datalog fixpoints


def _datalog_guard(program: Program) -> None:
    idb = program.idb
    for r in program.rules:
        for lit in r.relational_literals():
            if not lit.positive and lit.relation in idb:
                raise NotDatalog(f"negated intensional symbol {lit.relation}")


def _saturate(program: Program, facts: Iterable[Fact]) -> dict[str, _Relation]:
    """The relations of ``facts``, with those ``program`` derives (replacing
    any stored ones) grown from empty to their least fixpoint.

    The first round fires every rule in full; later rounds fire only the
    literals that read a symbol with new tuples, on those tuples.  Each
    round reads the derived relations as they stood when it began; its new
    tuples are added once it ends.
    """
    relations = _index_instance(facts)
    relations.update((sym, _Relation()) for sym in program.idb)
    # New tuples only ever belong to derived symbols, so a reader of a
    # stored symbol is never looked up.
    readers: dict[str, list[tuple[Rule, int]]] = {}
    for rule in program.rules:
        for pos, lit in enumerate(rule.body):
            if isinstance(lit, RelLiteral) and lit.positive:
                readers.setdefault(lit.relation, []).append((rule, pos))

    def fire(rule: Rule, new: dict[str, set[tuple[str, ...]]], delta=None) -> None:
        seen = relations[rule.head].tuples
        for head in rule_solutions(rule, relations, delta=delta):
            if head not in seen:
                new.setdefault(rule.head, set()).add(head)

    delta: dict[str, set[tuple[str, ...]]] = {}
    for rule in program.rules:
        fire(rule, delta)

    while delta:
        for sym, tuples in delta.items():
            for t in tuples:
                relations[sym].add(t)
        new: dict[str, set[tuple[str, ...]]] = {}
        for sym, tuples in delta.items():
            view = _Relation(tuples)
            for rule, pos in readers.get(sym, ()):
                fire(rule, new, delta=(pos, view))
        delta = new
    return relations


def eval_datalog(program: Program, instance: Instance) -> dict[str, AnswerSet]:
    """Least fixpoint by semi-naive iteration from empty derived relations.

    Negative literals and comparisons are tested against the (fixed)
    extensional instance and constant (in)equality.
    """
    _datalog_guard(program)
    _check_instance(program, instance.facts)
    relations = _saturate(program, instance.facts)
    return {sym: AnswerSet(sym, frozenset(relations[sym].tuples)) for sym in program.idb}


def eval_datalog_naive(program: Program, instance: Instance) -> dict[str, AnswerSet]:
    """Least fixpoint by naive re-evaluation of every rule each round."""
    _datalog_guard(program)
    _check_instance(program, instance.facts)
    relations = _index_instance(instance.facts)
    idb_syms = program.idb
    known: dict[str, set[tuple[str, ...]]] = {sym: set() for sym in idb_syms}
    while True:
        relations.update((sym, _Relation(known[sym])) for sym in idb_syms)
        grew = False
        for rule in program.rules:
            for head in rule_solutions(rule, relations):
                if head not in known[rule.head]:
                    known[rule.head].add(head)
                    grew = True
        if not grew:
            break
    return {sym: AnswerSet(sym, frozenset(tuples)) for sym, tuples in known.items()}


# ---------------------------------------------------------------------------
# Public evaluation entry points


def _member_test(
    program: Program, instance: Instance, target: tuple[str, ...]
) -> Callable[[Iterable[Fact]], bool]:
    """Whether the target is in the answer, as a test of fact sets that only
    add schema facts to ``instance`` or delete some of its facts: the program
    and ``instance`` are checked here, once, as written.  The test runs the
    query specialised to the target (``specialize``): a non-recursive query
    holds once a pinned rule has a solution, and a datalog program computes
    its goal's fixpoint, after its rules are checked safe as written.
    """
    boolean = specialize(program, target)
    _datalog_guard(program)
    _check_instance(program, instance.facts)
    if classify(program).is_ucq:
        def holds(facts: Iterable[Fact]) -> bool:
            relations = _index_instance(facts)
            return any(any(True for _ in rule_solutions(rule, relations)) for rule in boolean.rules)
        return holds
    if any(map(ungrounded_vars, program.rules)):
        raise ValueError("unsafe rule: a variable occurs in no positive literal")
    return lambda facts: bool(_saturate(boolean, facts)[boolean.answer].tuples)


def eval_member(program: Program, instance: Instance, target: tuple[str, ...]) -> bool:
    """Is the target in the answer?  Checks run once, on the program and instance as written."""
    return _member_test(program, instance, target)(instance.facts)


def eval_answers(program: Program, instance: Instance) -> AnswerSet:
    """The full answer relation."""
    return eval_datalog(program, instance)[program.answer]

"""Query evaluation.

Answers come from a bottom-up fixpoint, semi-naive by default; a naive
fixpoint is kept for the tests to compare.  ``_plan`` is the one rule
compiler: it turns a rule, once, into slots for its equality classes,
lookups and checks, which the engine and the repair search
(``repair._label_search``, over edit labels) both walk over an explicit
stack, so neither recurses with the length of a rule.
Membership runs the query specialised to the target (``model.specialize``)
after checking the program and instance once, as written (``_member_test``),
through one fixpoint that stops at the goal's first tuple, whatever the
fragment.  Only the brute-force oracle tests candidate instances here; the
datalog solvers call ``eval_member`` once to check the repair they return.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .classify import classify
from .model import (
    ArityMismatch,
    Fact,
    Instance,
    Program,
    Rule,
    Term,
    _Closure,
    body_terms,
    check_safe,
    specialize,
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
# Rule plans


# Bounded, since a long-lived process may evaluate many distinct programs.
@functools.lru_cache(maxsize=4096)
def _plan(
    rule: Rule, joined: frozenset[str] | None = None, first: int | None = None, free: tuple[int, ...] = ()
) -> tuple | None:
    """How to ground ``rule``, or None when no assignment can satisfy it:
    its equality atoms equate two distinct constants, a ``!=`` atom
    compares a class with itself, or a positive and a negated relational
    literal have the same relation and the same classes as arguments.
    Distinct classes can always take distinct values, so a plan exists
    exactly when the rule holds on some instance.  A target reaches a rule
    only as equality atoms (``model.pin``).  Both the engine (``joined``
    None) and the label search (``repair._label_search``, ``joined`` the
    derived symbols) ground rules by this plan, and satisfiability
    (``sat.sat_cqneg``, ``joined`` empty) asks whether there is one.  With
    ``joined`` None, ValueError is raised on an unsafe rule.

    An assignment is a list with a slot per equality class, numbered by
    first appearance in the head, then in the body.  The plan is ``(start,
    pre, steps, head, variables, bound)``: that list with the forced
    constants filled in, the checks ground from the start, the steps, the
    head tuple's reader, the slot of each variable, by name, and the step
    that binds each slot (-1: the start).

    The positive literals over ``joined`` (None: all of them) are the
    lookups, numbered in body order.  Their steps come first, fewest
    unbound arguments first and lowest number on ties, with the
    ``first``-th lookup moved to the front.  A lookup step ``(k, relation,
    columns, key, repeats, binds)`` reads the rows of lookup k holding the
    ``key`` slots' values at ``columns`` and copies row positions into
    slots by the ``binds`` pairs (position, slot), ``repeats`` telling
    whether a slot is bound twice.  The slots that no lookup binds follow,
    each a free step, the slot itself, to give each domain value: the
    ``free`` slots first, in that order (the label search chooses it per
    instance), then the others by slot number.

    Each step is ``(step, checks, unequal)``, and ``pre`` is ``(checks,
    unequal)``.  The checks are every other relational literal, as
    ``(positive, relation, reader, args)`` with ``args`` the slot of each
    argument, and ``unequal`` the slot pairs of the ``!=`` atoms, each at
    the first step where it is ground.
    """
    if joined is None:
        check_safe((rule,))
    closure = _Closure(rule)
    if closure.conflict:
        return None
    # The slot of each term and of each class.
    slot: dict[Term, int] = {}
    roots: dict[Term, int] = {}
    for t in itertools.chain(rule.head_args, body_terms(rule.body)):
        if t not in slot:
            slot[t] = roots.setdefault(closure.find(t), len(roots))
    start = tuple(map(closure.forced.get, roots))

    def slots_of(terms: Iterable[Term]) -> tuple[int, ...]:
        return tuple(map(slot.__getitem__, terms))

    literals = [(lit.positive, lit.relation, slots_of(lit.args)) for lit in rule.relational_literals()]
    negated = {(rel, args) for pos, rel, args in literals if not pos}
    if any(pos and (rel, args) in negated for pos, rel, args in literals):
        return None
    lookups = [(rel, args) for pos, rel, args in literals if pos and (joined is None or rel in joined)]
    others = [(pos, rel, args) for pos, rel, args in literals if not pos or joined is not None and rel not in joined]
    bound_at = {s: -1 for s, v in enumerate(start) if v is not None}
    readers: dict[int, list[int]] = {}
    for k, (_, args) in enumerate(lookups):
        for s in args:
            readers.setdefault(s, []).append(k)
    unbound = [sum(s not in bound_at for s in args) for _, args in lookups]
    if first is not None:
        unbound[first] = -1
    # (unbound arguments, lookup) entries, stale once the count has changed; -1 marks the first and those taken.
    heap = [(n, k) for k, n in enumerate(unbound)]
    heapq.heapify(heap)
    order: list = []
    while heap:
        n, k = heapq.heappop(heap)
        if n == unbound[k]:
            unbound[k] = -1
            relation, args = lookups[k]
            columns = tuple(j for j, s in enumerate(args) if s in bound_at)
            binds = tuple((j, s) for j, s in enumerate(args) if s not in bound_at)
            key = _getter(tuple(args[j] for j in columns))
            order.append((k, relation, columns, key, len({s for _, s in binds}) < len(binds), binds))
            for _, s in binds:
                if s not in bound_at:
                    bound_at[s] = len(order) - 1
                    for other in readers[s]:
                        if unbound[other] > 0:
                            unbound[other] -= 1
                            heapq.heappush(heap, (unbound[other], other))
    for s in itertools.chain(free, range(len(roots))):
        if s not in bound_at:
            bound_at[s] = len(order)
            order.append(s)

    # Index -1 holds the checks ground from the start.
    checks: list[list] = [[] for _ in range(len(order) + 1)]
    unequal: list[list] = [[] for _ in range(len(order) + 1)]
    for positive, relation, args in others:
        checks[max((bound_at[s] for s in args), default=-1)].append((positive, relation, _getter(args), args))
    for cmp_ in rule.comparisons():
        if cmp_.op == "neq":
            a, b = slots_of((cmp_.left, cmp_.right))
            if a == b:
                return None
            unequal[max(bound_at[a], bound_at[b])].append((a, b))
    steps = tuple(zip(order, map(tuple, checks), map(tuple, unequal)))
    variables = {t.name: s for t, s in slot.items() if t.is_variable}
    head, bound = _getter(slots_of(rule.head_args)), tuple(map(bound_at.get, range(len(roots))))
    return start, (tuple(checks[-1]), tuple(unequal[-1])), steps, head, variables, bound


def rule_solutions(
    rule: Rule, relations: Mapping[str, _Relation], delta: tuple[int, _Relation] | None = None
) -> Iterator[tuple[str, ...]]:
    """The head tuple of each assignment that satisfies the body of
    ``rule``, from the rule's plan (``_plan``).

    ``relations`` maps each symbol, stored or derived, to its tuples; a
    symbol it lacks is empty.  ``delta`` makes the lookup of the given
    number, counting the positive literals in body order, read a specific
    relation view (semi-naive evaluation).  Raises ValueError on an unsafe
    rule.
    """
    plan = _plan(rule)
    if plan is None:
        return
    # Every positive literal is a lookup, so the checks are negated literals; inequalities
    # ground from the start compare two forced classes, which hold distinct constants.
    start, pre, steps, head = plan[0], plan[1][0], plan[2], plan[3]
    if pre and any(get(start) in relations.get(name, _EMPTY_RELATION).tuples for _, name, get, _ in pre):
        return
    vals = list(start)
    levels = []
    for lookup, negated, unequal in steps:
        k, relation = lookup[0], lookup[1]
        rel = delta[1] if delta is not None and k == delta[0] else relations.get(relation, _EMPTY_RELATION)
        if negated:
            negated = tuple((relations.get(name, _EMPTY_RELATION).tuples, get) for _, name, get, _ in negated)
        levels.append((rel, lookup[2], lookup[3], lookup[4], lookup[5], negated, unequal))
    if not levels:
        yield head(vals)
        return
    stack = [iter(levels[0][0].lookup(levels[0][1], levels[0][2](vals)))]
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


# Bounded, since a long-lived process may evaluate many distinct programs.
@functools.lru_cache(maxsize=1024)
def _readers(rules: tuple[Rule, ...]) -> dict[str, list[tuple[Rule, int]]]:
    """The (rule, lookup number) pairs that read each symbol, counting each
    rule's positive literals in body order.  The value is shared and never
    mutated.  New tuples only ever belong to derived symbols, so a reader
    of a stored symbol is never looked up."""
    readers: dict[str, list[tuple[Rule, int]]] = {}
    for rule in rules:
        for k, lit in enumerate(lit for lit in rule.relational_literals() if lit.positive):
            readers.setdefault(lit.relation, []).append((rule, k))
    return readers


def _saturate(program: Program, facts: Iterable[Fact], goal: bool = False) -> dict[str, _Relation]:
    """The relations of ``facts``, with those ``program`` derives (replacing
    any stored ones) grown from empty to their least fixpoint.

    The first round fires every rule in full; later rounds fire only the
    literals that read a symbol with new tuples, on those tuples.  Each
    round reads the derived relations as they stood when it began; its new
    tuples are added once it ends.  With ``goal`` set, it stops once
    ``program.answer`` holds a tuple, leaving the other relations partial.
    """
    relations = _index_instance(facts)
    relations.update((sym, _Relation()) for sym in program.idb)
    readers = _readers(program.rules)
    answer = program.answer if goal else None

    def fire(rule: Rule, new: dict[str, set[tuple[str, ...]]], delta=None) -> bool:
        """Adds the rule's unseen head tuples to ``new``; True once it has stopped at the goal."""
        seen = relations[rule.head].tuples
        for head in rule_solutions(rule, relations, delta=delta):
            if head not in seen:
                if rule.head == answer:
                    relations[answer].add(head)
                    return True
                new.setdefault(rule.head, set()).add(head)
        return False

    delta: dict[str, set[tuple[str, ...]]] = {}
    if any(fire(rule, delta) for rule in program.rules):
        return relations

    while delta:
        for sym, tuples in delta.items():
            for t in tuples:
                relations[sym].add(t)
        new: dict[str, set[tuple[str, ...]]] = {}
        for sym, tuples in delta.items():
            view = _Relation(tuples)
            if any(fire(rule, new, delta=(k, view)) for rule, k in readers.get(sym, ())):
                return relations
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
    query specialised to the target (``specialize``) until its goal has a
    tuple (``_saturate``), so a non-recursive query stops at the first
    solution of a pinned rule.  A datalog program's rules are checked safe
    as written; a union's pinned rules are checked as they are planned.
    """
    boolean = specialize(program, target)
    _datalog_guard(program)
    _check_instance(program, instance.facts)
    if not classify(program).is_ucq:
        check_safe(program.rules)
    return lambda facts: bool(_saturate(boolean, facts, True)[boolean.answer].tuples)


def eval_member(program: Program, instance: Instance, target: tuple[str, ...]) -> bool:
    """Is the target in the answer?  Checks run once, on the program and instance as written."""
    return _member_test(program, instance, target)(instance.facts)


def eval_answers(program: Program, instance: Instance) -> AnswerSet:
    """The full answer relation."""
    return eval_datalog(program, instance)[program.answer]

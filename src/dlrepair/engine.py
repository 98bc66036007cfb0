"""Query evaluation.

Answers come from a bottom-up fixpoint whose rules fire by assignment
search (a backtracking join over the instance).  The default fixpoint is
semi-naive (delta-driven); a naive fixpoint is kept alongside as the
independent reference the tests compare against.  Membership in a
non-recursive query's answer skips the fixpoint: the search is pinned to
the target and stops at its first solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .classify import classify
from .model import (
    ArityMismatch,
    Comparison,
    Instance,
    Program,
    RelLiteral,
    Rule,
    Term,
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


class _Relation:
    """Tuples of one relation, indexed by first argument for fast matching."""

    __slots__ = ("tuples", "by_first")

    def __init__(self, tuples: Iterable[tuple[str, ...]] = ()):
        self.tuples: set[tuple[str, ...]] = set()
        self.by_first: dict[str, list[tuple[str, ...]]] = {}
        for t in tuples:
            self.add(t)

    def add(self, t: tuple[str, ...]) -> None:
        if t in self.tuples:
            return
        self.tuples.add(t)
        if t:
            self.by_first.setdefault(t[0], []).append(t)

    def match(self, pattern: tuple) -> Iterator[tuple[str, ...]]:
        """Yield tuples agreeing with pattern (None = unconstrained)."""
        if not pattern:
            if () in self.tuples:
                yield ()
            return
        if pattern[0] is not None:
            candidates: Iterable[tuple[str, ...]] = self.by_first.get(pattern[0], ())
        else:
            candidates = self.tuples
        for t in candidates:
            if all(p is None or p == v for p, v in zip(pattern, t)):
                yield t


_EMPTY_RELATION = _Relation()


def _index_instance(instance: Instance) -> dict[str, _Relation]:
    out: dict[str, _Relation] = {}
    for f in instance.facts:
        out.setdefault(f.relation, _Relation()).add(f.args)
    return out


def _check_instance(program: Program, instance: Instance) -> None:
    arities = program.arities
    idb = program.idb
    for f in instance.facts:
        if f.relation in idb:
            raise ValueError(f"instance contains fact for derived relation {f.relation}")
        want = arities.get(f.relation)
        if want is not None and want != len(f.args):
            raise ArityMismatch(f"fact {f.relation} has arity {len(f.args)}, program uses {want}")


# ---------------------------------------------------------------------------
# Assignment search


def _ground(term: Term, g: Mapping[str, str]) -> str | None:
    if term.is_variable:
        return g.get(term.name)
    return term.name


def _solutions(
    positives: list[tuple[RelLiteral, _Relation]],
    negatives: list[RelLiteral],
    comparisons: list[Comparison],
    edb: dict[str, _Relation],
    g: dict[str, str],
) -> Iterator[dict[str, str]]:
    """All extensions of ``g`` satisfying the literals.

    Positive literals match against their paired relation; negative literals
    and comparisons are checked once ground.  Equality atoms bind as soon as
    one side is ground.  A check still unground after the last positive
    literal means the rule is unsafe, and raises ValueError.
    """
    g = dict(g)
    comparisons = list(comparisons)
    negatives = list(negatives)
    # Propagate cheap information before branching.
    changed = True
    while changed:
        changed = False
        remaining_cmp: list[Comparison] = []
        for cmp_ in comparisons:
            lv, rv = _ground(cmp_.left, g), _ground(cmp_.right, g)
            if lv is not None and rv is not None:
                if not cmp_.holds(lv, rv):
                    return
                changed = True
            elif cmp_.op == "eq" and lv is not None:
                g[cmp_.right.name] = lv
                changed = True
            elif cmp_.op == "eq" and rv is not None:
                g[cmp_.left.name] = rv
                changed = True
            else:
                remaining_cmp.append(cmp_)
        comparisons = remaining_cmp
        remaining_neg: list[RelLiteral] = []
        for lit in negatives:
            values = [_ground(t, g) for t in lit.args]
            if all(v is not None for v in values):
                rel = edb.get(lit.relation, _EMPTY_RELATION)
                if tuple(values) in rel.tuples:
                    return
                changed = True
            else:
                remaining_neg.append(lit)
        negatives = remaining_neg

    ready = [i for i, (lit, _) in enumerate(positives) if all(_ground(t, g) is not None for t in lit.args)]
    for i in sorted(ready, reverse=True):
        lit, rel = positives[i]
        if tuple(_ground(t, g) for t in lit.args) not in rel.tuples:
            return
    positives = [p for i, p in enumerate(positives) if i not in set(ready)]

    if not positives:
        if negatives or comparisons:
            raise ValueError("unsafe rule: a variable occurs in no positive literal")
        yield g
        return

    # Branch on the positive literal with the fewest unbound variables.
    def unbound(entry: tuple[RelLiteral, _Relation]) -> int:
        lit, _ = entry
        return sum(1 for t in lit.args if _ground(t, g) is None)

    idx = min(range(len(positives)), key=lambda i: unbound(positives[i]))
    lit, rel = positives[idx]
    rest = positives[:idx] + positives[idx + 1 :]
    pattern = tuple(_ground(t, g) for t in lit.args)
    for fact_args in rel.match(pattern):
        g2 = dict(g)
        ok = True
        for t, v in zip(lit.args, fact_args):
            if t.is_variable:
                bound = g2.get(t.name)
                if bound is None:
                    g2[t.name] = v
                elif bound != v:
                    ok = False
                    break
        if ok:
            yield from _solutions(rest, negatives, comparisons, edb, g2)


def rule_solutions(
    rule: Rule,
    edb: dict[str, _Relation],
    idb: Mapping[str, _Relation] | None = None,
    binding: Mapping[str, str] | None = None,
    delta: tuple[int, _Relation] | None = None,
) -> Iterator[dict[str, str]]:
    """Assignments satisfying the body of ``rule``.

    ``idb`` supplies derived relations for positive intensional literals;
    ``delta`` forces the positive literal at the given body index to match a
    specific relation view (semi-naive evaluation).
    """
    idb = idb or {}
    positives: list[tuple[RelLiteral, _Relation]] = []
    negatives: list[RelLiteral] = []
    comparisons: list[Comparison] = []
    for i, lit in enumerate(rule.body):
        if isinstance(lit, Comparison):
            comparisons.append(lit)
            continue
        if not lit.positive:
            negatives.append(lit)
            continue
        if delta is not None and i == delta[0]:
            rel = delta[1]
        elif lit.relation in idb:
            rel = idb[lit.relation]
        else:
            rel = edb.get(lit.relation, _EMPTY_RELATION)
        positives.append((lit, rel))
    yield from _solutions(positives, negatives, comparisons, edb, dict(binding or {}))


def _head_binding(rule: Rule, target: tuple[str, ...]) -> dict[str, str] | None:
    """Bind the head variables to the target tuple; None if a repeated head
    variable would need two different values."""
    g: dict[str, str] = {}
    for term, value in zip(rule.head_args, target):
        existing = g.get(term.name)
        if existing is not None and existing != value:
            return None
        g[term.name] = value
    return g


# ---------------------------------------------------------------------------
# Datalog fixpoints


def _datalog_guard(program: Program) -> None:
    idb = program.idb
    for r in program.rules:
        for lit in r.relational_literals():
            if not lit.positive and lit.relation in idb:
                raise NotDatalog(f"negated intensional symbol {lit.relation}")


def eval_datalog(program: Program, instance: Instance) -> dict[str, AnswerSet]:
    """Least fixpoint by semi-naive iteration.

    Negative literals and comparisons are tested against the (fixed)
    extensional instance and constant (in)equality.  Each round reads the
    derived relations as they stood when it began; its new tuples are added
    once it ends.
    """
    _datalog_guard(program)
    _check_instance(program, instance)
    edb = _index_instance(instance)
    idb_syms = program.idb
    derived = {sym: _Relation() for sym in idb_syms}

    def fire(rule: Rule, new: dict[str, set[tuple[str, ...]]], delta=None) -> None:
        seen = derived[rule.head].tuples
        for g in rule_solutions(rule, edb, derived, delta=delta):
            head = tuple(g[t.name] for t in rule.head_args)
            if head not in seen:
                new[rule.head].add(head)

    delta: dict[str, set[tuple[str, ...]]] = {sym: set() for sym in idb_syms}
    for rule in program.rules:
        fire(rule, delta)

    while any(delta.values()):
        for sym, tuples in delta.items():
            for t in tuples:
                derived[sym].add(t)
        delta_view = {sym: _Relation(delta[sym]) for sym in idb_syms}
        new: dict[str, set[tuple[str, ...]]] = {sym: set() for sym in idb_syms}
        for rule in program.rules:
            for pos, lit in enumerate(rule.body):
                if isinstance(lit, RelLiteral) and lit.positive and delta.get(lit.relation):
                    fire(rule, new, delta=(pos, delta_view[lit.relation]))
        delta = new

    return {sym: AnswerSet(sym, frozenset(rel.tuples)) for sym, rel in derived.items()}


def eval_datalog_naive(program: Program, instance: Instance) -> dict[str, AnswerSet]:
    """Least fixpoint by naive re-evaluation of every rule each round."""
    _datalog_guard(program)
    _check_instance(program, instance)
    edb = _index_instance(instance)
    idb_syms = program.idb
    known: dict[str, set[tuple[str, ...]]] = {sym: set() for sym in idb_syms}
    while True:
        view = {sym: _Relation(known[sym]) for sym in idb_syms}
        grew = False
        for rule in program.rules:
            for g in rule_solutions(rule, edb, view):
                head = tuple(g[t.name] for t in rule.head_args)
                if head not in known[rule.head]:
                    known[rule.head].add(head)
                    grew = True
        if not grew:
            break
    return {sym: AnswerSet(sym, frozenset(tuples)) for sym, tuples in known.items()}


# ---------------------------------------------------------------------------
# Public evaluation entry points


def eval_member(program: Program, instance: Instance, target: tuple[str, ...]) -> bool:
    """Is the target tuple in the program's answer on this instance?"""
    program.check_target(target)
    flags = classify(program)
    if flags.is_ucq:
        _check_instance(program, instance)
        edb = _index_instance(instance)
        for rule in program.rules:
            binding = _head_binding(rule, target)
            if binding is None:
                continue
            for _ in rule_solutions(rule, edb, binding=binding):
                return True
        return False
    return target in eval_datalog(program, instance)[program.answer].tuples


def eval_answers(program: Program, instance: Instance) -> AnswerSet:
    """The full answer relation."""
    return eval_datalog(program, instance)[program.answer]

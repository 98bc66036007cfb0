"""Query evaluation.

Answers come from a bottom-up fixpoint whose rules fire by assignment
search (a backtracking join over the instance).  The default fixpoint is
semi-naive (delta-driven); a naive fixpoint is kept alongside as the
independent reference the tests compare against.  Membership in a
non-recursive query's answer skips the fixpoint: the search is pinned to
the target and stops at its first solution.

A ``Saturation`` is the fixpoint of one program on one base instance, kept
for checking many instances a few edits away, as the datalog repair
solvers do.  ``eval_member(..., base=saturation)`` resumes semi-naive
evaluation from the base fixpoint when the edits can only grow the answer:
no inserted fact is in a relation some rule negates, and no deleted fact is
in a relation some rule reads positively.  Other edits re-saturate from
empty over the edited index, through the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

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

    def copy(self) -> "_Relation":
        out = _Relation()
        out.tuples = set(self.tuples)
        out.by_first = {k: list(v) for k, v in self.by_first.items()}
        return out

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


def _saturate(
    program: Program,
    edb: dict[str, _Relation],
    derived: dict[str, _Relation],
    first: Iterable[Rule],
    goal: tuple[str, ...] | None = None,
) -> None:
    """Grow ``derived`` to the least fixpoint over ``edb`` by semi-naive
    iteration.

    ``derived`` must already be sound for ``edb`` (every tuple in it is in
    the least fixpoint).  The first round fires the rules in ``first`` in
    full; later rounds fire only on the previous round's new tuples.  Each
    round reads the derived relations as they stood when it began; its new
    tuples are added once it ends.  With a ``goal``, iteration stops once
    the answer relation holds it.
    """
    answer = derived[program.answer].tuples

    def fire(rule: Rule, new: dict[str, set[tuple[str, ...]]], delta=None) -> None:
        seen = derived[rule.head].tuples
        for g in rule_solutions(rule, edb, derived, delta=delta):
            head = tuple(g[t.name] for t in rule.head_args)
            if head not in seen:
                new[rule.head].add(head)

    delta: dict[str, set[tuple[str, ...]]] = {sym: set() for sym in derived}
    for rule in first:
        fire(rule, delta)

    while any(delta.values()):
        for sym, tuples in delta.items():
            for t in tuples:
                derived[sym].add(t)
        if goal is not None and goal in answer:
            return
        delta_view = {sym: _Relation(tuples) for sym, tuples in delta.items()}
        new: dict[str, set[tuple[str, ...]]] = {sym: set() for sym in derived}
        for rule in program.rules:
            for pos, lit in enumerate(rule.body):
                if isinstance(lit, RelLiteral) and lit.positive and delta.get(lit.relation):
                    fire(rule, new, delta=(pos, delta_view[lit.relation]))
        delta = new


class Saturation:
    """A program's least fixpoint on one instance, kept so that
    ``eval_member`` can resume from it on instances a few edits away.

    Holds the extensional index, the derived relations, and the extensional
    relations some rule reads positively (``positive``) or negates
    (``negated``).
    """

    def __init__(self, program: Program, instance: Instance):
        _datalog_guard(program)
        _check_instance(program, instance.facts)
        self.program = program
        self.instance = instance
        self.edb = _index_instance(instance.facts)
        self.derived = {sym: _Relation() for sym in program.idb}
        _saturate(program, self.edb, self.derived, program.rules)
        literals = [lit for r in program.rules for lit in r.relational_literals()]
        self.positive = {lit.relation for lit in literals if lit.positive and lit.relation in program.schema}
        self.negated = {lit.relation for lit in literals if not lit.positive}


def eval_datalog(program: Program, instance: Instance) -> dict[str, AnswerSet]:
    """Least fixpoint by semi-naive iteration from empty derived relations.

    Negative literals and comparisons are tested against the (fixed)
    extensional instance and constant (in)equality.
    """
    derived = Saturation(program, instance).derived
    return {sym: AnswerSet(sym, frozenset(rel.tuples)) for sym, rel in derived.items()}


def eval_datalog_naive(program: Program, instance: Instance) -> dict[str, AnswerSet]:
    """Least fixpoint by naive re-evaluation of every rule each round."""
    _datalog_guard(program)
    _check_instance(program, instance.facts)
    edb = _index_instance(instance.facts)
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


def eval_member(
    program: Program,
    instance: Instance,
    target: tuple[str, ...],
    base: Saturation | None = None,
) -> bool:
    """Is the target tuple in the program's answer on this instance?

    With ``base``, a ``Saturation`` of the same program on a nearby
    instance, evaluation resumes from the base fixpoint F0 when the edits
    (``instance`` minus the base facts inserted, the base facts not in
    ``instance`` deleted) grow the answer: no inserted fact is in a negated
    relation and no deleted fact is in a positively read one.  A
    semi-positive program is monotone in the relations it reads positively
    and antitone in the ones it negates, so under such edits F0 lies inside
    the new least fixpoint, and a target already in F0's answer is in the
    new one.  Any rule instance that uses only unchanged facts derives a
    head already in F0, so firing in full the rules that read a touched
    relation, then semi-naive rounds on the new derived tuples, reaches the
    new fixpoint.  Any other edit re-saturates from empty over the edited
    index.
    """
    program.check_target(target)
    if base is not None:
        if base.program != program:
            raise ValueError("base was saturated for a different program")
        ins = instance.facts - base.instance.facts
        dels = base.instance.facts - instance.facts
        _check_instance(program, ins)
        grows = not any(f.relation in base.negated for f in ins) and not any(
            f.relation in base.positive for f in dels
        )
        if grows and target in base.derived[program.answer].tuples:
            return True
        touched = {f.relation for f in ins} | {f.relation for f in dels}
        edb = dict(base.edb)
        for rel in touched:
            edb[rel] = _Relation(f.args for f in instance.facts if f.relation == rel)
        if grows:
            derived = {sym: rel.copy() for sym, rel in base.derived.items()}
            first = [
                r for r in program.rules if any(lit.relation in touched for lit in r.relational_literals())
            ]
        else:
            derived = {sym: _Relation() for sym in base.derived}
            first = program.rules
        _saturate(program, edb, derived, first, goal=target)
        return target in derived[program.answer].tuples
    flags = classify(program)
    if flags.is_ucq:
        _check_instance(program, instance.facts)
        edb = _index_instance(instance.facts)
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

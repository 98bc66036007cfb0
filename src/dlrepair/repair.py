"""Minimum-cardinality repair solvers.

Every solver finds the smallest set of fact insertions and deletions
placing the target tuple in the query answer.

* one fixpoint that labels each derived atom with the minimal edit sets of
  its proofs, cut off at a cost that rises from 0 until the target has a
  label (``_label_search``).  It runs on the query specialised to the
  target (``specialize``), like every solver here, and serves every
  fragment:
  - non-recursive queries with negated atoms, whose rules read no derived
    symbol, so one round per level labels the target; the most literals in
    one rule bounds the search, and rules with a single atom take a
    closed-form fast path instead; a rule without projection needs no
    search, since its copy pinned to the target assigns every variable;
  - positive datalog, inserting over the visible constants plus one fresh
    constant, complete by monotonicity;
  - recursive programs with negated stored atoms, stopping at the budget,
    over ``max-arity * budget`` fresh constants (no finite bound on
    minimal repair size is computed, so exhausting the budget is a
    distinct outcome from proving no repair exists);
* a brute-force oracle that enumerates every update over a given domain in
  order of size, used by tests and the CLI's ``--oracle`` mode.

All solvers break ties deterministically: among minimum-size repairs, the
one whose (sorted insertions, sorted deletions) pair is lexicographically
least under the canonical fact order.  The label search keeps this by
relabelling the fresh constants of each answer onto the least fresh names,
and the single-atom path builds the least matching fact position by
position.  For non-recursive queries the result also carries a witness, an
assignment of one rule's variables that induces the repair
(``repair_for_assignment``); between witnesses of the same repair, the
order of the search decides.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .classify import classify
from .engine import _check_instance, _getter, _member_test, eval_member
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
    apply_update,
    body_terms,
    canonical_key,
    facts_over,
    fresh_constants,
    pin,
    specialize,
    ungrounded_vars,
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
# Single-rule solvers


def _join_free(rule: Rule, instance: Instance, target: tuple[str, ...], domain: Sequence[str]):
    cl = _Closure(pin(rule, target, rule.head))
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
    """Rules with no bound variables: pinning the head to the target assigns
    every variable, so the repair is the one that assignment induces."""
    if rule.bound_vars:
        raise NotProjectionFree(f"rule for {rule.head} has bound variables")
    if len(target) != len(rule.head_args):
        raise ArityMismatch(f"target has length {len(target)}, head arity is {len(rule.head_args)}")
    cl = _Closure(pin(rule, target, rule.head))
    binding = None if cl.conflict else {t.name: cl.forced[cl.term_root(t)] for t in rule.head_args}
    update = None if binding is None else repair_for_assignment(rule, binding, instance)
    if update is None:
        return RepairResult.no_repair()
    return RepairResult.found(update, binding)


def ma_min_join_free(rule: Rule, instance: Instance, target: tuple[str, ...]) -> RepairResult:
    """Rules whose body is a single relational literal (plus comparisons):
    the repair is empty or a single insertion/deletion."""
    if len(rule.relational_literals()) != 1:
        raise NotJoinFree(f"rule for {rule.head} does not have exactly one relational literal")
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
    """Exact minimum repair for a non-recursive query: one label search over
    its rules, at the most literals in one of them, which bounds every
    minimal repair, so a search that finds none proves there is none.

    ``dispatch`` routes rules with a single atom to their closed-form
    solver and searches only the others; disabling it searches every rule.
    The smallest result wins, ties going to the canonically least.  The
    witness is an assignment of one rule's variables that induces the
    repair (``repair_for_assignment``); between witnesses of the same
    repair, the closed-form ones come first, in rule order, then the order
    of the search decides.
    """
    flags = classify(program)
    if not flags.is_ucq:
        raise NotUcq("this solver needs a non-recursive query")
    program.check_target(target)
    _check_instance(program, instance.facts)
    domain = SearchDomain.for_ucq(program, instance, target)
    results = []
    searched = []
    for rule in program.rules:
        if dispatch and len(rule.relational_literals()) == 1:
            results.append(_join_free(rule, instance, target, domain.constants))
        else:
            searched.append(rule)
    if searched:
        budget = max(r.positive_count() + r.negative_count() for r in searched)
        searched_program = Program(tuple(searched), program.answer, program.schema)
        results.append(_label_search(searched_program, instance, target, domain, budget))
    found = [res for res in results if res is not None]
    if not found:
        return RepairResult.no_repair()
    return RepairResult.found(*min(found, key=lambda res: (update_size(res[0]), canonical_key(res[0]))))


# ---------------------------------------------------------------------------
# Size-ordered update enumeration (the oracle's search)


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


# ---------------------------------------------------------------------------
# Datalog solvers: one fixpoint of minimal edit labels


class _Labels:
    """Labels of derived atoms.  An entry ``(args, label, n)`` holds an
    atom's arguments and one of its labels, their fresh constants renamed
    onto the first ``n`` fresh names of the search.  ``lookup`` finds the
    entries with given values at given columns, where a fresh value matches
    any fresh constant."""

    def __init__(self, fresh: frozenset[str]):
        self.fresh = fresh
        self.by_atom: dict[tuple[str, tuple[str, ...]], list[frozenset]] = {}
        # relation -> columns -> key -> entries; columns () lists them all.
        self.indexes: dict[str, dict[tuple[int, ...], dict]] = {}

    def _key(self, values: Iterable[str]) -> tuple:
        return tuple(None if v in self.fresh else v for v in values)

    def add(self, relation: str, args: tuple[str, ...], label: frozenset, n: int) -> bool:
        """Store the entry unless a label of the same atom is a subset of
        ``label``; say whether it was stored."""
        known = self.by_atom.setdefault((relation, args), [])
        if any(old <= label for old in known):
            return False
        known.append(label)
        entry = (args, label, n)
        for columns, index in self.indexes.setdefault(relation, {(): {}}).items():
            index.setdefault(self._key(args[c] for c in columns), []).append(entry)
        return True

    def lookup(self, relation: str, columns: tuple[int, ...], values: Iterable[str]) -> Sequence[tuple]:
        indexes = self.indexes.get(relation)
        if indexes is None:
            return ()
        if columns not in indexes:
            index: dict = {}
            for entry in indexes[()].get((), ()):
                index.setdefault(self._key(entry[0][c] for c in columns), []).append(entry)
            indexes[columns] = index
        return indexes[columns].get(self._key(values), ())


def _least_relabelling(
    ins: Sequence[tuple], dels: tuple[tuple, ...], names: Sequence[str], fresh: frozenset[str]
) -> tuple[tuple, dict[str, str]]:
    """The canonically least ``(insertions, deletions)`` key of an update
    given as fact tuples, over every map of the fresh constants of its
    insertions onto the least fresh ``names``, and that map.  Deletions hold
    no fresh constant."""
    moved = sorted({a for _, args in ins for a in args if a in fresh})
    key = rho = None
    for perm in itertools.permutations(names[: len(moved)]):
        r = dict(zip(moved, perm))
        k = (tuple(sorted((rel, tuple(r.get(a, a) for a in args)) for rel, args in ins)), dels)
        if key is None or k < key:
            key, rho = k, r
    return key, rho


# Bounded, since a long-lived process may solve for many distinct programs.
@functools.lru_cache(maxsize=4096)
def _label_plan(rule: Rule, idb: frozenset[str], first: int | None):
    """How the label fixpoint grounds ``rule``, or None when no assignment
    can satisfy it.  A target reaches a rule only as equality atoms
    (``model.pin``).

    An assignment is a list with a slot per equality class, forced classes
    filled in.  The plan is ``(start, pre, steps, head, variables)``: that
    list, the checks ground from the start, the steps, the head tuple's
    reader and the (name, slot) pair of each variable, by name.  A
    step is a derived literal ``(relation, slots, columns, binds, repeats)``,
    matched against stored labels by its argument positions ``columns``
    that are already bound and binding the ``binds`` pairs (position, slot),
    ``repeats`` telling whether a slot is bound twice, or a free slot to
    give each domain value.  Derived literals come first, the
    ``first``-th of them (in body order) ahead of the others.  Each step
    carries the checks that are ground once it is done: stored literals
    ``(positive, relation, reader)`` and pairs of slots that must differ.
    """
    cl = _Closure(rule)
    if cl.conflict:
        return None
    roots = list(dict.fromkeys(map(cl.term_root, itertools.chain(rule.head_args, body_terms(rule.body)))))
    slot = {root: i for i, root in enumerate(roots)}
    start = [cl.forced.get(root) for root in roots]

    def slots_of(terms: Iterable[Term]) -> tuple[int, ...]:
        return tuple(slot[cl.term_root(t)] for t in terms)

    derived = [(lit.relation, slots_of(lit.args)) for lit in rule.relational_literals() if lit.relation in idb]
    if first is not None:
        derived.insert(0, derived.pop(first))
    bound_at = {s: -1 for s, v in enumerate(start) if v is not None}
    order: list = []
    for relation, args in derived:
        columns = tuple(j for j, s in enumerate(args) if s in bound_at)
        binds = tuple((j, s) for j, s in enumerate(args) if s not in bound_at)
        bound_at.update((s, len(order)) for _, s in binds)
        order.append((relation, args, columns, binds, len({s for _, s in binds}) < len(binds)))
    for s in range(len(roots)):
        if s not in bound_at:
            bound_at[s] = len(order)
            order.append(s)

    # Index -1 holds the checks ground from the start.
    lits: list[list] = [[] for _ in range(len(order) + 1)]
    neqs: list[list] = [[] for _ in range(len(order) + 1)]
    for lit in rule.relational_literals():
        if lit.relation not in idb:
            args = slots_of(lit.args)
            lits[max((bound_at[s] for s in args), default=-1)].append((lit.positive, lit.relation, _getter(args)))
    for cmp_ in rule.comparisons():
        if cmp_.op == "neq":
            a, b = slots_of((cmp_.left, cmp_.right))
            if a == b:
                return None
            neqs[max(bound_at[a], bound_at[b])].append((a, b))
    ground = {(positive, relation, get(start)) for positive, relation, get in lits[-1]}
    if any((not positive, relation, args) in ground for positive, relation, args in ground):
        return None
    steps = tuple(zip(order, lits, neqs))
    variables = tuple((name, slot[cl.term_root(var(name))]) for name in sorted(rule.all_vars))
    return start, (lits[-1], neqs[-1]), steps, _getter(slots_of(rule.head_args)), variables


def _label_search(
    program: Program, instance: Instance, target: tuple[str, ...], domain: SearchDomain, budget: int | None
) -> tuple[Update, dict[str, str] | None] | None:
    """The canonically least minimum repair that inserts only facts over
    the domain, with a witness, or None when every repair costs more than
    ``budget`` (None: no bound).

    A label of a ground derived atom is what one of its proofs needs of the
    stored facts, as ``(relation, args, positive)`` constraints: the facts
    to insert (positive, not stored) and to delete (negated, stored), and,
    for relations read both ways, the facts to keep present or absent, so
    that a union can see a fact needed both ways.  Its cost is its number
    of edits.  The edits of a least-cost label of the target are a minimum
    repair, and every minimum repair is such a label's edits.

    Level k adds to level k-1 the subset-minimal labels of cost exactly k:
    one round fires every rule, then each round fires only the literals
    whose symbol gained labels, on the new ones.  A rule instance's label
    is the union of its literals' labels and constraints; inconsistent
    unions and unions over k are dropped.  The first level that labels the
    target gives the answer.

    Fresh constants are interchangeable, so labels are stored up to
    renaming them, and a rule instance tries only the fresh constants it
    already uses and the next unused one.  The answer is relabelled onto
    the least fresh names in string order.

    The search runs on the query specialised to the target
    (``specialize``), whose goal's ``()`` atom stands for the target.  When
    no goal rule that can fire reads a derived symbol, the query is a union
    of rules over stored facts, and the witness is an assignment of the
    rule variables that induces the repair (``repair_for_assignment``): the
    first one, in search order, that produced the winning label, relabelled
    like it, its other fresh constants taking the least unused names.  That
    check replaces the engine's, so such rules need not be safe.  Otherwise
    the witness is None, the program's rules must be safe as written or
    ValueError is raised, and the engine checks the repair.
    """
    _check_instance(program, instance.facts)
    boolean = specialize(program, target)
    rules = boolean.rules
    present = {(f.relation, f.args) for f in instance.facts}
    idb = boolean.idb
    # The rules as written: a pinned copy that can never fire keeps no literal.
    stored = [lit for r in program.rules for lit in r.relational_literals() if lit.relation not in idb]
    both = {lit.relation for lit in stored if lit.positive} & {lit.relation for lit in stored if not lit.positive}
    is_fresh = frozenset(domain.constants) - active_domain(program, instance, target)
    fresh = [c for c in domain.constants if c in is_fresh]
    fixed = [c for c in domain.constants if c not in is_fresh]
    store = _Labels(is_fresh)

    # The rules that can fire, of the symbols that such rules for the goal
    # read, directly or not.
    live: set[int] = set()
    needed, todo = set(), [boolean.answer]
    while todo:
        symbol = todo.pop()
        if symbol not in needed:
            needed.add(symbol)
            for i, rule in enumerate(rules):
                if rule.head == symbol and _label_plan(rule, idb, None) is not None:
                    live.add(i)
                    todo.extend(lit.relation for lit in rule.relational_literals() if lit.relation in idb)
    # The (rule, derived literal) pairs that read each symbol.
    readers: dict[str, list[tuple[int, int]]] = {}
    for i in sorted(live):
        derived = [lit.relation for lit in rules[i].relational_literals() if lit.relation in idb]
        for d, relation in enumerate(derived):
            readers.setdefault(relation, []).append((i, d))
    if readers and any(ungrounded_vars(rule) for rule in program.rules):
        raise ValueError("unsafe rule: a variable occurs in no positive literal")
    # The first (rule, assignment) of each label of the goal, for unions.
    witnesses: dict[frozenset, tuple[int, dict[str, str]]] | None = None if readers else {}

    def choices(u: int) -> Iterator[tuple[str, int]]:
        """Values for a new variable, with the count of fresh names in use."""
        for v in itertools.chain(fixed, fresh[:u]):
            yield v, u
        if u < len(fresh):
            yield fresh[u], u + 1

    def fire(i: int, first: int | None, k: int, out: list, delta: _Labels | None = None) -> None:
        """Append to ``out`` the canonical ``(relation, args, label, n)`` of
        each rule instance of cost exactly k, with the ``first``-th derived
        literal reading ``delta``."""
        start, pre, steps, head, variables = _label_plan(rules[i], idb, first)
        relation_out = rules[i].head
        values = list(start)

        def check(lits, neqs, label: frozenset, cost: int):
            """``label`` and its cost with the constraints of the stored
            literals ``lits`` added, or None if that is inconsistent, costs
            over k or breaks one of the inequalities ``neqs``."""
            for a, b in neqs:
                if values[a] == values[b]:
                    return None
            for positive, relation, get in lits:
                args = get(values)
                edit = ((relation, args) in present) != positive
                if (edit or relation in both) and (relation, args, positive) not in label:
                    cost += edit
                    if cost > k or (relation, args, not positive) in label:
                        return None
                    label = label | {(relation, args, positive)}
            return label, cost

        def merge(label: frozenset, cost: int, constraints: Iterable[tuple], rho: Mapping[str, str]):
            """``label`` and its cost with ``constraints`` renamed by ``rho``
            added, or None if that is inconsistent or costs over k."""
            added = []
            for relation, args, positive in constraints:
                args = tuple(rho.get(a, a) for a in args)
                if (relation, args, positive) not in label:
                    if (relation, args, not positive) in label:
                        return None
                    added.append((relation, args, positive))
                    cost += ((relation, args) in present) != positive
                    if cost > k:
                        return None
            return label.union(added), cost

        def join(groups: list, rest: list[str], m: int, rho: dict[str, str], u: int, label: frozenset, cost: int):
            """Extend ``rho`` injectively to the fresh constants ``rest[m:]``
            of a matched label, onto the fresh names in use or new ones.
            ``groups[m]`` holds the label's constraints complete once
            ``rest[:m]`` are mapped; each is merged as soon as it is, so an
            inconsistent or too costly map is cut short.  Yields ``(rho, u,
            label, cost)``."""
            r = merge(label, cost, groups[m], rho)
            if r is None:
                return
            if m == len(rest):
                yield rho, u, *r
                return
            taken = set(rho.values())
            for y in fresh[:u]:
                if y not in taken:
                    yield from join(groups, rest, m + 1, {**rho, rest[m]: y}, u, *r)
            if u < len(fresh):
                yield from join(groups, rest, m + 1, {**rho, rest[m]: fresh[u]}, u + 1, *r)

        def emit(label: frozenset, u: int) -> None:
            args = head(values)
            order = [a for a in args if a in is_fresh]
            if u:
                wild = {c: tuple("" if a in is_fresh else a for a in c[1]) for c in label}
                for c in sorted(label, key=lambda c: (c[0], wild[c], c)):
                    order.extend(a for a in c[1] if a in is_fresh)
            moved = dict.fromkeys(order)
            n = len(moved)
            if witnesses is not None:
                # The assignment's other fresh constants follow, so that
                # renaming it stays one-to-one.
                moved.update((v, None) for v in values if v in is_fresh)
            rho = dict(zip(moved, fresh))
            rho = {a: b for a, b in rho.items() if a != b}
            if rho:
                args = tuple(rho.get(a, a) for a in args)
                label = frozenset((r, tuple(rho.get(a, a) for a in c), pos) for r, c, pos in label)
            out.append((relation_out, args, label, n))
            if witnesses is not None and label not in witnesses:
                witnesses[label] = (i, {name: rho.get(values[s], values[s]) for name, s in variables})

        def run(s: int, label: frozenset, cost: int, u: int) -> None:
            if s == len(steps):
                if cost == k:
                    emit(label, u)
                return
            step, lits, neqs = steps[s]
            if isinstance(step, int):
                for values[step], nu in choices(u):
                    r = check(lits, neqs, label, cost)
                    if r is not None:
                        run(s + 1, *r, nu)
                return
            relation, slots, columns, binds, repeats = step
            source = delta if s == 0 and delta is not None else store
            for args, child, n in source.lookup(relation, columns, [values[slots[c]] for c in columns]):
                rho: dict[str, str] = {}
                if any(
                    args[c] in is_fresh and rho.setdefault(args[c], values[slots[c]]) != values[slots[c]]
                    for c in columns
                ) or len(set(rho.values())) < len(rho):
                    continue
                rest = [f for f in fresh[:n] if f not in rho]
                at = {x: m + 1 for m, x in enumerate(rest)}
                groups: list[list] = [[] for _ in range(len(rest) + 1)]
                for con in child:
                    groups[max((at.get(a, 0) for a in con[1]), default=0)].append(con)
                for full, nu, joined, c in join(groups, rest, 0, rho, u, label, cost):
                    for j, sl in binds:
                        values[sl] = full.get(args[j], args[j])
                    if repeats and any(values[sl] != full.get(args[j], args[j]) for j, sl in binds):
                        continue
                    r = check(lits, neqs, joined, c)
                    if r is not None:
                        run(s + 1, *r, nu)

        r = check(*pre, frozenset(), 0)
        if r is not None:
            run(0, *r, 0)

    levels = itertools.count() if budget is None else range(budget + 1)
    for k in levels:
        found: list = []
        for i in sorted(live):
            fire(i, None, k, found)
        while found:
            delta = _Labels(is_fresh)
            for entry in found:
                if store.add(*entry):
                    delta.add(*entry)
            found = []
            for relation in delta.indexes:
                for i, d in readers.get(relation, ()):
                    fire(i, d, k, found, delta)
        labels = store.by_atom.get((boolean.answer, ()))
        if labels:
            break
    else:
        return None
    names = sorted(fresh)
    best = None
    for label in labels:
        ins = [(r, args) for r, args, positive in label if positive and (r, args) not in present]
        dels = tuple(sorted((r, args) for r, args, positive in label if not positive and (r, args) in present))
        key, rho = _least_relabelling(ins, dels, names, is_fresh)
        if best is None or key < best[0]:
            best = key, rho, label
    (ins, dels), rho, label = best
    update = Update.of(itertools.starmap(Fact, ins), itertools.starmap(Fact, dels))
    if witnesses is None:
        # The engine re-checks the answer, independently of the labels.
        if not eval_member(program, apply_update(instance, update), target):
            raise AssertionError(f"label fixpoint returned {update}, which is not a repair")
        return update, None
    i, assignment = witnesses[label]
    spare = iter(name for name in names if name not in rho.values())
    for v in assignment.values():
        if v in is_fresh and v not in rho:
            rho[v] = next(spare)
    witness = {name: rho.get(v, v) for name, v in assignment.items()}
    if repair_for_assignment(rules[i], witness, instance) != update:
        raise AssertionError(f"label search returned {update}, which {witness} does not induce")
    return update, witness


def ma_min_datalog_positive(program: Program, instance: Instance, target: tuple[str, ...]) -> RepairResult:
    """Positive programs are monotone, so insertions alone suffice and
    insertions over the visible constants plus one fresh constant are
    complete: any satisfying instance collapses onto them.  ``ma_dec``
    decides whether a repair exists; if one does, the label search finds the
    least at some level, so it needs no bound."""
    if not classify(program).is_positive_datalog:
        raise NotPositiveDatalog("program contains negation or inequality atoms")
    if not ma_dec(program, instance, target):
        return RepairResult.no_repair()
    domain = SearchDomain.for_positive_datalog(program, instance, target)
    return RepairResult.found(_label_search(program, instance, target, domain, None)[0])


def ma_min_spdatalog(
    program: Program, instance: Instance, target: tuple[str, ...], budget: int
) -> RepairResult:
    """Budget-capped label search for recursive programs with negated
    extensional atoms, over the visible constants plus ``max-arity *
    budget`` fresh ones."""
    flags = classify(program)
    if not flags.is_semipositive_datalog:
        raise NotSemipositive("negation on derived symbols is not supported")
    program.check_target(target)
    if budget < 0:
        raise ValueError("budget must be non-negative")
    domain = SearchDomain.for_spdatalog(program, instance, target, budget)
    res = _label_search(program, instance, target, domain, budget)
    if res is None:
        return RepairResult.budget_exhausted()
    return RepairResult.found(res[0])


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
    otherwise; the domain is the fragment's search domain.  An empty search
    proves that no repair exists, and reports ``no_repair``, when it ran over
    that default domain with a budget that bounds every minimal repair: the
    most literals in one rule for a non-recursive query, the size of the
    insertion pool for positive datalog.  Otherwise it reports
    ``budget_exhausted``; that includes every semi-positive program: no
    bound on its minimal repairs is computed, and its ``!=`` atoms can need
    more fresh constants than the domain holds.
    """
    if budget is not None and budget < 0:
        raise ValueError("budget must be non-negative")
    flags = classify(program)
    most = max((r.positive_count() + r.negative_count() for r in program.rules), default=0)
    if budget is None:
        budget = most if flags.is_ucq else DEFAULT_SP_BUDGET
    complete = domain is None
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
    # Candidates only add schema facts to the instance, so its checks cover them.
    holds = _member_test(program, instance, target)
    for size in range(budget + 1):
        for ins, dels in _enumerate_updates(ins_pool, del_pool, size):
            if holds((instance.facts | set(ins)) - set(dels)):
                return RepairResult.found(Update.of(ins, dels))
    if complete and (flags.is_ucq and budget >= most or flags.is_positive_datalog and budget >= len(ins_pool)):
        return RepairResult.no_repair()
    return RepairResult.budget_exhausted()


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

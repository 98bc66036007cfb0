"""Minimum-cardinality repair solvers.

Every solver finds the smallest set of fact insertions and deletions
placing the target tuple in the query answer.

* one fixpoint that labels each derived atom with the minimal edit sets of
  its proofs, cut off at a cost that rises from 0 until the target has a
  label (``_label_search``), grounding rules by the engine's rule plans
  (``engine._plan``).  It runs on the query specialised to the target
  (``specialize``), like every solver here, and serves every fragment:
  - non-recursive queries with negated atoms, whose rules read no derived
    symbol, so one round per level labels the target; the most literals in
    one rule bounds the search; a rule with a single atom needs at most two
    levels, and a rule without projection no search, since its copy pinned
    to the target assigns every variable;
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
relabelling the fresh constants of each answer onto the least fresh names.
For non-recursive queries the result also carries a witness, an assignment
of one rule's variables that induces the repair (``repair_for_assignment``);
between witnesses of the same repair, the first rule in rule order wins,
and within it the order of the search decides.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Mapping, Sequence

from .classify import classify
from .engine import (
    _EMPTY_RELATION,
    _Relation,
    _check_instance,
    _getter,
    _index_instance,
    _member_test,
    _plan,
    eval_member,
)
from .model import (
    Fact,
    Instance,
    Program,
    Rule,
    Term,
    Update,
    active_domain,
    apply_update,
    check_safe,
    facts_over,
    fresh_constants,
    make_program,
    specialize,
    update_size,
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


def ma_min_projection_free(rule: Rule, instance: Instance, target: tuple[str, ...]) -> RepairResult:
    """Rules with no bound variables: pinning the head to the target assigns
    every variable, so the repair is the one that assignment induces."""
    if rule.bound_vars:
        raise NotProjectionFree(f"rule for {rule.head} has bound variables")
    return ma_min_ucqneg(make_program([rule], rule.head, validate=False), instance, target)


def ma_min_join_free(rule: Rule, instance: Instance, target: tuple[str, ...]) -> RepairResult:
    """Rules whose body is a single relational literal (plus comparisons):
    the repair is empty or a single insertion/deletion."""
    if len(rule.relational_literals()) != 1:
        raise NotJoinFree(f"rule for {rule.head} does not have exactly one relational literal")
    return ma_min_ucqneg(make_program([rule], rule.head, validate=False), instance, target)


# ---------------------------------------------------------------------------
# Union solver


def ma_min_ucqneg(program: Program, instance: Instance, target: tuple[str, ...]) -> RepairResult:
    """Exact minimum repair for a non-recursive query: one label search over
    its rules, at the most literals in one of them, which bounds every
    minimal repair, so a search that finds none proves there is none.

    The witness is an assignment of one rule's variables that induces the
    repair (``repair_for_assignment``); between witnesses of the same
    repair, the first rule in rule order wins, and within it the order of
    the search decides.
    """
    flags = classify(program)
    if not flags.is_ucq:
        raise NotUcq("this solver needs a non-recursive query")
    program.check_target(target)
    _check_instance(program, instance.facts)
    domain = SearchDomain.for_ucq(program, instance, target)
    budget = max(r.positive_count() + r.negative_count() for r in program.rules)
    res = _label_search(program, instance, target, domain, budget)
    if res is None:
        return RepairResult.no_repair()
    return RepairResult.found(*res)


# ---------------------------------------------------------------------------
# Size-ordered update enumeration (the oracle's search)


def _enumerate_updates(
    ins_pool: Sequence[Fact], del_pool: Sequence[Fact], size: int
) -> Iterator[tuple[tuple[Fact, ...], tuple[Fact, ...]]]:
    """All updates of exactly this size, in canonical order: sorted
    insertion tuples first, deletions breaking ties: the insertion tuples
    depth first over the pool, each followed by its deletion combinations."""
    stack = [(0, ())]
    while stack:
        start, ins = stack.pop()
        for dels in itertools.combinations(del_pool, size - len(ins)):
            yield ins, dels
        if len(ins) < size:
            stack.extend((i + 1, ins + (ins_pool[i],)) for i in reversed(range(start, len(ins_pool))))


# ---------------------------------------------------------------------------
# Datalog solvers: one fixpoint of minimal edit labels


def _least_relabelling(
    ins: Sequence[tuple], dels: tuple[tuple, ...], names: Sequence[str], fresh: frozenset[str]
) -> tuple[tuple, dict[str, str]]:
    """The canonically least ``(insertions, deletions)`` key of an update
    given as fact tuples, over every map of the fresh constants of its
    insertions onto the least fresh ``names``, and the first map in
    permutation order that gives it.  Deletions hold no fresh constant.

    The key is built a fact at a time: the next is the least fact that any
    extension of a map so far can give, each new constant of that fact
    taking the least unused name, and only ties branch.  A constant whose
    swap with an earlier one leaves the insertions unchanged is named after
    it, since the swapped map gives the same key and comes first."""
    moved = sorted({a for _, args in ins for a in args if a in fresh})
    if not moved:
        return (tuple(sorted(ins)), dels), {}
    # The last constant before each that can swap with it, the insertions
    # unchanged.  Such swaps are transitive.
    facts, before = set(ins), {}
    for i, a in enumerate(moved):
        for b in reversed(moved[:i]):
            swap = {a: b, b: a}
            if {(rel, tuple(swap.get(x, x) for x in args)) for rel, args in ins} == facts:
                before[a] = b
                break
    key: list[tuple] = []
    # Each partial map, with the facts it has not placed yet.  The names in
    # use are always the least ones.
    states: list[tuple[dict[str, str], list[tuple]]] = [({}, list(ins))]
    while states[0][1]:
        best, ties = None, {}
        for rho, left in states:
            for j, (relation, args) in enumerate(left):
                new = dict(zip(dict.fromkeys(a for a in args if a in fresh and a not in rho), names[len(rho) :]))
                if any(b in before and before[b] not in rho and not new.get(before[b], y) < y for b, y in new.items()):
                    continue
                least = (relation, tuple(rho.get(a) or new.get(a, a) for a in args))
                if best is None or least < best:
                    best, ties = least, {}
                if least == best:
                    new.update(rho)
                    ties.setdefault(frozenset(new.items()), (new, left[:j] + left[j + 1 :]))
        key.append(best)
        states = list(ties.values())
    rho = min((rho for rho, _ in states), key=lambda rho: [rho[a] for a in moved])
    return (tuple(key), dels), {a: rho[a] for a in moved}


# Bounded, since a long-lived process may search many distinct queries.
@functools.lru_cache(maxsize=1024)
def _prepare(written: tuple[Rule, ...], rules: tuple[Rule, ...], answer: str) -> tuple:
    """What ``_label_search`` reads of the rules alone, for the program's
    rules as ``written`` and the ``rules`` of its query specialised to a
    target with goal ``answer``: ``(idb, both, live, readers, goals, deep,
    plans)``.  The value is shared between searches and never mutated.

    ``live`` lists the rules that can fire, of the symbols that such rules
    for the goal read, directly or not.  ``both`` holds the stored
    relations read both ways by a rule as written (a pinned copy that can
    never fire keeps no literal).  ``readers`` lists the (rule, derived
    literal) pairs that read each symbol, ``goals`` the live goal rules,
    and ``deep`` the relations that live non-goal rules read.  A rule that
    cannot hold has no plan, so it is not live.  ``plans`` maps every
    (rule, first) pair of the search, and (rule, None) for the whole body,
    to its plan and the narrowing table of each step.  A free step's
    narrowing table has an entry per relation of its positive checks, read
    from the first such check, as ``(relation, columns, pick, known,
    position)``: the columns that hold other slots, the readers of those
    columns in a fact and of their values in the assignment, and the first
    column holding the free slot; any other step's table is empty."""
    idb = frozenset(r.head for r in rules)
    stored = [lit for r in written for lit in r.relational_literals() if lit.relation not in idb]
    both = {lit.relation for lit in stored if lit.positive} & {lit.relation for lit in stored if not lit.positive}
    fires: set[int] = set()
    needed, todo = set(), [answer]
    while todo:
        symbol = todo.pop()
        if symbol not in needed:
            needed.add(symbol)
            for i, rule in enumerate(rules):
                if rule.head == symbol and _plan(rule, idb, None) is not None:
                    fires.add(i)
                    todo.extend(lit.relation for lit in rule.relational_literals() if lit.relation in idb)
    live = sorted(fires)
    readers: dict[str, list[tuple[int, int]]] = {}
    plans: dict[tuple[int, int | None], tuple] = {}
    for i in live:
        derived = [lit.relation for lit in rules[i].relational_literals() if lit.relation in idb]
        for d, relation in enumerate(derived):
            readers.setdefault(relation, []).append((i, d))
        for first in (None, *range(len(derived))):
            plan = _plan(rules[i], idb, first)
            needs = []
            for s, checks, _ in plan[2]:
                leads: dict[str, tuple[int, ...]] = {}
                for positive, relation, _, args in checks:
                    if positive and isinstance(s, int):
                        leads.setdefault(relation, args)
                need = []
                for relation, lead in leads.items():
                    columns = tuple(j for j, x in enumerate(lead) if x != s)
                    known = _getter(tuple(lead[j] for j in columns))
                    need.append((relation, columns, _getter(columns), known, lead.index(s)))
                needs.append(tuple(need))
            plans[i, first] = plan, needs
    goals = [i for i in live if rules[i].head == answer]
    deep = {lit.relation for i in live if i not in goals for lit in rules[i].relational_literals()}
    return idb, both, live, readers, goals, deep, plans


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

    Level k adds to level k-1 the subset-minimal labels of cost exactly
    k - offset of each symbol: one round fires every rule, then each round
    fires only the literals whose symbol gained labels, on the new ones.  A
    rule instance's label is the union of its literals' labels and
    constraints; inconsistent unions and unions over the cost are dropped.
    The goal's offset is 0, so the first level that labels the target gives
    the answer.  No rule reads the goal, so it keeps only its least repair:
    each goal label is ranked as it stands when first emitted, by the key
    of its least relabelling, and the first that ranks least wins.  A
    symbol's offset is the least count, over the goal rules that reach it
    through derived literals, of the edits that the rule's ground stored
    literals force over relations that no other live rule reads.  Those
    edits are in no label of the symbol, so a goal label of cost k holds
    only its labels of cost at most k - offset, all built by level k.

    The search keeps only values that fit the remaining cost (forward
    checking): the checks of a step reject a value whose edits cost over k.
    A free step's options only offer values.  Among the positive stored
    literals ground at the step, a value that the first literal of each of
    j relations reads in no stored fact and no insertion of the label costs
    at least j edits.  So when those relations outnumber the room r = k -
    cost, the step offers, in the usual order, only the values that the
    first literal of one of the first r + 1 of them reads in the instance
    index or the label's insertions.  With a budget, the search returns
    None at once when the ground stored literals of every goal rule force
    more edits than the budget.

    Each rule's plan is walked depth first over an explicit stack, with a
    frame per entered step: its remaining options, and the label, cost and
    fresh names in use on entry.  A goal rule instance of cost k can add no
    edit, so all its completions have the same edits and the same key, and
    only a strictly lesser key replaces the best: a goal rule's frame
    entered at cost k stops at its first emission, which pops every
    stopping frame on top of the stack.

    Fresh constants are interchangeable, so the labels of other symbols
    are stored up to renaming them, and a rule instance tries only the
    fresh constants it already uses and the next unused one.  The answer
    is relabelled onto the least fresh names in string order.  In a goal
    rule, the other values that no assigned slot, no constraint of the
    label and no stored fact that a literal checked from the current step
    on can match hold are interchangeable too, but for their order:
    mapping them, in order, onto the least of them keeps a completion's
    cost and lowers its key and its place in the search.  So when the
    domain has more visible constants than steps are left, a free step
    tries only the first of them, one per step left, and a single-atom
    rule visits each stored fact of its relation a bounded number of times
    per step.

    The labels of a symbol are the rows of one ``engine._Relation``.  The
    label of atom ``relation(args)``, its fresh constants renamed onto the
    first ``n`` fresh names, is the row ``wild(args) + ((args, label, n),)``,
    where ``wild`` writes a fresh constant as None, so a lookup by wild
    values matches any fresh constant.  ``by_atom`` lists each atom's
    labels; a new label is stored unless one of them is a subset of it.  A
    round's delta holds exactly the rows stored from the round before.
    ``store`` and ``by_atom`` hold derived symbols other than the goal.

    The search runs on the query specialised to the target
    (``specialize``), whose goal's ``()`` atom stands for the target.  When
    no goal rule that can fire reads a derived symbol, the query is a union
    of rules over stored facts, and the witness is an assignment of the
    rule variables that induces the repair (``repair_for_assignment``): the
    first one, in search order, whose label ranks least, relabelled like
    it, its other fresh constants taking the least unused names.  That
    check replaces the engine's, so such rules need not be safe.  Otherwise
    the witness is None, the program's rules must be safe as written or
    ValueError is raised, and the engine checks the repair.  The caller
    checks the instance.

    What reads the rules alone is prepared once per specialised query
    (``_prepare``): the derived symbols, the relations read both ways, the
    live rules with their plans and narrowing tables, the readers of each
    symbol, the goal rules and the relations non-goal rules read.  What
    reads the instance or the domain is built per search: the stored facts
    and their index, the fresh and fixed values and their ranks, the
    floors, the offsets and each rule's lag.
    """
    boolean = specialize(program, target)
    rules = boolean.rules
    idb, both, live, readers, goals, deep, plans = _prepare(program.rules, rules, boolean.answer)
    if readers:
        check_safe(program.rules)
    present = {(f.relation, f.args) for f in instance.facts}
    is_fresh = frozenset(domain.constants) - active_domain(program, instance, target)
    fresh = [c for c in domain.constants if c in is_fresh]
    fixed = [c for c in domain.constants if c not in is_fresh]
    # The place of each value in the order that ``choices`` gives.
    rank_of = {v: n for n, v in enumerate(fixed + fresh)}.__getitem__
    index = _index_instance(instance.facts)
    store: dict[str, _Relation] = defaultdict(_Relation)
    by_atom: dict[tuple[str, tuple[str, ...]], list[frozenset]] = {}

    def wild(values: Iterable[str]) -> tuple:
        return tuple(None if v in is_fresh else v for v in values)

    def floor(i: int, skip: Container[str] = ()) -> int:
        """The distinct edits that rule ``i``'s ground stored literals force
        over the relations not in ``skip``."""
        start, (ground, _), *_ = plans[i, None][0]
        facts = [(pos, (rel, get(start))) for pos, rel, get, _ in ground if rel not in skip]
        return len({fact for pos, fact in facts if (fact in present) != pos})

    if budget is not None and all(floor(i) > budget for i in goals):
        return None
    # Each symbol's offset, and the offset of each live rule's head.  With
    # no readers every live rule is a goal rule.
    offset = {boolean.answer: 0}
    if readers:
        for i in goals:
            least, todo = floor(i, deep), [i]
            while todo:
                for lit in rules[todo.pop()].relational_literals():
                    if lit.relation in idb and offset.get(lit.relation, least + 1) > least:
                        offset[lit.relation] = least
                        todo.extend(j for j in live if rules[j].head == lit.relation)
    lag = {i: offset[rules[i].head] for i in live}

    def choices(u: int, known: Iterable[str] = fixed) -> Iterator[tuple[str, int]]:
        """Values for a new variable, with the count of fresh names in use:
        the ``known`` values, then the fresh names in use and the next."""
        for v in itertools.chain(known, fresh[:u]):
            yield v, u
        if u < len(fresh):
            yield fresh[u], u + 1

    def fire(i: int, first: int | None, k: int, out: list, delta: _Relation | None = None) -> None:
        """Append to ``out`` the canonical ``(relation, args, label, n)`` of
        each rule instance of cost exactly k, with the ``first``-th derived
        literal reading ``delta``."""
        relation_out = rules[i].head
        goal = relation_out == boolean.answer
        (start, pre, steps, head, variables, bound), needs = plans[i, first]
        values = list(start)

        def check(lits, neqs, label: frozenset, cost: int):
            """``label`` and its cost with the constraints of the stored
            literals ``lits`` added, or None if that is inconsistent, costs
            over k or breaks one of the inequalities ``neqs``."""
            for a, b in neqs:
                if values[a] == values[b]:
                    return None
            for positive, relation, get, _ in lits:
                args = get(values)
                edit = ((relation, args) in present) != positive
                if (edit or relation in both) and (relation, args, positive) not in label:
                    cost += edit
                    if cost > k or (relation, args, not positive) in label:
                        return None
                    label = label | {(relation, args, positive)}
            return label, cost

        def narrow(need: tuple, label: frozenset, room: int, u: int) -> list[tuple[str, int]]:
            """The choices for a free step with more relations in ``need``
            than ``room``, in the usual order: the values that the first
            literal of one of the first ``room + 1`` relations reads in a
            stored fact or an insertion of ``label``.  Any other value misses
            those relations, so ``check`` rejects it for the cost."""
            seen = set()
            for relation, columns, pick, known, position in need[: room + 1]:
                key = known(values)
                for args in index.get(relation, _EMPTY_RELATION).lookup(columns, key):
                    seen.add(args[position])
                for c in label:
                    if c[0] == relation and c[2] and pick(c[1]) == key:
                        seen.add(c[1][position])
            return [(v, u) for v in sorted(seen, key=rank_of)]

        def spare(s: int, label: frozenset, u: int) -> Iterator[tuple[str, int]]:
            """The choices for free step ``s`` of a goal rule: the values
            held by an assigned slot, a constraint of ``label`` or a stored
            fact that a literal checked from ``s`` on can match, and the
            first of the other values, one per step left.  The checks are
            read latest step first, and the values gathered until too few
            others are left to leave any out."""
            left = len(steps) - s
            seen = {v for x, v in enumerate(values) if bound[x] < s}
            seen.update(a for c in label for a in c[1])
            seen -= is_fresh
            for t in range(len(steps) - 1, s - 1, -1):
                for _, relation, _, args in steps[t][1]:
                    if len(seen) + left >= len(fixed):
                        return choices(u)
                    columns = tuple(j for j, x in enumerate(args) if bound[x] < s)
                    key = tuple(values[args[j]] for j in columns)
                    for row in index.get(relation, _EMPTY_RELATION).lookup(columns, key):
                        seen.update(row[j] for j, x in enumerate(args) if bound[x] >= s)
            if len(seen) + left >= len(fixed):
                return choices(u)
            least = list(itertools.islice((v for v in fixed if v not in seen), left))
            return choices(u, sorted(seen.union(least), key=rank_of))

        def merge(label: frozenset, cost: int, constraints: Iterable[tuple], rho: Mapping[str, str]):
            """``label`` and its cost with ``constraints`` renamed by ``rho``
            added, or None if that is inconsistent or costs over k."""
            added = []
            for relation, args, positive in constraints:
                if rho:
                    args = tuple(rho.get(a, a) for a in args)
                if (relation, args, positive) not in label:
                    if (relation, args, not positive) in label:
                        return None
                    added.append((relation, args, positive))
                    cost += ((relation, args) in present) != positive
                    if cost > k:
                        return None
            return label.union(added), cost

        def emit(label: frozenset, u: int) -> None:
            """Rank a goal label as it stands, or append any other label with
            its fresh constants renamed onto the first fresh names."""
            nonlocal best
            if goal:
                if label not in ranked:
                    ranked.add(label)
                    ins = [(r, a) for r, a, positive in label if positive and (r, a) not in present]
                    dels = tuple(sorted((r, a) for r, a, positive in label if not positive and (r, a) in present))
                    key, least = _least_relabelling(ins, dels, names, is_fresh)
                    if best is None or key < best[0]:
                        best = key, least, i, None if readers else {x: values[s] for x, s in variables.items()}
                return
            args = head(values)
            order = [a for a in args if a in is_fresh]
            if u:
                wild = {c: tuple("" if a in is_fresh else a for a in c[1]) for c in label}
                for c in sorted(label, key=lambda c: (c[0], wild[c], c)):
                    order.extend(a for a in c[1] if a in is_fresh)
            moved = dict.fromkeys(order)
            rho = {a: b for a, b in zip(moved, fresh) if a != b}
            if rho:
                args = tuple(rho.get(a, a) for a in args)
                label = frozenset((r, tuple(rho.get(a, a) for a in c), pos) for r, c, pos in label)
            out.append((relation_out, args, label, len(moved)))

        def renamings(args: tuple, child: frozenset, n: int, columns: tuple, bound: tuple, label, cost, u):
            """Yield ``(args, r, u)`` for each map of a row's ``n`` fresh
            names that agrees with the ``bound`` values at ``columns`` and
            sends the others onto the fresh names in use or new ones: the
            row's args renamed, and ``merge``'s result for its label
            ``child``.  The constraints of the label are merged as soon as
            they are complete, so an inconsistent or too costly map is cut
            short."""
            rho: dict[str, str] = {}
            if any(
                args[c] in is_fresh and rho.setdefault(args[c], v) != v for c, v in zip(columns, bound)
            ) or len(set(rho.values())) < len(rho):
                return
            rest = [f for f in fresh[:n] if f not in rho]
            at = {x: m + 1 for m, x in enumerate(rest)}
            # groups[m] holds the constraints complete once rest[:m] are mapped.
            groups: list[list] = [[] for _ in range(len(rest) + 1)]
            for con in child:
                groups[max((at.get(a, 0) for a in con[1]), default=0)].append(con)
            # Depth first over the maps, children pushed in reverse.
            todo = [(0, rho, u, label, cost)]
            while todo:
                m, full, nu, joined, c = todo.pop()
                r = merge(joined, c, groups[m], full)
                if r is None:
                    continue
                if m < len(rest):
                    taken = set(full.values())
                    ys = [(y, nu) for y in fresh[:nu] if y not in taken]
                    if nu < len(fresh):
                        ys.append((fresh[nu], nu + 1))
                    todo.extend((m + 1, {**full, rest[m]: y}, v, *r) for y, v in reversed(ys))
                    continue
                yield tuple(full.get(a, a) for a in args), r, nu

        def lookup(s: int, step: tuple, label: frozenset, cost: int, u: int):
            """Yield ``(label, cost, u)`` for each row of lookup step ``s``
            that matches, bound into the slots.  A row without fresh names
            merges its label once; any other is joined under each of its
            ``renamings``."""
            _, relation, columns, key, repeats, binds = step
            source = delta if s == 0 and delta is not None else store.get(relation, _EMPTY_RELATION)
            bound = key(values)
            for row in source.lookup(columns, wild(bound)):
                args, child, n = row[-1]
                if n:
                    joins = renamings(args, child, n, columns, bound, label, cost, u)
                else:
                    r = merge(label, cost, child, {})
                    joins = () if r is None else ((args, r, u),)
                for named, r, nu in joins:
                    for j, sl in binds:
                        values[sl] = named[j]
                    if repeats and any(values[sl] != named[j] for j, sl in binds):
                        continue
                    yield *r, nu

        def frame(s: int, label: frozenset, cost: int, u: int) -> tuple:
            """The search state entered at step ``s``: its options, its slot
            (None at a lookup) and checks, whether it is the last, the label
            and cost so far, and whether it stops at its first emission (a
            goal rule's frame entered at cost k, which no edit can follow)."""
            step, lits, neqs = steps[s]
            need, last, stop = needs[s], s + 1 == len(steps), goal and cost == k
            if not isinstance(step, int):
                return lookup(s, step, label, cost, u), None, lits, neqs, last, label, cost, stop
            room = k - cost
            if len(need) > room:
                options = narrow(need, label, room, u)
            elif goal and len(fixed) > len(steps) - s:
                options = spare(s, label, u)
            else:
                options = choices(u)
            return iter(options), step, lits, neqs, last, label, cost, stop

        # A first frame checks what is ground from the start, then one frame
        # per step entered follows, so step s has frame s + 1.
        stack = [(iter(((frozenset(), 0, 0),)), None, *pre, not steps, None, None, False)]
        while stack:
            options, step, lits, neqs, last, label, cost, stop = stack[-1]
            for option in options:
                if step is None:
                    # A matched row brings its own label and cost.
                    label, cost, u = option
                else:
                    values[step], u = option
                r = check(lits, neqs, label, cost)
                if r is None:
                    continue
                if not last:
                    stack.append(frame(len(stack) - 1, *r, u))
                    break
                if r[1] == k:
                    emit(r[0], u)
                    if stop:
                        while stack[-1][-1]:
                            stack.pop()
                        break
            else:
                stack.pop()

    # The goal's least repair so far: its key, relabelling, rule and, for
    # unions, assignment; and every goal label ranked.
    names, best, ranked = sorted(fresh), None, set()
    levels = itertools.count() if budget is None else range(budget + 1)
    for k in levels:
        found: list = []
        for i in live:
            if lag[i] <= k:
                fire(i, None, k - lag[i], found)
        while found:
            delta: dict[str, _Relation] = defaultdict(_Relation)
            for relation, args, label, n in found:
                kept = by_atom.setdefault((relation, args), [])
                if not any(old <= label for old in kept):
                    kept.append(label)
                    row = wild(args) + ((args, label, n),)
                    store[relation].add(row)
                    delta[relation].add(row)
            found = []
            for relation, view in delta.items():
                for i, d in readers.get(relation, ()):
                    if lag[i] <= k:
                        fire(i, d, k - lag[i], found, view)
        if best is not None:
            break
    else:
        return None
    (ins, dels), rho, i, assignment = best
    update = Update.of(itertools.starmap(Fact, ins), itertools.starmap(Fact, dels))
    if assignment is None:
        # The engine re-checks the answer, independently of the labels.
        if not eval_member(program, apply_update(instance, update), target):
            raise AssertionError(f"label fixpoint returned {update}, which is not a repair")
        return update, None
    spare = iter(name for name in names if name not in rho.values())
    for _, v in sorted(assignment.items()):
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
    checks the instance and decides whether a repair exists; if one does,
    the label search finds the least at some level, so it needs no bound."""
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
    _check_instance(program, instance.facts)
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

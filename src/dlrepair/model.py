"""Immutable core values: terms, literals, rules, programs, facts, instances, updates.

A query and a target tuple meet in one place, ``specialize``: it pins each
answer rule's head to the target and projects onto a 0-ary goal, so
membership, satisfiability and repair search all run on that Boolean query.

Every value here is frozen; operations return new values and never mutate
their inputs, so values can be shared freely across threads.  Fact sets are
kept deterministic everywhere: iteration and tie-breaking use the canonical
order (relation symbol, then argument tuple).
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence, Union

# Fresh constants live in a lexical space the parser reserves (user constants
# may not start with "_"), so they can never collide with user data.
FRESH_PREFIX = "_c"
_FRESH_RE = re.compile(r"_c\d+\Z")


class InvalidUpdate(ValueError):
    """Update violates its invariants relative to the instance it is applied to."""


class NotBijective(ValueError):
    """A constant-renaming map is not injective."""


class ArityMismatch(ValueError):
    """A relation symbol is used at two different arities, or a tuple has the wrong length."""


# ---------------------------------------------------------------------------
# Terms and literals


@dataclass(frozen=True, order=True, slots=True)
class Term:
    kind: str  # "variable" | "constant"
    name: str

    @property
    def is_variable(self) -> bool:
        return self.kind == "variable"


def var(name: str) -> Term:
    return Term("variable", name)


def const(name: str) -> Term:
    return Term("constant", name)


@dataclass(frozen=True, order=True, slots=True)
class RelLiteral:
    """A (possibly negated) relational atom in a rule body."""

    relation: str
    args: tuple[Term, ...]
    positive: bool = True


@dataclass(frozen=True, order=True, slots=True)
class Comparison:
    """An equality or inequality atom between two terms."""

    op: str  # "eq" | "neq"
    left: Term
    right: Term

    def holds(self, left_value: str, right_value: str) -> bool:
        return (left_value == right_value) == (self.op == "eq")


Literal = Union[RelLiteral, Comparison]


# ---------------------------------------------------------------------------
# Rules and programs


@dataclass(frozen=True, slots=True)
class Rule:
    """head(head_args) :- body.  Head args are variables only; the parser
    desugars head constants into equality atoms.  Its hash is computed once."""

    head: str
    head_args: tuple[Term, ...]
    body: tuple[Literal, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.head, self.head_args, self.body)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes, so unpickling rehashes.
        return Rule, (self.head, self.head_args, self.body)

    @property
    def free_vars(self) -> frozenset[str]:
        return frozenset(t.name for t in self.head_args)

    @property
    def body_vars(self) -> frozenset[str]:
        return frozenset(t.name for t in body_terms(self.body) if t.is_variable)

    @property
    def all_vars(self) -> frozenset[str]:
        return self.free_vars | self.body_vars

    @property
    def bound_vars(self) -> frozenset[str]:
        return self.body_vars - self.free_vars

    def relational_literals(self) -> list[RelLiteral]:
        return [lit for lit in self.body if isinstance(lit, RelLiteral)]

    def comparisons(self) -> list[Comparison]:
        return [lit for lit in self.body if isinstance(lit, Comparison)]

    def positive_count(self) -> int:
        return sum(1 for lit in self.relational_literals() if lit.positive)

    def negative_count(self) -> int:
        return sum(1 for lit in self.relational_literals() if not lit.positive)


@dataclass(frozen=True)
class Program:
    """A list of rules with a designated answer predicate over a fixed
    extensional schema.  ``schema`` maps each extensional symbol to its arity;
    symbols occurring in some head are intensional."""

    rules: tuple[Rule, ...]
    answer: str
    schema: Mapping[str, int]

    @property
    def idb(self) -> frozenset[str]:
        return frozenset(r.head for r in self.rules)

    @property
    def arities(self) -> dict[str, int]:
        out = dict(self.schema)
        for r in self.rules:
            out.setdefault(r.head, len(r.head_args))
        return out

    @property
    def arity(self) -> int:
        return self.arities[self.answer]

    def constants(self) -> frozenset[str]:
        return frozenset(t.name for r in self.rules for t in body_terms(r.body) if not t.is_variable)

    def check_target(self, target: tuple[str, ...]) -> None:
        """Raise ArityMismatch unless the target fits the answer's arity."""
        if len(target) != self.arity:
            raise ArityMismatch(f"target has length {len(target)}, answer arity is {self.arity}")


def body_terms(body: Iterable[Literal]) -> Iterator[Term]:
    """The terms of a rule body, literal by literal, in order."""
    for lit in body:
        if isinstance(lit, RelLiteral):
            yield from lit.args
        else:
            yield lit.left
            yield lit.right


class _Closure:
    """Equality classes of a rule's terms under its equality atoms;
    ``conflict`` is set when two distinct constants merge, and ``forced``
    maps each class holding a constant to that constant."""

    def __init__(self, rule: Rule):
        self.parent: dict[tuple[str, str], tuple[str, str]] = {}
        self.conflict = False
        for t in itertools.chain(body_terms(rule.body), rule.head_args):
            self.find(self._node(t))
        for cmp_ in rule.comparisons():
            if cmp_.op == "eq":
                self._union(self._node(cmp_.left), self._node(cmp_.right))
        self.forced: dict[tuple[str, str], str] = {}
        for node in list(self.parent):
            kind, name = node
            if kind != "k":
                continue
            root = self.find(node)
            if root in self.forced and self.forced[root] != name:
                self.conflict = True
            self.forced[root] = name

    @staticmethod
    def _node(term: Term) -> tuple[str, str]:
        return ("v" if term.is_variable else "k", term.name)

    def find(self, node: tuple[str, str]) -> tuple[str, str]:
        self.parent.setdefault(node, node)
        root = node
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[node] != root:
            self.parent[node], node = root, self.parent[node]
        return root

    def _union(self, a: tuple[str, str], b: tuple[str, str]) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def term_root(self, term: Term) -> tuple[str, str]:
        return self.find(self._node(term))

    def instantiate(self, terms: Iterable[Term], taken: Iterable[str]) -> dict[tuple[str, str], str]:
        """A value per class: forced classes keep their constant, and the
        other classes of ``terms``, in order of first appearance, get
        distinct fresh constants outside ``taken`` and the forced ones."""
        free = list(dict.fromkeys(r for r in map(self.term_root, terms) if r not in self.forced))
        values = dict(self.forced)
        values.update(zip(free, fresh_constants(len(free), set(taken) | set(self.forced.values()))))
        return values


# Bounded, since a long-lived process may check many distinct rules.
@functools.lru_cache(maxsize=4096)
def ungrounded_vars(rule: Rule) -> frozenset[str]:
    """Variables whose equality class holds no constant and no variable of a
    positive relational literal.

    Safe rules have none: such variables are the ones an assignment search
    could never bind, and evaluation would be domain-dependent for them.
    """
    cl = _Closure(rule)
    grounded = set(cl.forced)
    for lit in rule.relational_literals():
        if lit.positive:
            grounded.update(cl.term_root(t) for t in lit.args)
    return frozenset(name for name in rule.all_vars if cl.term_root(var(name)) not in grounded)


def validate_program(program: Program) -> None:
    """Check the structural invariants of a programmatically built program.

    The parser performs the same checks with source positions; this is the
    safety net for programs assembled from model values directly.
    """
    if not program.rules:
        raise ValueError("program has no rules")
    heads = {r.head for r in program.rules}
    if program.answer not in heads:
        raise ValueError(f"answer predicate {program.answer!r} has no defining rule")
    arities: dict[str, int] = dict(program.schema)

    def see(symbol: str, arity: int) -> None:
        known = arities.setdefault(symbol, arity)
        if known != arity:
            raise ArityMismatch(f"{symbol} used with arity {arity}, previously {known}")

    for r in program.rules:
        see(r.head, len(r.head_args))
        for t in r.head_args:
            if not t.is_variable:
                raise ValueError(f"constant {t.name!r} in head of {r.head}")
        for lit in r.relational_literals():
            see(lit.relation, len(lit.args))
            if not lit.positive and lit.relation in heads:
                raise ValueError(f"negated intensional symbol {lit.relation!r}")
        missing = r.free_vars - r.body_vars
        if missing:
            raise ValueError(f"head variable {sorted(missing)[0]!r} not in body of {r.head}")
        loose = ungrounded_vars(r)
        if loose:
            raise ValueError(f"variable {sorted(loose)[0]!r} of {r.head} occurs in no positive literal")
    for symbol in program.schema:
        if symbol in heads:
            raise ValueError(f"{symbol!r} is both extensional and a rule head")


def make_program(
    rules: Iterable[Rule],
    answer: str | None = None,
    extra_schema: Mapping[str, int] | None = None,
    validate: bool = True,
) -> Program:
    """Build a program, inferring the extensional schema: symbols that never
    occur in a rule head are extensional."""
    rules = tuple(rules)
    heads = {r.head for r in rules}
    schema: dict[str, int] = dict(extra_schema or {})
    for r in rules:
        for lit in r.relational_literals():
            if lit.relation not in heads:
                schema.setdefault(lit.relation, len(lit.args))
    program = Program(rules, answer or (rules[0].head if rules else ""), schema)
    if validate:
        validate_program(program)
    return program


def pin(rule: Rule, target: tuple[str, ...], head: str) -> Rule:
    """A copy of ``rule`` for the 0-ary symbol ``head``, with equality atoms
    pinning its head variables to the target constants.  A repeated head
    variable gets two; if they differ, the copy can never fire and keeps no
    other atom, so nothing of its body is evaluated or checked."""
    pins = tuple(Comparison("eq", term, const(value)) for term, value in zip(rule.head_args, target))
    fires = len(set(pins)) == len(set(rule.head_args))
    return Rule(head, (), (rule.body if fires else ()) + pins)


def specialize(program: Program, target: tuple[str, ...]) -> Program:
    """The Boolean query that holds iff the target is in the answer: each
    answer rule pinned to the target (``pin``) for a 0-ary goal symbol.  The
    goal's name starts with ``_``, which the parser reserves, and is no
    symbol of the program.  The original answer rules are kept only when
    some rule body reads the answer symbol."""
    program.check_target(target)
    goal = "_goal"
    while goal in program.arities:
        goal = "_" + goal
    read = any(lit.relation == program.answer for r in program.rules for lit in r.relational_literals())
    rules = []
    for rule in program.rules:
        if rule.head != program.answer or read:
            rules.append(rule)
        if rule.head == program.answer:
            rules.append(pin(rule, target, goal))
    return Program(tuple(rules), goal, dict(program.schema))


# ---------------------------------------------------------------------------
# Facts, instances, updates


@dataclass(frozen=True, order=True, slots=True)
class Fact:
    relation: str
    args: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Instance:
    facts: frozenset[Fact]

    @classmethod
    def of(cls, facts: Iterable[Fact] = ()) -> "Instance":
        return cls(frozenset(facts))

    def __iter__(self) -> Iterator[Fact]:
        return iter(sorted(self.facts))

    def __len__(self) -> int:
        return len(self.facts)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self.facts

    def constants(self) -> frozenset[str]:
        return frozenset(a for f in self.facts for a in f.args)


@dataclass(frozen=True, slots=True)
class Update:
    """A pair of fact sets to insert and delete.  Valid relative to an
    instance I when insertions avoid I, deletions come from I, and the two
    sets are disjoint."""

    insertions: frozenset[Fact]
    deletions: frozenset[Fact]

    @classmethod
    def of(cls, insertions: Iterable[Fact] = (), deletions: Iterable[Fact] = ()) -> "Update":
        return cls(frozenset(insertions), frozenset(deletions))


def check_update(instance: Instance, update: Update) -> None:
    if update.insertions & instance.facts:
        raise InvalidUpdate("insertion already present in the instance")
    if not update.deletions <= instance.facts:
        raise InvalidUpdate("deletion of a fact absent from the instance")
    if update.insertions & update.deletions:
        raise InvalidUpdate("fact both inserted and deleted")


def apply_update(instance: Instance, update: Update) -> Instance:
    """(I ∪ Ins) \\ Del; raises InvalidUpdate if the update is not valid for I."""
    check_update(instance, update)
    return Instance((instance.facts | update.insertions) - update.deletions)


def update_size(update: Update) -> int:
    return len(update.insertions | update.deletions)


def invert(update: Update) -> Update:
    return Update(update.deletions, update.insertions)


def canonical_facts(facts: Iterable[Fact]) -> tuple[Fact, ...]:
    return tuple(sorted(facts))


def canonical_key(update: Update) -> tuple[tuple[Fact, ...], tuple[Fact, ...]]:
    """Tie-breaking key: insertions in canonical order first, then deletions."""
    return (canonical_facts(update.insertions), canonical_facts(update.deletions))


# ---------------------------------------------------------------------------
# Renaming and domains


def _rename_fact(fact: Fact, rho: Mapping[str, str]) -> Fact:
    return Fact(fact.relation, tuple(rho.get(a, a) for a in fact.args))


def rename(value, rho: Mapping[str, str]):
    """Apply a constant renaming to an Instance, Update, Fact or target tuple.

    The map is applied where defined and is the identity elsewhere; it must
    be injective.
    """
    images = list(rho.values())
    if len(set(images)) != len(images):
        raise NotBijective("renaming map is not injective")
    if isinstance(value, Instance):
        return Instance(frozenset(_rename_fact(f, rho) for f in value.facts))
    if isinstance(value, Update):
        return Update(
            frozenset(_rename_fact(f, rho) for f in value.insertions),
            frozenset(_rename_fact(f, rho) for f in value.deletions),
        )
    if isinstance(value, Fact):
        return _rename_fact(value, rho)
    if isinstance(value, tuple):
        return tuple(rho.get(a, a) for a in value)
    raise TypeError(f"cannot rename {type(value).__name__}")


def active_domain(program: Program, instance: Instance, target: tuple[str, ...] = ()) -> frozenset[str]:
    """Constants appearing in the program, the instance, or the target tuple."""
    return program.constants() | instance.constants() | frozenset(target)


def fresh_constants(count: int, taken: Iterable[str] = ()) -> tuple[str, ...]:
    """The first ``count`` of ``_c0, _c1, ...`` that are not in ``taken``."""
    taken = set(taken)
    names = (f"{FRESH_PREFIX}{i}" for i in itertools.count())
    return tuple(itertools.islice((n for n in names if n not in taken), count))


def facts_over(relations: Iterable[str], arities: Mapping[str, int], domain: Sequence[str]) -> list[Fact]:
    """Every fact over ``domain`` for each of ``relations``, in canonical order."""
    return sorted(
        Fact(sym, args) for sym in relations for args in itertools.product(domain, repeat=arities[sym])
    )


def is_fresh_constant(name: str) -> bool:
    return _FRESH_RE.match(name) is not None

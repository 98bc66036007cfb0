"""Minimum set cover and its cost-preserving translation into a repair
problem.

The forward map builds, from a cover instance with elements u1..un and sets
s1..sm, the query

    ans(X1,...,Xn) :- f(Y1,X1), ..., f(Yn,Xn), p(Y1), ..., p(Yn).

over the instance { f(bj, ai) | ui in sj } with target (a1,...,an): covering
element ui means choosing, through p, a set whose f-edge reaches ai.  The
backward map turns any repair into a cover of no greater cost, so exact and
approximate solutions transfer in both directions.  Greedy and exact cover
solvers are included for cross-validation and workload generation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .engine import eval_member
from .model import Fact, Instance, InvalidUpdate, Program, RelLiteral, Rule, Update, apply_update, var


class EmptyUniverse(ValueError):
    """The cover instance has no elements."""


class CapExceeded(ValueError):
    """Too many sets for exhaustive subset enumeration."""


class NotARepair(ValueError):
    """The update does not place the target tuple in the query answer."""


@dataclass(frozen=True)
class SetCoverInstance:
    """Named sets in declaration order; the universe is their union."""

    sets: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.sets]
        if len(names) != len(set(names)):
            raise ValueError("duplicate set names")
        for name, elements in self.sets:
            if not elements:
                raise ValueError(f"set {name} is empty")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.sets)

    def elements_of(self, name: str) -> frozenset[str]:
        for n, elements in self.sets:
            if n == name:
                return frozenset(elements)
        raise KeyError(name)

    @property
    def universe_order(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for _, elements in self.sets:
            for e in elements:
                seen.setdefault(e)
        return tuple(seen)

    @property
    def universe(self) -> frozenset[str]:
        return frozenset(self.universe_order)

    def covers(self, chosen: tuple[str, ...]) -> bool:
        covered: set[str] = set()
        for name in chosen:
            covered |= self.elements_of(name)
        return covered >= self.universe


def make_instance(pairs) -> SetCoverInstance:
    return SetCoverInstance(tuple((name, tuple(dict.fromkeys(elements))) for name, elements in pairs))


# ---------------------------------------------------------------------------
# Text format: one line per set, ``name: u1 u2 u3``


def parse_setcover(text: str) -> SetCoverInstance:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ValueError(f"line {lineno}: expected 'name: element element ...'")
        name, _, rest = line.partition(":")
        elements = rest.split()
        if not elements:
            raise ValueError(f"line {lineno}: set {name.strip()} has no elements")
        pairs.append((name.strip(), elements))
    return make_instance(pairs)


def render_setcover(cover: SetCoverInstance) -> str:
    return "".join(f"{name}: {' '.join(elements)}\n" for name, elements in cover.sets)


# ---------------------------------------------------------------------------
# The forward and backward maps


def reduce_f(cover: SetCoverInstance) -> tuple[Program, Instance, tuple[str, ...]]:
    """Build the repair instance whose minimum repair size equals the
    minimum cover size."""
    order = cover.universe_order
    if not order:
        raise EmptyUniverse("the cover instance has no elements")
    element_const = {u: f"a{i}" for i, u in enumerate(order, start=1)}
    set_const = {name: f"b{j}" for j, name in enumerate(cover.names, start=1)}
    n = len(order)
    body: list[RelLiteral] = []
    for i in range(1, n + 1):
        body.append(RelLiteral("f", (var(f"Y{i}"), var(f"X{i}"))))
    for i in range(1, n + 1):
        body.append(RelLiteral("p", (var(f"Y{i}"),)))
    rule = Rule("ans", tuple(var(f"X{i}") for i in range(1, n + 1)), tuple(body))
    program = Program((rule,), "ans", {"f": 2, "p": 1})
    facts = frozenset(
        Fact("f", (set_const[name], element_const[u]))
        for name, elements in cover.sets
        for u in elements
    )
    target = tuple(element_const[u] for u in order)
    return program, Instance(facts), target


def extract_h(cover: SetCoverInstance, update: Update) -> tuple[str, ...]:
    """Read a cover off a repair of the translated instance.

    Deletions are discarded.  An inserted p(bj) selects set j directly; an
    inserted edge f(c, ai) is replaced by the first set containing ui; other
    insertions contribute nothing.  The result covers the universe whenever
    the update really is a repair, at no greater cost.
    """
    program, instance, target = reduce_f(cover)
    try:
        repaired = apply_update(instance, update)
    except InvalidUpdate as exc:
        raise NotARepair(str(exc)) from exc
    if not eval_member(program, repaired, target):
        raise NotARepair("the update does not put the target into the answer")

    order = cover.universe_order
    element_of = {f"a{i}": u for i, u in enumerate(order, start=1)}
    set_of = {f"b{j}": name for j, name in enumerate(cover.names, start=1)}
    chosen: set[str] = set()
    for fact in sorted(update.insertions):
        if fact.relation == "p" and len(fact.args) == 1 and fact.args[0] in set_of:
            chosen.add(set_of[fact.args[0]])
        elif fact.relation == "f" and len(fact.args) == 2 and fact.args[1] in element_of:
            element = element_of[fact.args[1]]
            for name, elements in cover.sets:
                if element in elements:
                    chosen.add(name)
                    break
    return tuple(sorted(chosen))


# ---------------------------------------------------------------------------
# Cover solvers


def greedy_cover(cover: SetCoverInstance) -> tuple[str, ...]:
    """Largest uncovered contribution first; ties broken by set name."""
    uncovered = set(cover.universe)
    remaining = sorted(cover.names)
    picked: list[str] = []
    while uncovered:
        name = min(remaining, key=lambda n: (-len(cover.elements_of(n) & uncovered), n))
        picked.append(name)
        uncovered -= cover.elements_of(name)
        remaining.remove(name)
    return tuple(picked)


def exact_cover(cover: SetCoverInstance, cap: int = 20) -> tuple[str, ...]:
    """Minimum cover by subset enumeration in size order; among minima the
    lexicographically least name tuple wins."""
    if len(cover.sets) > cap:
        raise CapExceeded(f"{len(cover.sets)} sets exceeds the cap of {cap}")
    names = sorted(cover.names)
    for k in range(len(names) + 1):
        for combo in itertools.combinations(names, k):
            if cover.covers(combo):
                return combo
    raise AssertionError("the full collection always covers its own union")


# The rolls ``generate`` makes before it gives up.
_MAX_ROLLS = 1000


def generate(seed: int, n: int, m: int, density: float) -> SetCoverInstance:
    """Random instance: each of m sets includes each of n elements with the
    given probability, re-rolled until the universe is covered and no set is
    empty, or ValueError after ``_MAX_ROLLS`` rolls.  Deterministic per
    seed."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    rng = random.Random(seed)
    elements = [f"u{i}" for i in range(1, n + 1)]
    for _ in range(_MAX_ROLLS):
        sets = []
        for j in range(1, m + 1):
            members = tuple(e for e in elements if rng.random() < density)
            sets.append((f"s{j}", members))
        if all(members for _, members in sets) and set().union(*(set(ms) for _, ms in sets)) == set(elements):
            return SetCoverInstance(tuple(sets))
    raise ValueError(f"no covering draw of n={n} elements, m={m} sets at density {density} in {_MAX_ROLLS} rolls")

"""Syntactic fragment detection.

Solvers route on these flags to the cheapest correct algorithm, and the CLI
reports them.  Everything is computed from the rule syntax alone; consistent
variable renaming never changes a flag.
"""

from __future__ import annotations

import functools
import graphlib
from dataclasses import dataclass, fields

from .model import Comparison, Program, Rule


@dataclass(frozen=True, slots=True)
class QueryClass:
    is_cq: bool
    is_ucq: bool
    has_negation: bool
    has_comparisons: bool
    is_recursive: bool
    is_semipositive_datalog: bool
    is_positive_datalog: bool
    self_join_free: bool
    projection_free: bool
    join_free: bool
    selection_free: bool

    def as_dict(self) -> dict[str, bool]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _is_recursive(rules: tuple[Rule, ...]) -> bool:
    """Does the head-dependency graph have a cycle (a rule reading its own
    head counts)?"""
    idb = frozenset(r.head for r in rules)
    reads: dict[str, set[str]] = {sym: set() for sym in idb}
    for r in rules:
        reads[r.head].update(lit.relation for lit in r.relational_literals() if lit.relation in idb)
    try:
        graphlib.TopologicalSorter(reads).prepare()
    except graphlib.CycleError:
        return True
    return False


def _selection_free_rule(rule: Rule) -> bool:
    head_vars = [t.name for t in rule.head_args]
    if len(head_vars) != len(set(head_vars)):
        return False
    for lit in rule.body:
        if isinstance(lit, Comparison):
            if lit.op == "eq":
                return False
            if not (lit.left.is_variable and lit.right.is_variable):
                return False
            continue
        names = [t.name for t in lit.args]
        if any(not t.is_variable for t in lit.args):
            return False
        if len(names) != len(set(names)):
            return False
    return True


def classify(program: Program) -> QueryClass:
    return _classify(program.rules, program.answer)


# The rules and the answer are all a classification reads.  Bounded, since a
# long-lived process may classify many distinct programs.
@functools.lru_cache(maxsize=4096)
def _classify(rules: tuple[Rule, ...], answer: str) -> QueryClass:
    idb = frozenset(r.head for r in rules)
    has_negation = any(not lit.positive for r in rules for lit in r.relational_literals())
    has_comparisons = any(isinstance(lit, Comparison) for r in rules for lit in r.body)
    has_neq = any(
        isinstance(lit, Comparison) and lit.op == "neq" for r in rules for lit in r.body
    )
    recursive = _is_recursive(rules)

    bodies_extensional = all(
        lit.relation not in idb for r in rules for lit in r.relational_literals()
    )
    is_ucq = bodies_extensional and all(r.head == answer for r in rules)
    is_cq = is_ucq and len(rules) == 1 and not has_negation and not has_neq

    self_join_free = True
    for r in rules:
        seen: set[str] = set()
        for lit in r.relational_literals():
            if lit.relation in idb:
                continue
            if lit.relation in seen:
                self_join_free = False
            seen.add(lit.relation)

    projection_free = all(not r.bound_vars for r in rules)
    join_free = all(len(r.relational_literals()) == 1 for r in rules)
    selection_free = all(_selection_free_rule(r) for r in rules)

    return QueryClass(
        is_cq=is_cq,
        is_ucq=is_ucq,
        has_negation=has_negation,
        has_comparisons=has_comparisons,
        is_recursive=recursive,
        is_semipositive_datalog=all(
            lit.positive or lit.relation not in idb for r in rules for lit in r.relational_literals()
        ),
        is_positive_datalog=not has_negation and not has_neq,
        self_join_free=self_join_free,
        projection_free=projection_free,
        join_free=join_free,
        selection_free=selection_free,
    )

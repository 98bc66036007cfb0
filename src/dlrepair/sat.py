"""Satisfiability deciders and the repair-existence decision.

A non-recursive query with negated atoms is satisfiable iff one of its rules
has a plan: ``engine._plan`` returns None exactly when a rule holds on no
instance, and a plan names a witness.  A positive datalog program is
satisfiable iff it fires on the full instance over its own constants plus
one fresh constant, a fixpoint stopped at the answer's first tuple.  Repair
existence reduces to satisfiability of the query specialised to the target
tuple (``model.specialize``, the Boolean query the engine and the repair
search also run): it holds on some instance J exactly when the update
turning the input instance into J is a repair, so the input instance is
irrelevant to existence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import classify
from .engine import _check_instance, _plan, _saturate
from .model import (
    Fact,
    Instance,
    Program,
    Rule,
    body_terms,
    facts_over,
    fresh_constants,
    specialize,
)


class NotUcq(ValueError):
    """The program is recursive or uses derived symbols in rule bodies."""


class NotPositiveDatalog(ValueError):
    """The program contains negation or inequality atoms."""


class Unsupported(ValueError):
    """No decision procedure is implemented for this fragment."""


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    witness: Instance | None = None


def sat_cqneg(rule: Rule) -> SatResult:
    """Satisfiability of a single rule whose body holds only extensional
    literals and comparisons: it holds on some instance iff it has a plan
    (``engine._plan``) with every literal a check.  The plan's start holds
    the forced constants; each other class of the body gets a distinct
    fresh constant, numbered by the first appearance of its variables in
    the body, and the plan's positive checks, read on those values, form a
    witness instance.
    """
    plan = _plan(rule, frozenset())
    if plan is None:
        return SatResult(False)
    start, pre, steps, _, variables, _ = plan
    slots = dict.fromkeys(variables[t.name] for t in body_terms(rule.body) if t.is_variable)
    free = [s for s in slots if start[s] is None]
    values = list(start)
    for s, value in zip(free, fresh_constants(len(free), (v for v in start if v is not None))):
        values[s] = value
    ground = (check for checks in (pre[0], *(step[1] for step in steps)) for check in checks)
    return SatResult(True, Instance.of(Fact(name, get(values)) for positive, name, get, _ in ground if positive))


def sat_ucqneg(program: Program) -> SatResult:
    """Satisfiability of a union: the first satisfiable rule wins."""
    if not classify(program).is_ucq:
        raise NotUcq("satisfiability by rule-wise closure needs a non-recursive query")
    for rule in program.rules:
        result = sat_cqneg(rule)
        if result.satisfiable:
            return result
    return SatResult(False)


def sat_datalog_positive(program: Program) -> SatResult:
    """A positive program is monotone, so it is satisfiable iff it fires on
    the full instance: every fact, for every extensional symbol, over the
    program's constants and one fresh constant.  The fixpoint stops at the
    answer's first tuple (``engine._saturate``)."""
    if not classify(program).is_positive_datalog:
        raise NotPositiveDatalog("program contains negation or inequality atoms")
    constants = program.constants()
    domain = sorted(constants | set(fresh_constants(1, constants)))
    witness = Instance(frozenset(facts_over(program.schema, program.schema, domain)))
    if _saturate(program, witness.facts, True)[program.answer].tuples:
        return SatResult(True, witness)
    return SatResult(False)


def sat_query(program: Program) -> SatResult:
    """Satisfiability by fragment: rule-wise closure for non-recursive
    queries, the full-instance test for positive datalog."""
    flags = classify(program)
    if flags.is_ucq:
        return sat_ucqneg(program)
    if flags.is_positive_datalog:
        return sat_datalog_positive(program)
    raise Unsupported("satisfiability for recursive programs with negation is not decided here")


# ---------------------------------------------------------------------------
# Repair existence


def ma_dec(program: Program, instance: Instance, target: tuple[str, ...]) -> bool:
    """Does any repair exist for this query and target?

    The instance is irrelevant to existence (any satisfying instance J
    induces the repair Ins = J \\ I, Del = I \\ J), so it is only checked
    against the program, then set aside.
    """
    _check_instance(program, instance.facts)
    return sat_query(specialize(program, target)).satisfiable

"""Brute-force references that share no code with ``dlrepair.engine`` or
the label search.

``reference_answers`` is a datalog evaluator.  Every round grounds each
rule with every assignment of its variables over the active domain
(``itertools.product``), checks each body literal directly against the
facts known so far, and adds the heads of the assignments that satisfy the
body; rounds repeat until one derives nothing new.  It is exponential in
the number of variables per rule, so it only suits small programs: it is
the reference the engine's fixpoints are compared against.

``least_relabelling_by_permutations`` tries every map of an update's fresh
constants onto the least fresh names: the reference for
``repair._least_relabelling``.

``brute_force_repair`` solves a one-rule query by trying every assignment
of its non-head variables over the search domain and keeping the least
repair that one induces (``repair_for_assignment``): the reference for the
single-rule solvers.
"""

from __future__ import annotations

import itertools

from dlrepair.model import Comparison, Instance, Program, canonical_key, update_size
from dlrepair.repair import SearchDomain, repair_for_assignment


def reference_answers(program: Program, instance: Instance) -> dict[str, frozenset[tuple[str, ...]]]:
    """Every derived relation of the least fixpoint, as sets of tuples."""
    known = {(f.relation, f.args) for f in instance.facts}
    domain = sorted(program.constants() | instance.constants())
    while True:
        new = set()
        for rule in program.rules:
            names = sorted(rule.all_vars)
            for values in itertools.product(domain, repeat=len(names)):
                g = dict(zip(names, values))

                def value(term):
                    return g[term.name] if term.is_variable else term.name

                def holds(lit):
                    if isinstance(lit, Comparison):
                        return lit.holds(value(lit.left), value(lit.right))
                    return ((lit.relation, tuple(map(value, lit.args))) in known) == lit.positive

                if all(map(holds, rule.body)):
                    new.add((rule.head, tuple(map(value, rule.head_args))))
        if new <= known:
            break
        known |= new
    return {sym: frozenset(args for rel, args in known if rel == sym) for sym in program.idb}


def least_relabelling_by_permutations(ins, dels, names, fresh):
    """The least ``(sorted insertions, deletions)`` key over every map of the
    fresh constants of ``ins`` onto the least ``names``, and the first map,
    in permutation order, that gives it."""
    moved = sorted({a for _, args in ins for a in args if a in fresh})
    key = rho = None
    for perm in itertools.permutations(names[: len(moved)]):
        r = dict(zip(moved, perm))
        k = (tuple(sorted((rel, tuple(r.get(a, a) for a in args)) for rel, args in ins)), dels)
        if key is None or k < key:
            key, rho = k, r
    return key, rho


def brute_force_repair(program: Program, instance: Instance, target: tuple[str, ...]):
    """Least (size, canonical key) repair over every assignment of the
    search domain to the one rule's non-head variables, or None."""
    (rule,) = program.rules
    binding = {}
    for term, value in zip(rule.head_args, target):
        if binding.setdefault(term.name, value) != value:
            return None
    names = sorted(rule.bound_vars)
    domain = SearchDomain.for_ucq(program, instance, target).constants
    best = None
    for values in itertools.product(domain, repeat=len(names)):
        update = repair_for_assignment(rule, {**binding, **dict(zip(names, values))}, instance)
        if update is not None and (best is None or (update_size(update), canonical_key(update)) < best[0]):
            best = ((update_size(update), canonical_key(update)), update)
    return None if best is None else best[1]

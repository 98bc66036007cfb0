"""Acceptance suite.

Each test covers one numbered acceptance criterion, prints one PASS line
(visible with ``pytest -s``), and pins both the exactness requirement and
the wall-clock bound.  Criterion 11 records what is deliberately *not*
checked: asymptotic worst-case behaviour is a complexity classification,
not something a desk-scale test can reproduce, and the budget-capped
solver for recursive programs with negation is documented as incomplete
(no finite per-program repair bound is computed).
"""

import random
import time

from dlrepair import (
    Instance,
    SearchDomain,
    apply_update,
    eval_datalog,
    eval_datalog_naive,
    eval_member,
    exact_cover,
    extract_h,
    generate,
    ma_bound,
    ma_dec,
    ma_min,
    ma_min_datalog_positive,
    ma_min_join_free,
    ma_min_projection_free,
    ma_min_ucqneg,
    ma_size,
    make_program,
    oracle_ma_min,
    parse_instance,
    parse_program,
    reduce_f,
    rename,
    sat_ucqneg,
    specialize,
    update_size,
)
from dlrepair import Fact, Update
from randgen import (
    UNARY_SCHEMA,
    planted_input,
    random_cqneg_rule,
    random_datalog_instance,
    random_datalog_program,
    random_instance,
    random_join_free_rule,
    random_projection_free_rule,
    random_renaming,
    random_target,
    random_ucqneg_program,
)
from reference import brute_force_repair

TRIANGLE = parse_program("s(X,Y,Z) :- r(X,Y), r(Y,Z), !r(Z,X).")


def _report(criterion: int, label: str, started: float, bound: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {criterion:02d} ({label}): {elapsed:.2f}s (bound {bound:.0f}s)")
    assert elapsed < bound, f"criterion {criterion} exceeded its {bound}s bound ({elapsed:.2f}s)"


def _rule_bound(program) -> int:
    return max(r.positive_count() + r.negative_count() for r in program.rules)


# ---------------------------------------------------------------------------
# Shared input streams (criterion 7 re-checks the inputs of criteria 1-4)


def criterion2_inputs():
    rng = random.Random(1002)
    for _ in range(500):
        arity = rng.randint(0, 2)
        rule = random_cqneg_rule(rng, arity, max_literals=5, max_vars=4)
        program = make_program([rule], "ans")
        instance = random_instance(rng, max_facts=8)
        target = random_target(rng, arity)
        yield program, instance, target


def criterion3_inputs():
    rng = random.Random(1003)
    for _ in range(150):
        yield planted_input(rng, max_vars=3)
    for _ in range(130):
        program = random_ucqneg_program(
            rng, max_rules=2, max_literals=3, max_vars=3, max_arity=1,
            consts=("a", "b", "c"), schema=UNARY_SCHEMA,
        )
        instance = random_instance(rng, max_facts=6, consts=("a", "b", "c"), schema=UNARY_SCHEMA)
        yield program, instance, random_target(rng, program.arity, ("a", "b", "c"))
    for _ in range(20):
        program = random_ucqneg_program(rng, max_rules=2, max_literals=3, max_vars=2, consts=("a", "b"))
        instance = random_instance(rng, max_facts=4, consts=("a", "b"))
        yield program, instance, random_target(rng, program.arity, ("a", "b"))


def criterion4_inputs():
    rng = random.Random(1004)
    for _ in range(300):
        rule = random_projection_free_rule(rng)
        instance = random_instance(rng)
        target = random_target(rng, len(rule.head_args))
        yield "projection_free", rule, instance, target
    for _ in range(300):
        rule = random_join_free_rule(rng)
        instance = random_instance(rng)
        target = random_target(rng, len(rule.head_args))
        yield "join_free", rule, instance, target


def test_criterion_01_worked_example():
    started = time.perf_counter()
    instance = parse_instance("r(3,1).")
    result = ma_min(TRIANGLE, instance, ("1", "2", "3"))
    assert result.status == "found" and result.size == 3
    assert len(result.repair.insertions) == 2 and len(result.repair.deletions) == 1
    assert ma_min(TRIANGLE, instance, ("1", "1", "1")).status == "no_repair"
    assert ma_min(TRIANGLE, parse_instance("r(1,2). r(2,3)."), ("1", "2", "3")).size == 0
    _report(1, "worked example", started, 1)


def test_criterion_02_per_rule_size_bound():
    started = time.perf_counter()
    checked = 0
    for program, instance, target in criterion2_inputs():
        result = ma_min_ucqneg(program, instance, target)
        if result.status == "found":
            rule = program.rules[0]
            assert result.size <= rule.positive_count() + rule.negative_count()
            checked += 1
    assert checked > 100  # the generator must actually produce repairable inputs
    _report(2, f"size bound on {checked} found repairs", started, 30)


def test_criterion_03_oracle_equivalence():
    started = time.perf_counter()
    count = 0
    for program, instance, target in criterion3_inputs():
        domain = SearchDomain.for_ucq(program, instance, target)
        oracle = oracle_ma_min(program, instance, target, domain, _rule_bound(program))
        solver = ma_min_ucqneg(program, instance, target)
        # Both break ties by canonical order, so the repairs themselves
        # agree, not only their sizes; the oracle's budget bounds every
        # minimal repair, so its exhaustion means no repair exists.
        expected = (oracle.status, oracle.repair) if oracle.status == "found" else ("no_repair", None)
        assert (solver.status, solver.repair) == expected, (program, instance, target)
        count += 1
    assert count == 300
    _report(3, "oracle equivalence on 300 inputs", started, 60)


def test_criterion_04_single_rule_solvers_match_brute_force():
    started = time.perf_counter()
    for kind, rule, instance, target in criterion4_inputs():
        repair = brute_force_repair(make_program([rule], "ans", validate=False), instance, target)
        expected = ("no_repair", None) if repair is None else ("found", repair)
        solve = ma_min_projection_free if kind == "projection_free" else ma_min_join_free
        result = solve(rule, instance, target)
        assert (result.status, result.repair) == expected, (kind, rule, instance, target)
    _report(4, "600 single-rule inputs against brute force", started, 60)


def test_criterion_05_set_cover_exactness_and_strictness():
    started = time.perf_counter()
    rng = random.Random(1005)
    for _ in range(100):
        cover = generate(
            rng.randrange(10**6), rng.randint(1, 6), rng.randint(1, 6), rng.choice((0.3, 0.5, 0.7))
        )
        program, instance, target = reduce_f(cover)
        optimum = len(exact_cover(cover))
        found = ma_min(program, instance, target)
        assert found.status == "found" and found.size == optimum
        assert len(extract_h(cover, found.repair)) <= found.size
        for _ in range(10):
            padding = set(found.repair.insertions)
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    padding.add(Fact("p", (f"pad{rng.randrange(8)}",)))
                else:
                    padding.add(Fact("f", (f"pad{rng.randrange(8)}", rng.choice(target))))
            padded = Update(frozenset(padding), found.repair.deletions)
            assert eval_member(program, apply_update(instance, padded), target)
            assert len(extract_h(cover, padded)) <= update_size(padded)
    _report(5, "100 covers, exactness and strictness", started, 120)


def test_criterion_06_decision_matches_satisfiability():
    started = time.perf_counter()
    rng = random.Random(1006)
    for _ in range(200):
        program = random_ucqneg_program(rng)
        target = random_target(rng, program.arity)
        decision = ma_dec(program, Instance.of(), target)
        sat_result = sat_ucqneg(specialize(program, target))
        assert decision == sat_result.satisfiable
        if sat_result.satisfiable:
            assert eval_member(program, sat_result.witness, target)
        # independent route: the exhaustive solver agrees
        assert decision == (ma_min_ucqneg(program, Instance.of(), target).status == "found")
    _report(6, "200 decision/satisfiability round trips", started, 30)


def test_criterion_07_eval_linkage():
    started = time.perf_counter()
    inputs = list(criterion2_inputs()) + list(criterion3_inputs())
    for program, instance, target in inputs:
        member = eval_member(program, instance, target)
        assert (ma_size(program, instance, target) == 0) == member
        assert ma_bound(program, instance, target, 0) == member
    instance = parse_instance("r(3,1).")
    assert ma_bound(TRIANGLE, instance, ("1", "2", "3"), 0) == eval_member(
        TRIANGLE, instance, ("1", "2", "3")
    )
    _report(7, f"eval linkage on {len(inputs) + 1} inputs", started, 60)


def test_criterion_08_genericity_of_repair_size():
    started = time.perf_counter()
    rng = random.Random(1008)
    for _ in range(100):
        program = random_ucqneg_program(rng)
        instance = random_instance(rng)
        target = random_target(rng, program.arity)
        fixed = set(program.constants()) | set(target)
        rho = random_renaming(rng, fixed, set(instance.constants()))
        renamed = rename(instance, rho)
        assert ma_size(program, renamed, target) == ma_size(program, instance, target)
    _report(8, "100 renamed instances", started, 30)


def test_criterion_09_monotone_repairs_never_delete():
    started = time.perf_counter()
    rng = random.Random(1009)
    for _ in range(150):
        program = random_ucqneg_program(rng, negation=False)
        instance = random_instance(rng)
        target = random_target(rng, program.arity)
        result = ma_min_ucqneg(program, instance, target)
        if result.status == "found":
            assert not result.repair.deletions
    for _ in range(30):
        program = random_datalog_program(rng, semipositive=False)
        instance = random_datalog_instance(rng, max_facts=6)
        target = random_target(rng, program.arity, ("a", "b", "c"))
        result = ma_min_datalog_positive(program, instance, target)
        if result.status == "found":
            assert not result.repair.deletions
    _report(9, "negation-free and positive-datalog repairs", started, 60)


def test_criterion_10_datalog_fixpoints_and_repair():
    started = time.perf_counter()
    rng = random.Random(1010)
    for _ in range(100):
        program = random_datalog_program(rng, semipositive=rng.random() < 0.5)
        instance = random_datalog_instance(rng)
        assert eval_datalog(program, instance) == eval_datalog_naive(program, instance)
    tc = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z). @answer t.")
    result = ma_min_datalog_positive(tc, parse_instance("e(a,b)."), ("a", "c"))
    assert result.status == "found" and result.size == 1
    _report(10, "100 fixpoint pairs + closure repair", started, 60)


def test_criterion_11_out_of_scope_items_are_documented():
    # Worst-case complexity classifications are not measurable at this
    # scale, and the budget-capped solver is deliberately incomplete; the
    # README carries both caveats instead of a test.
    from pathlib import Path

    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text().lower()
    assert "budget" in text
    print("PASS criterion 11 (out-of-scope caveats documented)")

import itertools
import random

import pytest

from dlrepair import (
    Instance,
    NotPositiveDatalog,
    NotUcq,
    RelLiteral,
    Rule,
    Unsupported,
    eval_answers,
    eval_member,
    fresh_constants,
    ma_dec,
    ma_min,
    ma_min_ucqneg,
    oracle_ma_min,
    parse_program,
    repair_for_assignment,
    sat_cqneg,
    sat_datalog_positive,
    sat_query,
    sat_ucqneg,
    specialize,
    var,
)
from dlrepair.engine import _plan
from dlrepair.model import body_terms
from randgen import random_instance, random_target, random_ucqneg_program

TRIANGLE = parse_program("s(X,Y,Z) :- r(X,Y), r(Y,Z), !r(Z,X).")


def satisfiable_by_search(rule) -> bool:
    """Whether some assignment, over the rule's constants and one fresh
    constant per variable, induces an update of the empty instance.  Any
    satisfying assignment renames onto one of these, so the search is
    exhaustive."""
    names = sorted(rule.all_vars)
    constants = sorted({t.name for t in body_terms(rule.body) if not t.is_variable})
    domain = constants + list(fresh_constants(len(names), constants))
    return any(
        repair_for_assignment(rule, dict(zip(names, values)), Instance.of()) is not None
        for values in itertools.product(domain, repeat=len(names))
    )


class TestSatCqneg:
    def test_atom_positive_and_negative(self):
        rule = parse_program("ans() :- r(X,X), !r(X,X).").rules[0]
        assert not sat_cqneg(rule).satisfiable

    def test_inequality_witness(self):
        rule = parse_program("ans() :- r(X,Y), X != Y.").rules[0]
        result = sat_cqneg(rule)
        assert result.satisfiable
        assert {(f.relation, f.args) for f in result.witness.facts} == {("r", ("_c0", "_c1"))}

    def test_equality_closure_merges_constants(self):
        rule = parse_program("ans() :- X = a, X = b, r(X,X).").rules[0]
        assert not sat_cqneg(rule).satisfiable

    def test_inequality_within_one_class(self):
        rule = parse_program("ans() :- r(X,Y), X = Y, X != Y.").rules[0]
        assert not sat_cqneg(rule).satisfiable

    def test_fresh_constants_follow_body_order(self):
        """Plan slots are numbered head first, so the head's order of
        variables must not number the fresh constants."""
        for text, expected in [
            ("ans(Z,Y) :- r(Y,Z), s(Z,W).", {("r", ("_c0", "_c1")), ("s", ("_c1", "_c2"))}),
            ("ans(Y) :- r(X,Y), X = a, s(Y,Z), Z != Y.", {("r", ("a", "_c0")), ("s", ("_c0", "_c1"))}),
            (
                "ans(W,X) :- r(X,Y), X = Y, s(Y,W), t(W,c0).",
                {("r", ("_c0", "_c0")), ("s", ("_c0", "_c1")), ("t", ("_c1", "c0"))},
            ),
        ]:
            result = sat_cqneg(parse_program(text).rules[0])
            assert {(f.relation, f.args) for f in result.witness.facts} == expected, text

    def test_witness_passes_evaluation(self):
        from dlrepair import Program

        rng = random.Random(21)
        for _ in range(80):
            program = random_ucqneg_program(rng)
            boolean = specialize(program, random_target(rng, program.arity))
            for rule in boolean.rules:
                result = sat_cqneg(rule)
                if result.satisfiable:
                    q = Program((rule,), rule.head, dict(boolean.schema))
                    assert eval_answers(q, result.witness).tuples


    def test_agrees_with_exhaustive_search(self):
        """Every rule of 400 random unions, half reading one relation
        several times, and of their copies pinned to a random target."""
        rng = random.Random(27)
        rules = []
        for n in range(400):
            program = random_ucqneg_program(rng, repeat=0.5 if n % 2 else 0.0)
            rules.extend(program.rules)
            rules.extend(specialize(program, random_target(rng, program.arity)).rules)
        verdicts = set()
        for rule in rules:
            expected = satisfiable_by_search(rule)
            verdicts.add(expected)
            assert sat_cqneg(rule).satisfiable == expected, rule
            assert (_plan(rule, frozenset()) is not None) == expected, rule
        assert verdicts == {True, False}

    def test_a_plan_exists_iff_no_literal_clashes(self):
        """A negated literal clashes with a positive one over the same
        classes, ground or not.  ``ans :- r(X), !r(Y).`` is unsafe, so it
        is built from model values and planned without the engine's
        safety check."""
        X, Y = var("X"), var("Y")
        unsafe = Rule("ans", (), (RelLiteral("r", (X,)), RelLiteral("r", (Y,), False)))
        for rule, holds in [
            (parse_program("ans :- r(X), !r(X).").rules[0], False),
            (parse_program("ans :- r(X,Y), X = Y, !r(Y,X).").rules[0], False),
            (parse_program("ans :- r(X), p(Y), !r(Y).").rules[0], True),
            (unsafe, True),
        ]:
            assert (_plan(rule, frozenset()) is not None) == holds
            assert sat_cqneg(rule).satisfiable == holds
            if rule is not unsafe:
                assert (_plan(rule) is not None) == holds


class TestSatUcqneg:
    def test_first_satisfiable_rule_wins(self):
        program = parse_program("ans() :- r(X,X), !r(X,X). ans() :- r(X,Y).")
        result = sat_ucqneg(program)
        assert result.satisfiable
        assert eval_member(program, result.witness, ())

    def test_all_rules_unsat(self):
        program = parse_program("ans() :- r(X,X), !r(X,X). ans() :- p(X), !p(X).")
        assert not sat_ucqneg(program).satisfiable

    def test_rejects_recursion(self):
        program = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z). @answer t.")
        with pytest.raises(NotUcq, match="needs a non-recursive query"):
            sat_ucqneg(program)

    def test_open_rule(self):
        program = parse_program("ans(X) :- r(X,Y).")
        result = sat_ucqneg(program)
        assert result.satisfiable
        assert {(f.relation, f.args) for f in result.witness.facts} == {("r", ("_c0", "_c1"))}
        assert eval_answers(program, result.witness).tuples


class TestSatDatalogPositive:
    def test_transitive_closure(self):
        program = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z). @answer t.")
        result = sat_datalog_positive(program)
        assert result.satisfiable
        assert eval_answers(program, result.witness).tuples

    def test_boolean_join_on_fresh_constant(self):
        program = parse_program("ans :- e(X,Y), f(Y,X). @answer ans.")
        result = sat_datalog_positive(program)
        assert result.satisfiable
        # witness is the full instance over one fresh constant
        assert {(f.relation, f.args) for f in result.witness.facts} == {
            ("e", ("_c0", "_c0")),
            ("f", ("_c0", "_c0")),
        }

    def test_rejects_negation(self):
        with pytest.raises(NotPositiveDatalog):
            sat_datalog_positive(parse_program("ans(X) :- e(X), !u(X)."))


class TestSatQuery:
    def test_routes_non_recursive_query_to_closure(self):
        program = parse_program("ans(X) :- r(X,Y).")
        assert sat_query(program) == sat_ucqneg(program)

    def test_routes_positive_datalog_to_full_instance(self):
        program = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z). @answer t.")
        assert sat_query(program) == sat_datalog_positive(program)

    def test_unsupported_for_recursion_with_negation(self):
        program = parse_program("t(X) :- e(X). t(X) :- f(X,Y), t(Y), !u(X). @answer t.")
        with pytest.raises(Unsupported):
            sat_query(program)


class TestMaDec:
    def test_conflicting_target(self):
        assert not ma_dec(TRIANGLE, Instance.of(), ("1", "1", "1"))

    def test_feasible_target(self):
        assert ma_dec(TRIANGLE, Instance.of(), ("1", "2", "3"))

    def test_instance_is_irrelevant(self):
        loaded = Instance.of()
        from dlrepair import Fact

        other = Instance.of([Fact("r", ("1", "1"))])
        assert ma_dec(TRIANGLE, loaded, ("1", "2", "3")) == ma_dec(TRIANGLE, other, ("1", "2", "3"))

    def test_boolean_satisfiable_query_on_empty_instance(self):
        program = parse_program("ans() :- r(X,Y).")
        assert ma_dec(program, Instance.of(), ())

    def test_positive_datalog_route(self):
        program = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z). @answer t.")
        assert ma_dec(program, Instance.of(), ("a", "b"))

    def test_unsupported_for_recursion_with_negation(self):
        program = parse_program("t(X) :- e(X). t(X) :- f(X,Y), t(Y), !u(X). @answer t.")
        with pytest.raises(Unsupported):
            ma_dec(program, Instance.of(), ("a",))

    def test_repeated_head_variable_specialization(self):
        program = parse_program("ans(X,X) :- r(X,Y).")
        assert ma_dec(program, Instance.of(), ("a", "a"))
        assert not ma_dec(program, Instance.of(), ("a", "b"))

    def test_comparison_only_rule(self):
        program = parse_program("ans() :- a != b.")
        result = sat_ucqneg(program)
        assert result.satisfiable and len(result.witness) == 0
        assert eval_member(program, result.witness, ())
        assert not sat_ucqneg(parse_program("ans() :- a = b.")).satisfiable

    def test_datalog_route_with_helper_rules(self):
        reachable = parse_program("h(X) :- e(X,Y). ans(X) :- h(X), u(X). @answer ans.")
        assert ma_dec(reachable, Instance.of(), ("a",))
        dead_helper = parse_program("h(X) :- e(X,Y), X = a, X = b. ans(X) :- h(X). @answer ans.")
        assert not ma_dec(dead_helper, Instance.of(), ("c",))

    def test_agrees_with_exhaustive_repair_search(self):
        rng = random.Random(22)
        for _ in range(80):
            program = random_ucqneg_program(rng)
            instance = random_instance(rng)
            target = random_target(rng, program.arity)
            found = ma_min_ucqneg(program, instance, target).status == "found"
            assert ma_dec(program, instance, target) == found

    def test_answer_predicate_read_by_a_rule_body(self):
        program = parse_program("t(X) :- a(X), X = c. t(X) :- t(Y), e(Y,X).")
        assert ma_dec(program, Instance.of(), ("d",))
        assert ma_min(program, Instance.of(), ("d",)).size == 2
        specialized = specialize(program, ("d",))
        assert set(program.rules) <= set(specialized.rules)

    def test_transitive_closure_with_answer_directive(self):
        closure = parse_program(
            "h(X,Y) :- e(X,Y), X = a. t(X,Y) :- h(X,Y). t(X,Z) :- t(X,Y), e(Y,Z). @answer t."
        )
        pinned = parse_program("ans(X) :- r(X), X = a. r(X) :- s(X).")
        for program, target, exists in [
            (closure, ("a", "d"), True),
            (closure, ("b", "d"), False),
            (pinned, ("b",), False),
        ]:
            assert ma_dec(program, Instance.of(), target) == exists
            assert (ma_min(program, Instance.of(), target).status == "found") == exists
        # The oracle's default pool, s over a, b and one fresh constant, fits
        # in its default budget, so exhausting it proves that no repair exists.
        assert oracle_ma_min(pinned, Instance.of(), ("b",)).status == "no_repair"

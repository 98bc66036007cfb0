import itertools
import random

import pytest

from dlrepair import (
    AnswerSet,
    ArityMismatch,
    Fact,
    Instance,
    RelLiteral,
    Rule,
    eval_answers,
    eval_datalog,
    eval_datalog_naive,
    eval_member,
    ma_min,
    make_program,
    parse_instance,
    parse_program,
    rename,
    var,
)
from dlrepair import engine
from randgen import (
    random_datalog_instance,
    random_datalog_program,
    random_instance,
    random_renaming,
    random_target,
    random_ucqneg_program,
)
from reference import reference_answers

TRIANGLE = parse_program("s(X,Y,Z) :- r(X,Y), r(Y,Z), !r(Z,X).")
TC = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z). @answer t.")


class TestEvalMember:
    def test_two_hops_with_open_return(self):
        instance = parse_instance("r(1,2). r(2,3).")
        assert eval_member(TRIANGLE, instance, ("1", "2", "3"))

    def test_closed_return_violates_negation(self):
        instance = parse_instance("r(1,2). r(2,3). r(3,1).")
        assert not eval_member(TRIANGLE, instance, ("1", "2", "3"))

    def test_transitive_closure_member(self):
        assert eval_member(TC, parse_instance("e(a,b). e(b,c)."), ("a", "c"))

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            eval_member(TRIANGLE, Instance.of(), ("1", "2"))

    def test_a_reachable_target_stops_the_fixpoint_at_the_goal(self, monkeypatch):
        """On a 300-edge path, the pinned copy of the base rule derives the
        goal in the first round, so membership fires two rules where the
        whole fixpoint fires 604.  A false answer still needs the whole
        fixpoint, and ``eval_datalog`` never stops early."""
        program = parse_program("t(X,Y) :- e(X,Y). t(X,Y) :- t(X,Z), e(Z,Y), !blocked(Z). @answer t.")
        instance = Instance.of(Fact("e", (f"v{i}", f"v{i + 1}")) for i in range(300))
        calls, rule_solutions = [], engine.rule_solutions

        def counting(*args, **kwargs):
            calls.append(None)
            return rule_solutions(*args, **kwargs)

        monkeypatch.setattr(engine, "rule_solutions", counting)
        assert eval_member(program, instance, ("v0", "v1"))
        assert len(calls) <= 4
        assert not eval_member(program, instance, ("v1", "v0"))
        assert len(eval_datalog(program, instance)["t"].tuples) == 300 * 301 // 2


class TestUnsafeRules:
    # ans(X) :- p(X), !q(X,Y).  Y occurs only under negation.
    PROGRAM = make_program(
        [
            Rule(
                "ans",
                (var("X"),),
                (RelLiteral("p", (var("X"),)), RelLiteral("q", (var("X"), var("Y")), positive=False)),
            )
        ],
        validate=False,
    )

    def test_member_raises(self):
        with pytest.raises(ValueError, match="unsafe rule"):
            eval_member(self.PROGRAM, parse_instance("p(a)."), ("a",))

    def test_answers_raise(self):
        with pytest.raises(ValueError, match="unsafe rule"):
            eval_answers(self.PROGRAM, parse_instance("p(a)."))

    def test_rule_whose_head_cannot_take_the_target_is_not_checked(self):
        # ans(X,X) :- p(X), !q(X,Y).  No assignment gives the head (a,b).
        program = make_program([Rule("ans", (var("X"), var("X")), self.PROGRAM.rules[0].body)], validate=False)
        assert not eval_member(program, parse_instance("p(a)."), ("a", "b"))
        with pytest.raises(ValueError, match="unsafe rule"):
            eval_member(program, parse_instance("p(a)."), ("a", "a"))

    # t(X,Y) :- e(X,Y).  t(X,Y) :- t(X,Z), e(Z,Y).  ans(X) :- t(A1,A2), !u(X).
    # The answer rule's head variable occurs only under negation.  Its copy
    # pinned to a target is safe, but a datalog program's rules must be safe
    # as written.
    DATALOG = make_program(
        parse_program("t(X,Y) :- e(X,Y). t(X,Y) :- t(X,Z), e(Z,Y).").rules
        + (Rule("ans", (var("X"),), (RelLiteral("t", (var("A1"), var("A2"))), RelLiteral("u", (var("X"),), False))),),
        "ans",
        validate=False,
    )

    def test_datalog_member_and_repair_raise(self):
        instance = parse_instance("e(a,b). u(c).")
        with pytest.raises(ValueError, match="unsafe rule"):
            eval_member(self.DATALOG, instance, ("a",))
        with pytest.raises(ValueError, match="unsafe rule"):
            ma_min(self.DATALOG, instance, ("a",))
        # No repair fits budget 0, so only the search's own check can raise.
        with pytest.raises(ValueError, match="unsafe rule"):
            ma_min(self.DATALOG, instance, ("c",), budget=0)


class TestEvalDatalog:
    def test_transitive_closure(self):
        # Frozen expected value: one round derives (a,b),(b,c); the next
        # composes e(a,b) with t(b,c) into (a,c); nothing new after that.
        result = eval_datalog(TC, parse_instance("e(a,b). e(b,c)."))
        assert result["t"].tuples == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_negated_extensional_filter(self):
        program = parse_program("ans(X) :- v(X), !bad(X).")
        result = eval_datalog(program, parse_instance("v(a). v(b). bad(b)."))
        assert result["ans"].tuples == {("a",)}

    def test_empty_instance_empty_fixpoint(self):
        result = eval_datalog(TC, Instance.of())
        assert result["t"].tuples == frozenset()

    def test_idb_named_fact_rejected(self):
        with pytest.raises(ValueError):
            eval_datalog(TC, Instance.of([Fact("t", ("a", "b"))]))

    def test_equality_bound_rule(self):
        program = parse_program("ans(X) :- u(Y), X = c. @answer ans.")
        result = eval_datalog(program, parse_instance("u(a)."))
        assert result["ans"].tuples == {("c",)}

    def test_negated_idb_rejected(self):
        # Unreachable through the parser; guards programmatically built programs.
        from dlrepair import Program, RelLiteral, Rule, var
        from dlrepair.engine import NotDatalog

        rules = (
            Rule("t", (var("X"),), (RelLiteral("e", (var("X"),)),)),
            Rule("ans", (var("X"),), (RelLiteral("e", (var("X"),)), RelLiteral("t", (var("X"),), False))),
        )
        program = Program(rules, "ans", {"e": 1})
        with pytest.raises(NotDatalog):
            eval_datalog(program, Instance.of())


class TestEvalAnswers:
    def test_projection(self):
        program = parse_program("ans(X) :- r(X,Y).")
        answers = eval_answers(program, parse_instance("r(a,b). r(c,b)."))
        assert answers == AnswerSet("ans", frozenset({("a",), ("c",)}))

    def test_boolean(self):
        program = parse_program("ans :- r(X,X).")
        assert eval_answers(program, parse_instance("r(a,a).")).tuples == {()}

    def test_negation_restricts(self):
        # Frozen by enumerating assignments over {a,b} by hand: only X=a,Y=b
        # satisfies r(X,Y) with r(Y,X) absent.
        program = parse_program("ans(X) :- r(X,Y), !r(Y,X).")
        answers = eval_answers(program, parse_instance("r(a,b)."))
        assert answers.tuples == {("a",)}


class TestReferenceEvaluator:
    """The engine against a brute-force evaluator that shares none of its
    code: random datalog and non-recursive programs, plus rules whose
    equality atoms the engine folds into one value per class."""

    EDGE_RULES = (
        "ans(X) :- r(X,X).",
        "ans(X) :- r(X,Z), X = Y, Y = a.",
        "ans(X) :- p(X), X = a, X = b.",
        "ans(X,Y) :- r(Y,Z), X = a.",
        "ans(X) :- r(X,Y), Y = Y.",
        "ans(X) :- r(X,Y), X = Y, Y != X.",
        # A fact needed both present and absent: the rule has no plan.
        "ans(X) :- p(X), r(a,a), !r(a,a).",
        # Recursive literals after a comparison or a negated literal, so that
        # their lookup number (among the positive literals) differs from
        # their body position.  In the u rules, a semi-naive delta read at
        # the step of the other numbering would stand in for r.
        "t(X,Y) :- r(X,Y). t(X,Y) :- X != Y, !p(X), t(X,Z), r(Z,Y). @answer t.",
        "u(X) :- p(X). u(Y) :- X != Y, u(X), r(X,Y). u(Y) :- X != Y, r(X,Y), u(X). @answer u.",
    )

    @staticmethod
    def inputs():
        rng = random.Random(15)
        for _ in range(60):
            program = random_datalog_program(rng, semipositive=rng.random() < 0.5)
            yield program, random_datalog_instance(rng)
        for _ in range(60):
            yield random_ucqneg_program(rng), random_instance(rng)
        for text in TestReferenceEvaluator.EDGE_RULES:
            for _ in range(10):
                yield parse_program(text), random_instance(rng)

    def test_engine_matches_reference(self):
        for program, instance in self.inputs():
            reference = reference_answers(program, instance)
            expected = {sym: AnswerSet(sym, tuples) for sym, tuples in reference.items()}
            assert eval_datalog(program, instance) == expected, (program, instance)
            assert eval_datalog_naive(program, instance) == expected, (program, instance)
            domain = sorted(program.constants() | instance.constants()) + ["z"]
            for target in itertools.product(domain, repeat=program.arity):
                member = target in expected[program.answer].tuples
                assert eval_member(program, instance, target) == member, (program, instance, target)


class TestFixpointProperties:
    def test_seminaive_equals_naive(self):
        rng = random.Random(11)
        for _ in range(60):
            program = random_datalog_program(rng, semipositive=rng.random() < 0.5)
            instance = random_datalog_instance(rng)
            assert eval_datalog(program, instance) == eval_datalog_naive(program, instance)

    def test_monotone_without_negation(self):
        rng = random.Random(12)
        for _ in range(40):
            program = random_ucqneg_program(rng, negation=False)
            smaller = random_instance(rng, max_facts=5)
            larger = Instance(smaller.facts | random_instance(rng, max_facts=4).facts)
            a = eval_answers(program, smaller).tuples
            b = eval_answers(program, larger).tuples
            assert a <= b

    def test_member_iff_in_answers(self):
        rng = random.Random(13)
        for _ in range(60):
            program = random_ucqneg_program(rng)
            instance = random_instance(rng)
            target = random_target(rng, program.arity)
            member = eval_member(program, instance, target)
            assert member == (target in eval_answers(program, instance).tuples)

    def test_genericity_of_answers(self):
        rng = random.Random(14)
        for _ in range(40):
            program = random_ucqneg_program(rng)
            instance = random_instance(rng)
            rho = random_renaming(rng, set(program.constants()), set(instance.constants()))
            expected = frozenset(rename(t, rho) for t in eval_answers(program, instance).tuples)
            assert eval_answers(program, rename(instance, rho)).tuples == expected

import functools
import itertools
import random
import time

import pytest

from dlrepair import (
    ArityMismatch,
    Comparison,
    Fact,
    Instance,
    NotJoinFree,
    NotPositiveDatalog,
    NotProjectionFree,
    NotUcq,
    PartialAssignment,
    Program,
    RelLiteral,
    Rule,
    SearchDomain,
    Update,
    apply_update,
    const,
    eval_member,
    ma_bound,
    ma_min,
    ma_min_datalog_positive,
    ma_min_join_free,
    ma_min_projection_free,
    ma_min_spdatalog,
    ma_min_ucqneg,
    ma_size,
    ma_dec,
    make_program,
    oracle_ma_min,
    parse_instance,
    parse_program,
    repair_for_assignment,
    specialize,
    var,
)
from dlrepair.model import fresh_constants
from dlrepair.repair import DEFAULT_SP_BUDGET, _enumerate_updates, _least_relabelling
from randgen import (
    planted_input,
    random_cqneg_rule,
    random_datalog_instance,
    random_datalog_program,
    random_instance,
    random_projection_free_rule,
    random_target,
    random_ucqneg_program,
)
from reference import brute_force_repair, least_relabelling_by_permutations, reference_answers

TRIANGLE = parse_program("s(X,Y,Z) :- r(X,Y), r(Y,Z), !r(Z,X).")


def facts(*texts):
    out = []
    for t in texts:
        rel, _, rest = t.partition("(")
        out.append(Fact(rel, tuple(rest.rstrip(")").split(",")) if rest else ()))
    return out


def assert_sound(program, instance, target, result):
    assert result.status == "found"
    assert eval_member(program, apply_update(instance, result.repair), target)


def assert_reference_repair(program, instance, target, result):
    """A found repair puts the target into the answer of the brute-force
    reference evaluator, which shares no code with the solvers."""
    if result.status == "found":
        repaired = apply_update(instance, result.repair)
        assert target in reference_answers(program, repaired)[program.answer], (program, instance, target)


def count_rankings(monkeypatch):
    """A list that grows by one each time the label search ranks a goal
    label, by wrapping ``_least_relabelling``."""
    calls = []

    def counting(*args):
        calls.append(args)
        return _least_relabelling(*args)

    monkeypatch.setattr("dlrepair.repair._least_relabelling", counting)
    return calls


class TestRepairForAssignment:
    def test_insert_only(self):
        rule = parse_program("ans(X,Y) :- r(X,Y).").rules[0]
        update = repair_for_assignment(rule, {"X": "a", "Y": "b"}, Instance.of())
        assert update == Update.of(facts("r(a,b)"))

    def test_conflict(self):
        rule = parse_program("ans(X,Y) :- r(X,Y), !r(Y,X).").rules[0]
        assert repair_for_assignment(rule, {"X": "a", "Y": "a"}, Instance.of()) is None

    def test_two_inserts_one_delete(self):
        rule = TRIANGLE.rules[0]
        update = repair_for_assignment(
            rule, {"X": "1", "Y": "2", "Z": "3"}, parse_instance("r(3,1).")
        )
        assert update == Update.of(facts("r(1,2)", "r(2,3)"), facts("r(3,1)"))

    def test_partial_assignment(self):
        rule = TRIANGLE.rules[0]
        with pytest.raises(PartialAssignment):
            repair_for_assignment(rule, {"X": "1"}, Instance.of())

    def test_comparison_failure(self):
        rule = parse_program("ans(X) :- r(X), X != a.").rules[0]
        assert repair_for_assignment(rule, {"X": "a"}, Instance.of()) is None


class TestUcqSolver:
    def test_two_inserts_one_delete(self):
        result = ma_min_ucqneg(TRIANGLE, parse_instance("r(3,1)."), ("1", "2", "3"))
        assert result.size == 3
        assert result.repair == Update.of(facts("r(1,2)", "r(2,3)"), facts("r(3,1)"))
        assert result.witness_assignment == {"X": "1", "Y": "2", "Z": "3"}

    def test_no_repair_on_conflicting_target(self):
        result = ma_min_ucqneg(TRIANGLE, parse_instance("r(3,1)."), ("1", "1", "1"))
        assert result.status == "no_repair"

    def test_already_answered_gives_empty_update(self):
        result = ma_min_ucqneg(TRIANGLE, parse_instance("r(1,2). r(2,3)."), ("1", "2", "3"))
        assert result.size == 0 and result.repair == Update.of()

    def test_union_takes_smallest_rule(self):
        program = parse_program("ans(X) :- r(X,Y), r(Y,X). ans(X) :- p(X).")
        result = ma_min_ucqneg(program, Instance.of(), ("a",))
        assert result.size == 1
        assert result.repair == Update.of(facts("p(a)"))

    def test_deterministic_tie_break(self):
        # Two equal-size repairs; the canonically least insertion wins.
        program = parse_program("ans(X) :- p(X). ans(X) :- q(X).")
        result = ma_min_ucqneg(program, Instance.of(), ("a",))
        assert result.repair == Update.of(facts("p(a)"))

    def test_tied_witness_follows_rule_order(self):
        # Both rules hold with an empty repair; the first rule's witness wins.
        program = parse_program("ans :- p(X), !q(X). ans :- r(X).")
        result = ma_min_ucqneg(program, parse_instance("p(a). r(b)."), ())
        assert result.repair == Update.of()
        assert result.witness_assignment == {"X": "a"}

    def test_free_negated_atom_over_a_large_relation(self):
        # A fresh value keeps !p(Y) true however many p facts are stored.
        rule = Rule("ans", (), (RelLiteral("p", (var("Y"),), False),))
        program = make_program([rule], "ans", validate=False)
        instance = Instance.of(Fact("p", (f"c{j}",)) for j in range(50000))
        started = time.perf_counter()
        result = ma_min_ucqneg(program, instance, ())
        assert time.perf_counter() - started < 2.0
        assert (result.status, result.size) == ("found", 0)

    @pytest.mark.parametrize(
        "query, fact, n, insert, witness",
        [
            ("ans :- r(X,Y).", "v(c{j})", 2000, "r(_c0,_c0)", {"X": "_c0", "Y": "_c0"}),
            ("ans :- r(X,Y), X != Y.", "r(c{j},c{j})", 2000, "r(_c0,_c1)", {"X": "_c0", "Y": "_c1"}),
            ("ans :- r(X,Y,Z), X != Y.", "r(c{j},c{j},c{j})", 1000, "r(_c0,_c1,_c0)", {"X": "_c0", "Y": "_c1", "Z": "_c0"}),
        ],
        ids=["no-fact", "diagonal", "diagonal-arity-3"],
    )
    def test_free_positive_atom_over_many_constants(self, query, fact, n, insert, witness):
        # Each level tries every stored constant at most once per free slot:
        # the constants that no stored fact a literal can still match are
        # interchangeable, so only the first of them are tried.
        instance = parse_instance("".join(fact.format(j=j) + ".\n" for j in range(n)))
        started = time.perf_counter()
        result = ma_min_ucqneg(parse_program(query), instance, ())
        assert time.perf_counter() - started < 2.0
        assert result.repair == Update.of(facts(insert))
        assert result.witness_assignment == witness

    def test_interchangeable_constants_one_per_free_step(self):
        # 1, 2 and 3 match no stored fact of r or a, so they are tried as
        # interchangeable values; X still needs the second of them, since
        # Y takes the first and the least repair is a(1), r(2,1).
        program = parse_program("ans :- r(X,Y), a(Y), X != Y.")
        result = ma_min_ucqneg(program, parse_instance("v(1). v(2). v(3)."), ())
        assert result.repair == Update.of(facts("a(1)", "r(2,1)"))
        assert result.witness_assignment == {"X": "2", "Y": "1"}

    @pytest.mark.parametrize(
        "query, facts_text, target, insert, witness",
        [
            ("ans :- r(Y,Y), s(Y).", "r(a,b). r(c,c). v(d).", (), ("s(c)",), {"Y": "c"}),
            (
                "ans(X) :- r(X,Y), r(Y,Y), s(Y).",
                "r(a,b). r(b,a). r(c,c). v(d).",
                ("a",),
                ("r(a,a)", "s(a)"),
                {"X": "a", "Y": "a"},
            ),
        ],
        ids=["lead-literal", "second-literal"],
    )
    def test_free_slot_repeated_in_a_literal(self, query, facts_text, target, insert, witness):
        # A free step is offered the values that the first literal of each
        # relation reads at the slot's first position: r(a,b) offers Y=a for
        # r(Y,Y), and Y=b for r(X,Y) at X=a.  The cost check must reject
        # both, since r(a,a) and r(b,b) are not stored.
        program, instance = parse_program(query), parse_instance(facts_text)
        result = ma_min_ucqneg(program, instance, target)
        assert result.repair == Update.of(facts(*insert))
        assert result.witness_assignment == witness
        oracle = oracle_ma_min(program, instance, target)
        assert (oracle.status, oracle.repair) == (result.status, result.repair)

    def test_many_tied_goal_labels(self):
        # Every q(cj) gives a size-1 repair p(a,cj); the goal keeps only
        # the least, so the 16,000 ties cost linear time.
        program = parse_program("ans(X) :- p(X,Y), q(Y), !s(Y).")
        instance = Instance.of(Fact("q", (f"c{j}",)) for j in range(16000))
        started = time.perf_counter()
        result = ma_min(program, instance, ("a",))
        assert time.perf_counter() - started < 2.0
        assert (result.status, result.size) == ("found", 1)
        assert result.repair == Update.of(facts("p(a,c0)"))
        assert result.witness_assignment == {"X": "a", "Y": "c0"}

    def test_goal_instances_at_the_level_cost_stop_at_their_first_completion(self, monkeypatch):
        # p(X) is an insertion, so at level 1 an instance is at the level's
        # cost once X is set: r(Y), q(Z) and !r(Z) can add no edit, and each
        # of the 2n + 1 values of X ranks one label, not one per (Y, Z),
        # although r is read both ways.
        program = parse_program("ans :- p(X), r(Y), q(Z), !r(Z).")
        instance = parse_instance("".join(f"r(a{j}). q(b{j}).\n" for j in range(40)))
        rankings = count_rankings(monkeypatch)
        result = ma_min(program, instance, ())
        assert (result.status, result.repair) == ("found", Update.of(facts("p(_c0)")))
        assert result.witness_assignment == {"X": "_c0", "Y": "a0", "Z": "b0"}
        assert len(rankings) <= 2 * 40 + 1
        small = parse_instance("".join(f"r(a{j}). q(b{j}).\n" for j in range(4)))
        assert oracle_ma_min(program, small, ()).repair == ma_min(program, small, ()).repair


class TestProjectionFree:
    def test_insert_and_delete(self):
        rule = parse_program("ans(X,Y) :- r(X,Y), !t(Y,X).").rules[0]
        result = ma_min_projection_free(rule, parse_instance("t(b,a)."), ("a", "b"))
        assert result.size == 2
        assert result.repair == Update.of(facts("r(a,b)"), facts("t(b,a)"))

    def test_size_zero(self):
        rule = parse_program("ans(X,Y) :- r(X,Y).").rules[0]
        result = ma_min_projection_free(rule, parse_instance("r(a,b)."), ("a", "b"))
        assert result.size == 0

    def test_conflict_no_repair(self):
        rule = parse_program("ans(X) :- r(X,X), !r(X,X).").rules[0]
        assert ma_min_projection_free(rule, Instance.of(), ("a",)).status == "no_repair"

    def test_rejects_bound_vars(self):
        rule = parse_program("ans(X) :- r(X,Y).").rules[0]
        with pytest.raises(NotProjectionFree):
            ma_min_projection_free(rule, Instance.of(), ("a",))

    def test_checks_the_instance_like_ma_min(self):
        rule = parse_program("ans(X) :- r(X), !s(X).").rules[0]
        for solve in (ma_min_projection_free, lambda rule, *rest: ma_min(make_program([rule]), *rest)):
            with pytest.raises(ArityMismatch):
                solve(rule, parse_instance("r(a,b)."), ("a",))
            with pytest.raises(ValueError, match="derived relation ans"):
                solve(rule, parse_instance("r(a). ans(a)."), ("a",))

    def test_every_route_returns_the_induced_repair(self):
        """The head binding fixes every variable, so each route must return
        exactly the repair that binding induces, with the binding as
        witness."""
        rng = random.Random(41)
        for _ in range(400):
            rule = random_projection_free_rule(rng)
            instance = random_instance(rng)
            target = random_target(rng, len(rule.head_args))
            binding = {}
            for term, value in zip(rule.head_args, target):
                if binding.setdefault(term.name, value) != value:
                    binding = None
                    break
            update = None if binding is None else repair_for_assignment(rule, binding, instance)
            expected = ("no_repair", None, None) if update is None else ("found", update, binding)
            program = make_program([rule], "ans", validate=False)
            results = [ma_min_projection_free(rule, instance, target), ma_min_ucqneg(program, instance, target)]
            for result in results:
                assert (result.status, result.repair, result.witness_assignment) == expected, (rule, target)


def test_single_rule_solvers_reject_a_rule_that_reads_its_head():
    # Such a rule is recursive; no repair inserts a derived fact.
    x = var("X")
    reads_head = Rule("ans", (x,), (RelLiteral("ans", (x,)), RelLiteral("r", (x,))))
    only_head = Rule("ans", (x,), (RelLiteral("ans", (x,)),))
    for solve, rule in ((ma_min_projection_free, reads_head), (ma_min_join_free, only_head)):
        with pytest.raises(NotUcq):
            solve(rule, Instance.of(), ("a",))


class TestJoinFree:
    def test_positive_single_insert_with_fresh(self):
        rule = parse_program("ans(X) :- r(X,Y).").rules[0]
        result = ma_min_join_free(rule, Instance.of(), ("a",))
        assert result.size == 1
        assert result.repair == Update.of(facts("r(a,_c0)"))

    def test_negative_ground_deletion(self):
        # Head-only variables make the negated atom ground, so the one
        # matching fact must go.  (The rule is below the program-level
        # safety bar, which is why it is built directly.)
        from dlrepair import RelLiteral, Rule, var

        rule = Rule("ans", (var("X"),), (RelLiteral("r", (var("X"), var("X")), False),))
        result = ma_min_join_free(rule, parse_instance("r(a,a)."), ("a",))
        assert result.size == 1
        assert result.repair == Update.of((), facts("r(a,a)"))

    def test_negative_free_variable_costs_nothing(self):
        from dlrepair import RelLiteral, Rule, var

        rule = Rule("ans", (var("X"),), (RelLiteral("r", (var("X"), var("Y")), False),))
        result = ma_min_join_free(rule, parse_instance("r(a,a)."), ("a",))
        assert result.size == 0
        # the witness avoids the stored fact via a fresh constant
        assert result.witness_assignment["Y"] not in {"a"}

    def test_size_zero_on_match(self):
        rule = parse_program("ans(X) :- r(X,Y).").rules[0]
        result = ma_min_join_free(rule, parse_instance("r(a,b)."), ("a",))
        assert result.size == 0

    def test_comparison_constrains_match(self):
        rule = parse_program("ans(X) :- r(X,Y), X != Y.").rules[0]
        result = ma_min_join_free(rule, parse_instance("r(a,a)."), ("a",))
        assert result.size == 1  # r(a,a) does not count, insert r(a,_cK)
        assert_sound(parse_program("ans(X) :- r(X,Y), X != Y."), parse_instance("r(a,a)."), ("a",), result)

    def test_rejects_multi_atom(self):
        rule = TRIANGLE.rules[0]
        with pytest.raises(NotJoinFree):
            ma_min_join_free(rule, Instance.of(), ("1", "2", "3"))

    def test_rejects_rule_without_relational_literal(self):
        rule = parse_program("ans(X) :- X = a.").rules[0]
        with pytest.raises(NotJoinFree, match="does not have exactly one relational literal"):
            ma_min_join_free(rule, Instance.of(), ("a",))

    def test_checks_the_instance_like_ma_min(self):
        rule = parse_program("ans(X) :- r(X,Y).").rules[0]
        for solve in (ma_min_join_free, lambda rule, *rest: ma_min(make_program([rule]), *rest)):
            with pytest.raises(ArityMismatch):
                solve(rule, parse_instance("r(a)."), ("a",))
            with pytest.raises(ValueError, match="derived relation ans"):
                solve(rule, parse_instance("r(a,b). ans(a)."), ("a",))

    def test_least_insertion_reuses_constants(self):
        # The least matching fact repeats a value where no comparison
        # forbids it, as the oracle does.
        program = parse_program("ans :- r(Y,X).")
        for result in (
            ma_min_join_free(program.rules[0], Instance.of(), ()),
            ma_min_ucqneg(program, Instance.of(), ()),
        ):
            assert result.repair == Update.of(facts("r(_c0,_c0)"))
            assert result.witness_assignment == {"X": "_c0", "Y": "_c0"}

    def test_least_insertion_under_inequality(self):
        # Position by position, the least value that keeps the
        # inequalities satisfiable; the stored r(a,b,a) fails X != b.
        rule = parse_program("ans :- r(Y,X,Z), X != Y, X != b.").rules[0]
        result = ma_min_join_free(rule, parse_instance("r(a,b,a)."), ())
        assert result.repair == Update.of(facts("r(_c0,_c1,_c0)"))
        assert result.witness_assignment == {"X": "_c1", "Y": "_c0", "Z": "_c0"}


class TestRuleSearch:
    def test_fresh_symmetry_keeps_tie_break(self):
        # Fresh constants are interchangeable, so the search tries one
        # labelling of them; the least relabelling of each leaf must still
        # win, witness included.
        program = parse_program("ans :- r(Y,X), p(X), !r(X,Y), X != Y.")
        result = ma_min_ucqneg(program, Instance.of(), ())
        assert result.repair == Update.of(facts("p(_c0)", "r(_c1,_c0)"))
        assert result.witness_assignment == {"X": "_c0", "Y": "_c1"}

    def test_program_constant_named_like_a_fresh_one(self):
        # A library-built program may hold "_c0" itself; it is then a
        # visible constant, not an interchangeable fresh one.
        x = var("X")
        rule = Rule("ans", (), (RelLiteral("r", (x,)), RelLiteral("p", (x,)), Comparison("neq", x, const("_c0"))))
        program = make_program([rule], "ans")
        result = ma_min_ucqneg(program, Instance.of(), ())
        assert result.repair == Update.of(facts("p(_c1)", "r(_c1)"))
        assert result.witness_assignment == {"X": "_c1"}

    def test_edits_count_per_relation_not_per_literal(self):
        # A value that matches no literal of a relation costs at least one
        # edit for it, not one per literal: p(X), p(X) and r(c,Y), r(Y,Y)
        # each need one insertion at most, so no level-1 value may be cut.
        program = parse_program("ans :- p(X), p(X). ans :- r(c,Y), r(Y,Y), Y != b.")
        oracle = oracle_ma_min(program, Instance.of(), ())
        assert oracle.repair == Update.of(facts("p(_c0)"))
        result = ma_min_ucqneg(program, Instance.of(), ())
        assert result.repair == oracle.repair
        assert result.witness_assignment == {"X": "_c0"}

    @pytest.mark.parametrize(
        "source, facts_text, witness",
        [
            # The cost reaches the level at q(X); Y's step still reads p
            # both ways, so its instances keep different constraints.
            ("ans :- q(X), p(X,Y), !p(Y,X).", "p(a,b). p(b,a). p(a,c).", {"X": "a", "Y": "c"}),
            (
                "ans :- q(X), p(X,Y), !p(Y,X), p(Y,Z), !p(Z,Z).",
                "q(a). p(a,a). p(b,a). p(a,b). p(b,b).",
                {"X": "a", "Y": "_c0", "Z": "_c1"},
            ),
        ],
    )
    def test_relation_read_both_ways_after_the_level_is_reached(self, source, facts_text, witness):
        program, instance = parse_program(source), parse_instance(facts_text)
        oracle = oracle_ma_min(program, instance, (), budget=3)
        assert oracle.status == "found"
        result = ma_min_ucqneg(program, instance, ())
        assert result.repair == oracle.repair
        assert result.witness_assignment == witness
        assert repair_for_assignment(program.rules[0], witness, instance) == oracle.repair

    def test_matches_brute_force_per_rule(self):
        rng = random.Random(35)
        consts = ("a", "b")
        checked = 0
        while checked < 500:
            arity = rng.randint(0, 2)
            rule = random_cqneg_rule(rng, arity, max_literals=5, max_vars=4, consts=consts)
            if len(rule.all_vars) < 3:
                continue
            program = make_program([rule], "ans")
            instance = random_instance(rng, max_facts=6, consts=consts)
            target = random_target(rng, arity, consts)
            expected = brute_force_repair(program, instance, target)
            result = ma_min_ucqneg(program, instance, target)
            assert result.repair == expected, (rule, instance, target)
            if expected is not None:
                assert repair_for_assignment(rule, result.witness_assignment, instance) == expected
            checked += 1


class TestMaBoundAndSize:
    def test_bound_thresholds(self):
        instance = parse_instance("r(3,1).")
        assert ma_bound(TRIANGLE, instance, ("1", "2", "3"), 3)
        assert not ma_bound(TRIANGLE, instance, ("1", "2", "3"), 2)

    def test_bound_zero_is_membership(self):
        rng = random.Random(31)
        for _ in range(40):
            program = random_ucqneg_program(rng)
            instance = random_instance(rng)
            target = random_target(rng, program.arity)
            assert ma_bound(program, instance, target, 0) == eval_member(program, instance, target)

    def test_bound_monotone_in_k(self):
        instance = parse_instance("r(3,1).")
        values = [ma_bound(TRIANGLE, instance, ("1", "2", "3"), k) for k in range(5)]
        assert values == sorted(values)

    def test_size_projection(self):
        instance = parse_instance("r(3,1).")
        assert ma_size(TRIANGLE, instance, ("1", "2", "3")) == 3
        assert ma_size(TRIANGLE, parse_instance("r(1,2). r(2,3)."), ("1", "2", "3")) == 0
        assert ma_size(TRIANGLE, instance, ("1", "1", "1")) is None


class TestPositiveDatalog:
    TC = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z). @answer t.")

    def test_single_edge_insertion(self):
        result = ma_min_datalog_positive(self.TC, parse_instance("e(a,b)."), ("a", "c"))
        assert result.size == 1
        assert result.repair == Update.of(facts("e(a,c)"))

    def test_size_zero(self):
        result = ma_min_datalog_positive(self.TC, parse_instance("e(a,b)."), ("a", "b"))
        assert result.size == 0

    def test_insertions_only(self):
        result = ma_min_datalog_positive(self.TC, parse_instance("e(a,b)."), ("b", "a"))
        assert result.status == "found"
        assert not result.repair.deletions

    def test_boolean_program_on_empty_domain(self):
        program = parse_program("ans :- e(X,Y). @answer ans.")
        result = ma_min_datalog_positive(program, Instance.of(), ())
        assert result.size == 1
        assert result.repair == Update.of(facts("e(_c0,_c0)"))

    def test_soundness(self):
        result = ma_min_datalog_positive(self.TC, parse_instance("e(a,b)."), ("c", "a"))
        assert_sound(self.TC, parse_instance("e(a,b)."), ("c", "a"), result)

    def test_rejects_negation(self):
        with pytest.raises(NotPositiveDatalog, match="contains negation or inequality"):
            ma_min_datalog_positive(parse_program("ans(X) :- e(X), !u(X)."), Instance.of(), ("a",))

    @pytest.mark.parametrize("solve", [ma_dec, ma_min_datalog_positive, ma_min], ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "facts, error, complaint",
        [("s(a,b).", ArityMismatch, "fact s has arity 2, program uses 1"), ("r(a).", ValueError, "derived relation r")],
        ids=["arity-mismatch", "derived-fact"],
    )
    def test_invalid_instance_without_a_repair(self, solve, facts, error, complaint):
        # No repair exists at (b), so no search runs: the instance is checked first.
        program = parse_program("ans(X) :- r(X), X = a. r(X) :- s(X).")
        with pytest.raises(error, match=complaint):
            solve(program, parse_instance(facts), ("b",))


class TestGoalNamedRelation:
    """A query and its target meet in a goal symbol the parser reserves, so
    an instance relation called ``goal`` is just another stored relation."""

    TC = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z). @answer t.")
    INSTANCE = parse_instance("e(a,b). e(b,c). goal(a). goal(d).")

    def test_evaluates(self):
        assert eval_member(self.TC, self.INSTANCE, ("a", "c"))
        assert not eval_member(self.TC, self.INSTANCE, ("a", "d"))

    def test_repairs(self):
        result = ma_min(self.TC, self.INSTANCE, ("a", "d"))
        assert result.repair == Update.of(facts("e(a,d)"))
        oracle = oracle_ma_min(self.TC, self.INSTANCE, ("a", "d"), budget=1)
        assert oracle.repair == result.repair

    # Only a library-built instance can hold a fact of the reserved name,
    # which no program names.
    RESERVED = Instance.of(facts("e(a,b)", "e(b,c)", "_goal"))

    def test_evaluates_beside_a_reserved_name_fact(self):
        assert eval_member(self.TC, self.RESERVED, ("a", "c"))
        assert not eval_member(self.TC, self.RESERVED, ("a", "d"))
        union = parse_program("ans(X,Y) :- e(X,Y).")
        assert eval_member(union, self.RESERVED, ("a", "b"))

    def test_repairs_beside_a_reserved_name_fact(self):
        result = ma_min(self.TC, self.RESERVED, ("a", "d"))
        assert result.repair == Update.of(facts("e(a,d)"))

    def test_oracle_repairs_beside_a_reserved_name_fact(self):
        oracle = oracle_ma_min(self.TC, self.RESERVED, ("a", "d"), budget=1)
        assert oracle.repair == Update.of(facts("e(a,d)"))

    def test_goal_renamed_past_a_program_symbol(self):
        # Only a library-built program can hold a rule for the reserved
        # name, so the goal takes the next free one.
        X = var("X")
        rules = [
            Rule("_goal", (X,), (RelLiteral("e", (X,)),)),
            Rule("ans", (X,), (RelLiteral("_goal", (X,)), RelLiteral("b", (X,), False))),
        ]
        program = make_program(rules, "ans", validate=False)
        assert specialize(program, ("a",)).answer == "__goal"
        assert ma_min(program, Instance.of(), ("a",)).repair == Update.of(facts("e(a)"))


class TestSpDatalog:
    SP = parse_program("ans(X) :- e(X,Y), !bad(X).")

    def test_insert_and_delete(self):
        result = ma_min_spdatalog(self.SP, parse_instance("bad(a)."), ("a",), budget=2)
        assert result.size == 2
        assert result.repair == Update.of(facts("e(a,_c0)"), facts("bad(a)"))

    def test_size_zero(self):
        result = ma_min_spdatalog(self.SP, parse_instance("e(a,b)."), ("a",), budget=1)
        assert result.size == 0

    def test_budget_zero_exhausted(self):
        result = ma_min_spdatalog(self.SP, parse_instance("bad(a)."), ("a",), budget=0)
        assert result.status == "budget_exhausted"

    def test_negative_budget(self):
        with pytest.raises(ValueError, match="budget must be non-negative"):
            ma_min_spdatalog(self.SP, Instance.of(), ("a",), budget=-1)

    def test_rejects_negated_idb(self):
        from dlrepair import NotSemipositive, RelLiteral, Rule, var

        rules = (
            Rule("t", (var("X"),), (RelLiteral("e", (var("X"),)),)),
            Rule("ans", (var("X"),), (RelLiteral("e", (var("X"),)), RelLiteral("t", (var("X"),), False))),
        )
        program = Program(rules, "ans", {"e": 1})
        with pytest.raises(NotSemipositive):
            ma_min_spdatalog(program, Instance.of(), ("a",), budget=1)

    def test_recursive_with_negation(self):
        program = parse_program(
            "t(X,Y) :- e(X,Y), !blocked(X)."
            " t(X,Z) :- e(X,Y), !blocked(X), t(Y,Z)."
            " @answer t."
        )
        instance = parse_instance("e(a,b). e(b,c). blocked(a).")
        result = ma_min_spdatalog(program, instance, ("a", "c"), budget=2)
        assert result.size == 1
        assert result.repair == Update.of((), facts("blocked(a)"))

    def test_goal_rule_shares_an_insertion_of_a_derived_label(self):
        # The label of t(1) inserts e(1,5), and Y = 5 reuses it.  5 matches
        # no stored fact that the goal rule reads, so only the label makes
        # it more than one of the interchangeable values 2..5.
        program = parse_program("t(X) :- e(X,Z), !b(Z), X != Z. ans(X) :- t(X), e(X,Y), f(Y,W). @answer ans.")
        instance = parse_instance("b(2). b(3). b(4). u(5).")
        result = ma_min_spdatalog(program, instance, ("1",), budget=2)
        assert result.repair == Update.of(facts("e(1,5)", "f(5,1)"))
        domain = SearchDomain.for_spdatalog(program, instance, ("1",), 2)
        assert oracle_ma_min(program, instance, ("1",), domain, 2).repair == result.repair

    def test_goal_rule_floor_over_the_budget(self):
        # The answer rule's ground literals p0(a)..p7(a) force 8 insertions,
        # so no budget below 8 can label the goal; the search stops before
        # building any level, whose labels of t grow about tenfold each.
        # t(a,d) needs one more edit, so budget 8 is exhausted as well.
        body = ", ".join(f"p{j}(X)" for j in range(8))
        program = parse_program(
            f"t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), t(Y,Z). ans(X,Y) :- t(X,Y), !u(X), {body}. @answer ans."
        )
        instance = parse_instance("e(a,b). e(b,c). u(c).")
        started = time.perf_counter()
        for budget in range(9):
            assert ma_min_spdatalog(program, instance, ("a", "d"), budget).status == "budget_exhausted"
        # At budgets 8 and 9, t builds only the labels that the goal can
        # still use: those of cost at most the level minus 8.
        result = ma_min_spdatalog(program, instance, ("a", "d"), 9)
        expected = {Fact("e", ("a", "d"))} | {Fact(f"p{j}", ("a",)) for j in range(8)}
        assert (result.status, result.size) == ("found", 9)
        assert result.repair.insertions == expected and not result.repair.deletions
        assert time.perf_counter() - started < 1.0

    def test_long_chain_builds_only_the_levels_the_goal_can_use(self):
        # c(t) is missing and b(t) present, so the answer rule forces 2
        # edits and r needs only its cost-1 labels at budget 3: the one
        # missing edge, or a(X) on the far side of it.
        program = parse_program("ans(X) :- r(X), !b(X), c(X). r(X) :- a(X). r(X) :- r(Y), e(Y,X). @answer ans.")
        nodes = [f"n{j}" for j in range(40)]
        edges = " ".join(f"e({x},{y})." for x, y in zip(nodes, nodes[1:]) if x != "n20")
        instance = parse_instance(f"a(n0). b(n39). {edges}")
        started = time.perf_counter()
        result = ma_min_spdatalog(program, instance, ("n39",), 3)
        assert time.perf_counter() - started < 2.0
        assert (result.status, result.size) == ("found", 3)
        assert eval_member(program, apply_update(instance, result.repair), ("n39",))

    def test_goal_edits_shared_with_a_derived_label(self):
        # e(a,t) is both the answer rule's own edit and the edge that
        # labels r(t), so it must not count in the offset of r: a repair of
        # size 1 exists.
        program = parse_program("ans(X) :- r(X), e(a,X). r(X) :- a(X). r(X) :- r(Y), e(Y,X). @answer ans.")
        result = ma_min_spdatalog(program, parse_instance("a(a)."), ("t",), 3)
        assert (result.status, result.size) == ("found", 1)
        assert result.repair.insertions == {Fact("e", ("a", "t"))} and not result.repair.deletions

    def test_offset_is_the_least_over_the_goal_rules(self):
        # The second answer rule forces 2 edits, the first none, so r must
        # still be labelled at the goal's own cost.
        program = parse_program("ans(X) :- s(X). ans(X) :- s(X), p(X), q(X). s(X) :- r(X). r(X) :- a(X). @answer ans.")
        result = ma_min_spdatalog(program, Instance.of(), ("t",), 3)
        assert (result.status, result.repair.insertions) == ("found", {Fact("a", ("t",))})

    def test_a_goal_lookup_at_the_level_cost_stops_at_its_first_row(self, monkeypatch):
        # p(a) is the answer rule's one edit, so at level 1 its lookup of t
        # is entered at the level's cost and ranks one label, not one per
        # stored edge e(cj,dj), although e is read both ways.
        program = parse_program("t(X,Y) :- e(X,Y), !e(Y,X). ans :- p(a), t(Y,Z). @answer ans.")
        instance = parse_instance("".join(f"e(c{j},d{j}).\n" for j in range(100)))
        rankings = count_rankings(monkeypatch)
        result = ma_min(program, instance, (), budget=2)
        assert (result.status, result.repair) == ("found", Update.of(facts("p(a)")))
        assert len(rankings) == 1
        small = parse_instance("".join(f"e(c{j},d{j}).\n" for j in range(4)))
        assert oracle_ma_min(program, small, (), budget=2).repair == ma_min(program, small, (), budget=2).repair

    @pytest.mark.parametrize(
        "answer, data",
        [
            # Both arguments of t(X,X) bind one slot: the join drops the
            # labels of t atoms whose two arguments differ.
            ("ans :- t(X,X), !u(X).", "e(a,b). u(a)."),
            # t(Y,X) reads labels whose fresh constants meet the values that
            # t(X,Y) bound: the join drops a map that is inconsistent or not
            # one-to-one.
            ("ans :- t(X,Y), t(Y,X), !u(X), !u(Y).", "u(a)."),
        ],
    )
    def test_label_joins_match_oracle(self, answer, data):
        program = parse_program(f"t(X,Y) :- e(X,Y). t(X,Y) :- t(X,Z), e(Z,Y). {answer} @answer ans.")
        instance = parse_instance(data)
        solver = ma_min_spdatalog(program, instance, (), budget=3)
        oracle = oracle_ma_min(program, instance, (), budget=3)
        assert solver.status == "found"
        assert (solver.status, solver.repair) == (oracle.status, oracle.repair)


class TestOracle:
    def test_matches_ucq_solver_on_small_inputs(self):
        self.compare_ucq_solver(32, 400)

    def test_matches_ucq_solver_on_repeated_relations_and_literals(self):
        """Rules that read one relation several times, or repeat a literal,
        test that the cut on a variable's values counts edits per relation."""
        self.compare_ucq_solver(36, 300, max_literals=4, max_vars=3, repeat=0.5)

    def test_matches_ucq_solver_with_interchangeable_constants(self):
        """Digit constants sort before the fresh names, and the constants of
        unrelated ``u`` facts match no literal, so a goal rule's free step
        tries only the first of the values that nothing left can match."""
        self.compare_ucq_solver(38, 200, consts=("1", "2"), unrelated=5)

    @staticmethod
    def compare_ucq_solver(seed, count, max_literals=3, max_vars=2, repeat=0.0, consts=("a", "b"), unrelated=0):
        """``unrelated``: up to that many facts ``u(k)``, k from 3 on, join
        the instance."""
        rng = random.Random(seed)
        for _ in range(count):
            program = random_ucqneg_program(
                rng, max_rules=2, max_literals=max_literals, max_vars=max_vars, consts=consts, repeat=repeat
            )
            instance = random_instance(rng, max_facts=4, consts=consts)
            if unrelated:
                extra = {Fact("u", (str(k),)) for k in range(3, 3 + rng.randint(0, unrelated))}
                instance = Instance(instance.facts | extra)
            target = random_target(rng, program.arity, consts)
            domain = SearchDomain.for_ucq(program, instance, target)
            budget = max(r.positive_count() + r.negative_count() for r in program.rules)
            oracle = oracle_ma_min(program, instance, target, domain, budget)
            assert_reference_repair(program, instance, target, oracle)
            expected = (oracle.status, oracle.repair) if oracle.status == "found" else ("no_repair", None)
            solver = ma_min_ucqneg(program, instance, target)
            assert (solver.status, solver.repair) == expected
            if solver.status == "found":
                # The witness is an assignment of one rule's variables that
                # induces the repair.
                witness = solver.witness_assignment
                assert any(
                    set(witness) == rule.all_vars and repair_for_assignment(rule, witness, instance) == solver.repair
                    for rule in program.rules
                ), (program, instance, target)

    def test_matches_datalog_solvers_on_small_inputs(self):
        """Budget 2 bounds both searches, so the semi-positive solver and the
        oracle must agree outright; the positive solver is exact, so the
        oracle must match it wherever its repair fits in the budget.  Both
        break ties the same way, so the repairs themselves agree, not only
        their sizes."""
        rng = random.Random(33)
        consts = ("a", "b", "c")
        for i in range(30):
            semipositive = i % 2 == 0
            program = random_datalog_program(rng, semipositive)
            instance = random_datalog_instance(rng, max_facts=4, consts=consts)
            target = random_target(rng, program.arity, consts)
            if semipositive:
                domain = SearchDomain.for_spdatalog(program, instance, target, 2)
                solver = ma_min_spdatalog(program, instance, target, 2)
            else:
                domain = SearchDomain.for_positive_datalog(program, instance, target)
                solver = ma_min_datalog_positive(program, instance, target)
                if solver.size is None or solver.size > 2:
                    continue
            oracle = oracle_ma_min(program, instance, target, domain, 2)
            assert_reference_repair(program, instance, target, oracle)
            assert (oracle.status, oracle.repair) == (solver.status, solver.repair)

    @staticmethod
    def compare_datalog_solvers(seed, count, budget, extra_shapes=False, answer_edge=False):
        """As above, at any budget; a positive ``no_repair`` must exhaust the
        oracle, which reports ``budget_exhausted`` over a given domain."""
        rng = random.Random(seed)
        consts = ("a", "b", "c")
        for i in range(count):
            semipositive = i % 2 == 0
            program = random_datalog_program(rng, semipositive, extra_shapes, answer_edge)
            instance = random_datalog_instance(rng, max_facts=4, consts=consts)
            target = random_target(rng, program.arity, consts)
            if semipositive:
                domain = SearchDomain.for_spdatalog(program, instance, target, budget)
                solver = ma_min_spdatalog(program, instance, target, budget)
            else:
                domain = SearchDomain.for_positive_datalog(program, instance, target)
                solver = ma_min_datalog_positive(program, instance, target)
                if solver.size is not None and solver.size > budget:
                    continue
            oracle = oracle_ma_min(program, instance, target, domain, budget)
            assert_reference_repair(program, instance, target, oracle)
            if solver.status == "no_repair":
                assert oracle.status == "budget_exhausted"
            else:
                assert (oracle.status, oracle.repair) == (solver.status, solver.repair)

    def test_matches_datalog_solvers_on_small_inputs_at_budget_3(self):
        self.compare_datalog_solvers(33, 30, 3)

    def test_matches_datalog_solvers_on_extra_shapes(self):
        """Programs with ``X = c`` atoms, constant arguments and a second
        recursive derived symbol."""
        self.compare_datalog_solvers(34, 60, 2, extra_shapes=True)

    @pytest.mark.parametrize("seed, count, budget", [(37, 40, 2), (40, 18, 3)])
    def test_matches_datalog_solvers_with_an_edge_in_the_answer_rule(self, seed, count, budget):
        """The answer rule's ground literal over ``e`` can also be an edit
        in a label of ``t``, so the offset of ``t`` must not count it.  The
        oracle takes seconds on some budget-3 programs, so that run is
        shorter."""
        self.compare_datalog_solvers(seed, count, budget, answer_edge=True)

    def test_negative_budget_rejected(self):
        domain = SearchDomain.for_ucq(TRIANGLE, Instance.of(), ("1", "2", "3"))
        with pytest.raises(ValueError, match="budget must be non-negative"):
            oracle_ma_min(TRIANGLE, Instance.of(), ("1", "2", "3"), domain, -1)

    DEFAULTS = [
        # (program, instance, target, domain builder, default budget)
        ("ans(X) :- r(X,Y), !s(X).", "s(a).", ("a",), SearchDomain.for_ucq, 2),
        (
            "t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z). @answer t.",
            "e(a,b).",
            ("a", "c"),
            SearchDomain.for_positive_datalog,
            DEFAULT_SP_BUDGET,
        ),
        (
            "h(X) :- e(X), !bad(X). ans(X) :- h(X). @answer ans.",
            "bad(a).",
            ("a",),
            functools.partial(SearchDomain.for_spdatalog, budget=DEFAULT_SP_BUDGET),
            DEFAULT_SP_BUDGET,
        ),
    ]

    FRAGMENTS = ["ucq", "positive", "semipositive"]

    @pytest.mark.parametrize("source, facts_text, target, builder, budget", DEFAULTS, ids=FRAGMENTS)
    def test_defaults_are_the_fragment_domain_and_budget(self, source, facts_text, target, builder, budget):
        program, instance = parse_program(source), parse_instance(facts_text)
        default = oracle_ma_min(program, instance, target)
        assert default.status == "found"
        assert default == oracle_ma_min(program, instance, target, builder(program, instance, target), budget)

    @pytest.mark.parametrize("source, facts_text, target", [d[:3] for d in DEFAULTS], ids=FRAGMENTS)
    def test_negative_budget_rejected_before_a_domain_is_built(self, monkeypatch, source, facts_text, target):
        def unexpected(*args, **kwargs):
            raise AssertionError("a search domain was built")

        for name in ("for_ucq", "for_positive_datalog", "for_spdatalog"):
            monkeypatch.setattr(SearchDomain, name, unexpected)
        with pytest.raises(ValueError, match="budget must be non-negative"):
            oracle_ma_min(parse_program(source), parse_instance(facts_text), target, budget=-1)

    def test_budget_zero(self):
        domain = SearchDomain.for_ucq(TRIANGLE, Instance.of(), ("1", "2", "3"))
        hit = oracle_ma_min(
            TRIANGLE, parse_instance("r(1,2). r(2,3)."), ("1", "2", "3"), domain, 0
        )
        assert hit.size == 0
        miss = oracle_ma_min(TRIANGLE, Instance.of(), ("1", "2", "3"), domain, 0)
        assert miss.status == "budget_exhausted"


class TestEnumerateUpdates:
    def test_order_on_small_pools(self):
        """Every insertion tuple of at most the size, in tuple order (a
        shorter tuple before its extensions), each followed by its deletion
        combinations."""
        for n_ins, n_dels, size in itertools.product(range(5), range(4), range(5)):
            ins_pool, del_pool = [f"i{j}" for j in range(n_ins)], [f"d{j}" for j in range(n_dels)]
            tuples = sorted(t for m in range(size + 1) for t in itertools.combinations(range(n_ins), m))
            expected = [
                (tuple(ins_pool[j] for j in t), dels)
                for t in tuples
                for dels in itertools.combinations(del_pool, size - len(t))
            ]
            assert list(_enumerate_updates(ins_pool, del_pool, size)) == expected


class TestLeastRelabelling:
    NAMES = sorted(fresh_constants(12, set()))

    def compare(self, ins, dels=()):
        fresh = frozenset(self.NAMES)
        got = _least_relabelling(ins, dels, self.NAMES, fresh)
        want = least_relabelling_by_permutations(ins, dels, self.NAMES, fresh)
        assert got == want and list(got[1].items()) == list(want[1].items()), ins

    def test_matches_every_permutation(self):
        """Random insertions over two to six fresh constants, half of them
        closed under swaps of two constants, so that maps tie."""
        rng = random.Random(43)
        for i in range(1500):
            moved = rng.sample(self.NAMES, rng.randint(2, 6))
            pool = moved + ["a", "z"]
            ins = {(rng.choice("pq"), tuple(rng.choices(pool, k=rng.randint(0, 3)))) for _ in range(rng.randint(1, 7))}
            for _ in range(rng.randint(0, 3) * (i % 2)):
                x, y = rng.sample(moved, 2)
                swap = {x: y, y: x}
                ins |= {(rel, tuple(swap.get(a, a) for a in args)) for rel, args in ins}
            ins = list(ins)
            rng.shuffle(ins)
            self.compare(ins, tuple(sorted({("p", (rng.choice("ab"),)) for _ in range(rng.randint(0, 2))})))

    def test_long_chain_and_symmetric_insertions(self):
        # 16 constants: 16! maps, built a fact at a time.  The chain runs
        # through the names backwards, so the least key renames every one.
        names = sorted(fresh_constants(16, set()))
        chain = [("r", (names[i + 1], names[i])) for i in range(15)]
        assert _least_relabelling(chain, (), names, frozenset(names)) == (
            (tuple(sorted(("r", (names[i], names[i + 1])) for i in range(15))), ()),
            {names[15 - i]: names[i] for i in range(16)},
        )
        symmetric = [("p", (n,)) for n in names]
        assert _least_relabelling(symmetric, (), names, frozenset(names)) == (
            (tuple(("p", (n,)) for n in names), ()),
            {n: n for n in names},
        )
        self.compare([("p", (n,)) for n in self.NAMES[:7]])


class TestProperties:
    def test_bound_monotone_in_k(self):
        rng = random.Random(2025)
        for _ in range(60):
            program = random_ucqneg_program(rng)
            instance = random_instance(rng)
            target = random_target(rng, program.arity)
            values = [ma_bound(program, instance, target, k) for k in range(4)]
            assert values == sorted(values)

    def test_renamed_repair_is_valid_for_renamed_instance(self):
        from randgen import random_renaming
        from dlrepair import rename

        rng = random.Random(2024)
        for _ in range(100):
            program = random_ucqneg_program(rng)
            instance = random_instance(rng)
            target = random_target(rng, program.arity)
            result = ma_min_ucqneg(program, instance, target)
            if result.status != "found":
                continue
            touched = {a for f in result.repair.insertions | result.repair.deletions for a in f.args}
            rho = random_renaming(
                rng, set(program.constants()) | set(target), set(instance.constants()) | touched
            )
            renamed_instance = rename(instance, rho)
            renamed_repair = rename(result.repair, rho)
            assert eval_member(program, apply_update(renamed_instance, renamed_repair), target)

    def test_comparison_only_body(self):
        program = parse_program("ans() :- a != b.")
        assert eval_member(program, Instance.of(), ())
        assert ma_min(program, Instance.of(), ()).size == 0
        never = parse_program("ans() :- a = b.")
        assert ma_min(never, Instance.of(), ()).status == "no_repair"

    def test_sp_bound_uses_budget(self):
        program = parse_program(
            "t(X,Y) :- e(X,Y), !bad(X). t(X,Z) :- e(X,Y), !bad(X), t(Y,Z). @answer t."
        )
        instance = parse_instance("bad(a).")
        assert not ma_bound(program, instance, ("a", "c"), 0)
        assert ma_bound(program, instance, ("a", "c"), 2)


class TestDispatch:
    def test_routes(self):
        assert ma_min(TRIANGLE, parse_instance("r(3,1)."), ("1", "2", "3")).size == 3
        tc = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z). @answer t.")
        assert ma_min(tc, parse_instance("e(a,b)."), ("a", "c")).size == 1
        sp = parse_program("ans(X) :- e(X,Y), !bad(X).")
        assert ma_min(sp, parse_instance("bad(a)."), ("a",), budget=2).size == 2

    def test_planted_inputs_are_repairable_and_sound(self):
        rng = random.Random(33)
        for _ in range(40):
            program, instance, target = planted_input(rng)
            result = ma_min_ucqneg(program, instance, target)
            assert result.status == "found"
            assert_sound(program, instance, target, result)

import functools
import itertools
import random

import pytest

from dlrepair import (
    Comparison,
    Fact,
    Instance,
    NotJoinFree,
    NotProjectionFree,
    PartialAssignment,
    Program,
    RelLiteral,
    Rule,
    SearchDomain,
    Update,
    apply_update,
    canonical_key,
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
    make_program,
    oracle_ma_min,
    parse_instance,
    parse_program,
    repair_for_assignment,
    update_size,
    var,
)
from dlrepair.repair import DEFAULT_SP_BUDGET
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
from reference import reference_answers

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

    def test_dispatch_matches_general_search(self):
        instance = parse_instance("r(3,1).")
        a = ma_min_ucqneg(TRIANGLE, instance, ("1", "2", "3"), dispatch=True)
        b = ma_min_ucqneg(TRIANGLE, instance, ("1", "2", "3"), dispatch=False)
        assert a.repair == b.repair

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

    def test_every_route_returns_the_induced_repair(self):
        """The head binding fixes every variable, so each route, dispatched
        or not, must return exactly the repair that binding induces, with
        the binding as witness."""
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
            results = [ma_min_projection_free(rule, instance, target)] + [
                ma_min_ucqneg(program, instance, target, dispatch=d) for d in (True, False)
            ]
            for result in results:
                assert (result.status, result.repair, result.witness_assignment) == expected, (rule, target)


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

    def test_least_insertion_reuses_constants(self):
        # The least matching fact repeats a value where no comparison
        # forbids it, as the general search and the oracle do.
        program = parse_program("ans :- r(Y,X).")
        for result in (
            ma_min_join_free(program.rules[0], Instance.of(), ()),
            ma_min_ucqneg(program, Instance.of(), ()),
            ma_min_ucqneg(program, Instance.of(), (), dispatch=False),
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


def _brute_force(program, instance, target):
    """Least (size, canonical key) over every assignment of the search
    domain to the rule's non-head variables."""
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


class TestRuleSearch:
    def test_fresh_symmetry_keeps_tie_break(self):
        # Fresh constants are interchangeable, so the search tries one
        # labelling of them; the least relabelling of each leaf must still
        # win, witness included.
        program = parse_program("ans :- r(Y,X), p(X), !r(X,Y), X != Y.")
        result = ma_min_ucqneg(program, Instance.of(), (), dispatch=False)
        assert result.repair == Update.of(facts("p(_c0)", "r(_c1,_c0)"))
        assert result.witness_assignment == {"X": "_c0", "Y": "_c1"}

    def test_program_constant_named_like_a_fresh_one(self):
        # A library-built program may hold "_c0" itself; it is then a
        # visible constant, not an interchangeable fresh one.
        x = var("X")
        rule = Rule("ans", (), (RelLiteral("r", (x,)), RelLiteral("p", (x,)), Comparison("neq", x, const("_c0"))))
        program = make_program([rule], "ans")
        result = ma_min_ucqneg(program, Instance.of(), (), dispatch=False)
        assert result.repair == Update.of(facts("p(_c1)", "r(_c1)"))
        assert result.witness_assignment == {"X": "_c1"}

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
            expected = _brute_force(program, instance, target)
            result = ma_min_ucqneg(program, instance, target, dispatch=False)
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
        rng = random.Random(32)
        for _ in range(400):
            program = random_ucqneg_program(
                rng, max_rules=2, max_literals=3, max_vars=2, consts=("a", "b")
            )
            instance = random_instance(rng, max_facts=4, consts=("a", "b"))
            target = random_target(rng, program.arity, ("a", "b"))
            domain = SearchDomain.for_ucq(program, instance, target)
            budget = max(r.positive_count() + r.negative_count() for r in program.rules)
            oracle = oracle_ma_min(program, instance, target, domain, budget)
            assert_reference_repair(program, instance, target, oracle)
            expected = (oracle.status, oracle.repair) if oracle.status == "found" else ("no_repair", None)
            for dispatch in (True, False):
                solver = ma_min_ucqneg(program, instance, target, dispatch=dispatch)
                assert (solver.status, solver.repair) == expected
                if solver.status == "found":
                    # The witness is an assignment of one rule's variables
                    # that induces the repair.
                    witness = solver.witness_assignment
                    assert any(
                        set(witness) == rule.all_vars and repair_for_assignment(rule, witness, instance) == solver.repair
                        for rule in program.rules
                    ), (program, instance, target, dispatch)

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
    def compare_datalog_solvers(seed, count, budget, extra_shapes=False):
        """As above, at any budget; a positive ``no_repair`` must exhaust the
        oracle, which reports ``budget_exhausted`` over a given domain."""
        rng = random.Random(seed)
        consts = ("a", "b", "c")
        for i in range(count):
            semipositive = i % 2 == 0
            program = random_datalog_program(rng, semipositive, extra_shapes)
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

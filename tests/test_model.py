import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dlrepair import (
    ArityMismatch,
    Fact,
    Instance,
    InvalidUpdate,
    NotBijective,
    Program,
    RelLiteral,
    Rule,
    Update,
    active_domain,
    apply_update,
    canonical_key,
    const,
    make_program,
    parse_program,
    rename,
    specialize,
    update_size,
    var,
)
from dlrepair.model import validate_program


def fact(text: str) -> Fact:
    rel, _, rest = text.partition("(")
    if not rest:
        return Fact(text, ())
    return Fact(rel, tuple(rest.rstrip(")").split(",")))


class TestApplyUpdate:
    def test_identity_update(self):
        instance = Instance.of([fact("r(a,b)")])
        assert apply_update(instance, Update.of()) == instance

    def test_swap(self):
        instance = Instance.of([fact("r(a,b)")])
        update = Update.of([fact("r(b,c)")], [fact("r(a,b)")])
        assert apply_update(instance, update) == Instance.of([fact("r(b,c)")])

    def test_insert_overlapping_instance_rejected(self):
        instance = Instance.of([fact("r(a,b)")])
        with pytest.raises(InvalidUpdate):
            apply_update(instance, Update.of([fact("r(a,b)")]))

    def test_delete_of_absent_fact_rejected(self):
        with pytest.raises(InvalidUpdate):
            apply_update(Instance.of(), Update.of((), [fact("r(a,b)")]))

    def test_input_instance_unmodified(self):
        instance = Instance.of([fact("r(a,b)")])
        apply_update(instance, Update.of([fact("r(b,c)")]))
        assert instance == Instance.of([fact("r(a,b)")])


class TestUpdateSize:
    def test_empty(self):
        assert update_size(Update.of()) == 0

    def test_single_insert(self):
        assert update_size(Update.of([fact("r(a,b)")])) == 1

    def test_mixed(self):
        update = Update.of([fact("r(a,b)"), fact("r(b,c)")], [fact("s(a)")])
        assert update_size(update) == 3


class TestRename:
    def test_instance(self):
        renamed = rename(Instance.of([fact("r(a,b)")]), {"a": "x", "b": "y"})
        assert renamed == Instance.of([fact("r(x,y)")])

    def test_update(self):
        renamed = rename(Update.of([fact("r(a,a)")]), {"a": "b"})
        assert renamed == Update.of([fact("r(b,b)")])

    def test_not_injective(self):
        with pytest.raises(NotBijective):
            rename(Instance.of([fact("r(a,b)")]), {"a": "c", "b": "c"})

    def test_tuple(self):
        assert rename(("a", "b"), {"a": "q"}) == ("q", "b")

    def test_fact(self):
        assert rename(fact("r(a,b)"), {"a": "q"}) == fact("r(q,b)")

    def test_unsupported_type(self):
        with pytest.raises(TypeError, match="cannot rename list"):
            rename(["a"], {"a": "q"})


class TestActiveDomain:
    def test_union_of_everything(self):
        program = parse_program("ans(X) :- r(X,Y).")
        assert active_domain(program, Instance.of([fact("r(a,b)")]), ("c",)) == {"a", "b", "c"}

    def test_query_constants(self):
        program = parse_program("ans(X) :- r(X), X = d.")
        assert active_domain(program, Instance.of(), ()) == {"d"}

    def test_empty(self):
        program = parse_program("ans(X) :- r(X,Y).")
        assert active_domain(program, Instance.of(), ()) == frozenset()


def test_arity_fixed_at_first_use():
    with pytest.raises(ArityMismatch):
        parse_program("ans(X) :- r(X,Y), r(X).")


def test_make_program_rejects_head_without_rule():
    from dlrepair import Rule, var, RelLiteral

    rule = Rule("ans", (var("X"),), (RelLiteral("r", (var("X"),)),))
    with pytest.raises(ValueError):
        make_program([rule], answer="missing")


X, Y = var("X"), var("Y")


def r(*args):
    return RelLiteral("r", args)


class TestValidateProgram:
    """The checks on programs built from model values, one per branch."""

    def test_no_rules(self):
        with pytest.raises(ValueError, match="program has no rules"):
            validate_program(Program((), "ans", {}))

    def test_arity_mismatch_with_the_schema(self):
        with pytest.raises(ArityMismatch, match="r used with arity 1, previously 2"):
            make_program([Rule("ans", (X,), (r(X),))], extra_schema={"r": 2})

    def test_constant_in_head(self):
        with pytest.raises(ValueError, match="constant 'a' in head of ans"):
            make_program([Rule("ans", (const("a"),), (r(X),))])

    def test_negated_intensional_symbol(self):
        rules = [Rule("ans", (X,), (r(X), RelLiteral("t", (X,), False))), Rule("t", (X,), (r(X),))]
        with pytest.raises(ValueError, match="negated intensional symbol 't'"):
            make_program(rules)

    def test_head_variable_not_in_body(self):
        with pytest.raises(ValueError, match="head variable 'X' not in body of ans"):
            make_program([Rule("ans", (X,), (r(Y),))])

    def test_extensional_symbol_with_a_rule(self):
        with pytest.raises(ValueError, match="'ans' is both extensional and a rule head"):
            make_program([Rule("ans", (X,), (r(X),))], extra_schema={"ans": 1})


class TestSpecializeMemo:
    """``specialize`` is memoised by the rules, the answer, the schema and
    the target; the target's length is checked on every call."""

    PROGRAM = parse_program("ans(X) :- r(X,Y), !s(Y).")

    def test_distinct_targets_get_distinct_goals(self):
        a, b = specialize(self.PROGRAM, ("a",)), specialize(self.PROGRAM, ("b",))
        assert a is not b and a.rules != b.rules
        assert specialize(self.PROGRAM, ("a",)) is a
        assert specialize(self.PROGRAM, ("b",)) is b
        assert specialize(self.PROGRAM, ["a"]) is a

    def test_the_schema_is_part_of_the_key(self):
        rules = [Rule("ans", (X,), (r(X),))]
        plain, wider = make_program(rules), make_program(rules, extra_schema={"t": 3})
        assert plain.rules == wider.rules
        assert specialize(plain, ("a",)).schema == {"r": 1}
        assert specialize(wider, ("a",)).schema == {"t": 3, "r": 1}
        assert specialize(plain, ("a",)) is not specialize(wider, ("a",))

    def test_wrong_length_target_raises_after_a_hit(self):
        assert specialize(self.PROGRAM, ("a",)) is specialize(self.PROGRAM, ("a",))
        for _ in range(2):
            with pytest.raises(ArityMismatch, match="target has length 2, answer arity is 1"):
                specialize(self.PROGRAM, ("a", "b"))


def test_rules_are_values():
    """Rules hash once, on construction, and still compare and print by
    their fields."""
    from dlrepair import Comparison, RelLiteral, Rule, const, var

    body = (RelLiteral("r", (var("X"), var("Y"))), RelLiteral("s", (var("Y"),), False))
    built = Rule("ans", (var("X"),), body)
    parsed = parse_program("ans(X) :- r(X,Y), !s(Y).").rules[0]
    assert built == parsed and hash(built) == hash(parsed)
    assert {built: 1}[parsed] == 1
    # String hashes differ between processes, so unpickling must rehash.
    stale = Rule("ans", (var("X"),), body)
    object.__setattr__(stale, "_hash", hash(parsed) + 1)
    assert hash(pickle.loads(pickle.dumps(stale))) == hash(parsed)
    changed = Rule("ans", (var("X"),), body[:1] + (RelLiteral("s", (var("Y"),)),))
    assert changed != built
    assert Rule("ans", (var("X"),), body + (Comparison("eq", var("X"), const("a")),)) != built
    assert repr(built) == (
        "Rule(head='ans', head_args=(Term(kind='variable', name='X'),), body=("
        "RelLiteral(relation='r', args=(Term(kind='variable', name='X'), Term(kind='variable', name='Y')), "
        "positive=True), RelLiteral(relation='s', args=(Term(kind='variable', name='Y'),), positive=False)))"
    )


# ---------------------------------------------------------------------------
# Properties

_consts = st.sampled_from(["a", "b", "c", "d", "e"])
_facts = st.one_of(
    st.tuples(_consts, _consts).map(lambda p: Fact("r", p)),
    _consts.map(lambda c: Fact("s", (c,))),
)
_fact_sets = st.frozensets(_facts, max_size=8)


@st.composite
def _instance_and_update(draw):
    base = draw(_fact_sets)
    extra = draw(_fact_sets)
    instance = Instance(base)
    insertions = frozenset(extra - base)
    deletions = draw(st.frozensets(st.sampled_from(sorted(base)), max_size=4)) if base else frozenset()
    return instance, Update(insertions, deletions - insertions)


@given(_instance_and_update())
def test_size_is_symmetric_difference(pair):
    instance, update = pair
    updated = apply_update(instance, update)
    assert update_size(update) == len(instance.facts ^ updated.facts)


@given(_instance_and_update())
def test_inverse_roundtrip(pair):
    instance, update = pair
    updated = apply_update(instance, update)
    assert apply_update(updated, Update(update.deletions, update.insertions)) == instance


@given(_instance_and_update(), st.permutations(["a", "b", "c", "d", "e"]))
def test_rename_distributes_over_apply(pair, perm):
    instance, update = pair
    rho = dict(zip(["a", "b", "c", "d", "e"], perm))
    left = apply_update(rename(instance, rho), rename(update, rho))
    right = rename(apply_update(instance, update), rho)
    assert left == right


@given(_fact_sets)
def test_instance_iteration_is_canonical(facts):
    listed = list(Instance(facts))
    assert listed == sorted(facts)


@given(_fact_sets, _fact_sets)
def test_canonical_key_orders_insertions_before_deletions(a, b):
    update = Update(frozenset(a - b), frozenset(b - a))
    key = canonical_key(update)
    assert key[0] == tuple(sorted(update.insertions))
    assert key[1] == tuple(sorted(update.deletions))

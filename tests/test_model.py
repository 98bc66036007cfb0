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
    Update,
    active_domain,
    apply_update,
    canonical_key,
    make_program,
    parse_program,
    rename,
    update_size,
)
from dlrepair.model import invert


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
    assert apply_update(updated, invert(update)) == instance


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

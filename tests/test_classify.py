import random

from dlrepair import classify, parse_program
from randgen import random_ucqneg_program


def flags(text: str):
    return classify(parse_program(text))


def test_selection_free_cq_with_projection_and_joins():
    # The element/set membership pattern: selection-free, projecting away
    # the chooser variables, joining on nothing.
    f = flags("ans(X1,X2,X3) :- f(Y1,X1), f(Y2,X2), f(Y3,X3), p(Y1), p(Y2), p(Y3).")
    assert f.is_cq and f.selection_free
    assert not f.projection_free and not f.join_free
    assert f.selection_free and f.is_cq and not f.has_negation  # the tractable-by-cover shape


def test_projection_free_with_negation():
    f = flags("ans(X,Y) :- r(X,Y), !t(Y,X).")
    assert f.projection_free
    assert f.has_negation
    assert f.is_ucq and not f.is_cq


def test_recursive_positive_datalog():
    f = flags("t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z). @answer t.")
    assert f.is_recursive
    assert f.is_positive_datalog
    assert not f.is_ucq


def test_cq_implies_ucq_and_ucq_implies_nonrecursive():
    rng = random.Random(7)
    for _ in range(100):
        f = classify(random_ucqneg_program(rng))
        if f.is_cq:
            assert f.is_ucq
        if f.is_ucq:
            assert not f.is_recursive


def test_projection_free_iff_no_bound_vars():
    rng = random.Random(8)
    for _ in range(100):
        program = random_ucqneg_program(rng)
        f = classify(program)
        assert f.projection_free == all(not r.bound_vars for r in program.rules)


def test_variable_renaming_preserves_flags():
    original = "ans(X,Y) :- r(X,Z), !p(Z), Z != Y, p(Y)."
    renamed = "ans(U,V) :- r(U,W), !p(W), W != V, p(V)."
    assert flags(original) == flags(renamed)


def test_duplicate_variable_in_atom_breaks_selection_freeness():
    assert not flags("ans(X) :- r(X,X).").selection_free
    assert flags("ans(X,Y) :- r(X,Y).").selection_free


def test_constants_and_equality_break_selection_freeness():
    assert not flags("ans(X) :- r(X,a).").selection_free
    assert not flags("ans(X) :- r(X,Y), X = Y.").selection_free
    # Inequality atoms are not selections.
    assert flags("ans(X,Y) :- r(X,Y), X != Y.").selection_free


def test_self_join_free():
    assert flags("ans(X) :- r(X,Y), p(Y).").self_join_free
    assert not flags("ans(X) :- r(X,Y), r(Y,X).").self_join_free


def test_multi_idb_nonrecursive_is_not_ucq():
    f = flags("helper(X) :- e(X). ans(X) :- helper(X). @answer ans.")
    assert not f.is_ucq
    assert not f.is_recursive
    assert f.is_positive_datalog


def test_semipositive_flag_always_set_after_parse():
    rng = random.Random(9)
    for _ in range(50):
        assert classify(random_ucqneg_program(rng)).is_semipositive_datalog


def test_equality_keeps_positive_datalog():
    f = flags("ans(X) :- e(X,Y), X = a. @answer ans.")
    assert f.is_positive_datalog
    assert not flags("ans(X) :- e(X,Y), X != Y.").is_positive_datalog
    assert not flags("ans(X) :- e(X,Y), !u(X).").is_positive_datalog


def test_inequality_reclassifies_out_of_plain_cq():
    # Accepted without complaint, but no longer a plain conjunctive query.
    f = flags("ans(X) :- r(X,Y), X != Y.")
    assert not f.is_cq
    assert f.is_ucq and f.has_comparisons


def _chain(n: int, closed: bool) -> str:
    """p0 reads p1, ..., p{n-1} reads p{n}; p{n} reads a, or p0 to close a cycle."""
    rules = [f"p{i}(X) :- p{i + 1}(X)." for i in range(n)]
    rules.append(f"p{n}(X) :- {'p0' if closed else 'a'}(X).")
    return "\n".join(rules)


def test_long_dependency_chain():
    assert not flags(_chain(5000, closed=False)).is_recursive
    assert flags(_chain(5000, closed=True)).is_recursive


def test_long_chain_through_cli(tmp_path):
    import io

    from dlrepair.cli import run

    query = tmp_path / "chain.dl"
    query.write_text(_chain(5000, closed=False))
    out = io.StringIO()
    assert run(["classify", "-q", str(query)], out=out, err=io.StringIO()) == 0
    assert "is_recursive: false" in out.getvalue().splitlines()


def test_recursion_needs_a_cycle():
    assert flags("p(X) :- q(X). q(X) :- a(X). p(X) :- q(X), r(X). r(X) :- q(X).").is_recursive is False
    assert flags("p(X) :- q(X). q(X) :- r(X). r(X) :- q(X), a(X).").is_recursive
    assert flags("p(X) :- p(X), a(X).").is_recursive

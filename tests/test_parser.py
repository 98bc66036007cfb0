import random
import re

import pytest

from dlrepair import parser
from dlrepair import (
    ArityMismatch,
    Comparison,
    Fact,
    Instance,
    NegatedIdb,
    RelLiteral,
    Rule,
    SourceError,
    UndefinedIdb,
    UnsafeRule,
    VariableInFact,
    const,
    ma_min,
    make_program,
    parse_fact,
    parse_instance,
    parse_program,
    parse_tuple,
    render_fact,
    render_instance,
    render_program,
    render_rule,
    render_tuple,
    var,
)
from randgen import random_instance, random_ucqneg_program


class TestParseProgram:
    def test_single_rule(self):
        program = parse_program("ans(X) :- R(X,Y).")
        assert len(program.rules) == 1
        assert program.answer == "ans"
        assert program.arity == 1
        assert program.schema == {"R": 2}

    def test_head_variable_missing_from_the_body_is_unsafe(self):
        with pytest.raises(UnsafeRule, match="head variable X does not occur in the body"):
            parse_program("ans(X) :- r(Y).")

    def test_negative_only_variable_is_unsafe(self):
        with pytest.raises(UnsafeRule):
            parse_program("ans(X) :- !R(X,X).")

    def test_answer_directive(self):
        program = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z). @answer t.")
        assert program.answer == "t"
        assert len(program.rules) == 2
        assert program.schema == {"e": 2}

    def test_head_constant_desugared(self):
        program = parse_program("ans(a) :- b(X).")
        rule = program.rules[0]
        assert all(t.is_variable for t in rule.head_args)
        eqs = [lit for lit in rule.body if isinstance(lit, Comparison)]
        assert len(eqs) == 1 and eqs[0].op == "eq" and eqs[0].right.name == "a"

    def test_desugar_avoids_variable_collision(self):
        program = parse_program("ans(a,X0) :- b(X0).")
        names = [t.name for t in program.rules[0].head_args]
        assert len(set(names)) == 2

    def test_negated_idb_rejected(self):
        with pytest.raises(NegatedIdb):
            parse_program("ans(X) :- t(X), !t(X). t(X) :- e(X).")

    def test_negation_on_later_defined_idb_rejected(self):
        with pytest.raises(NegatedIdb):
            parse_program("ans(X) :- e(X), !t(X). t(X) :- e(X).")

    def test_answer_directive_without_rule(self):
        with pytest.raises(UndefinedIdb):
            parse_program("ans(X) :- r(X). @answer zzz.")

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            parse_program("ans(X) :- r(X,Y). other(X) :- r(X).")

    def test_empty_program_rejected(self):
        with pytest.raises(SourceError):
            parse_program("% nothing here\n")

    def test_error_positions_are_one_based(self):
        with pytest.raises(SourceError) as err:
            parse_program("ans(X) :- r(X,Y)\nans(Y) :- r(Y,Y).")
        assert err.value.line == 2

    def test_comments_and_whitespace(self):
        program = parse_program("% leading\nans(X) :- r(X,Y). % trailing\n")
        assert program.arity == 1

    def test_reserved_underscore_names(self):
        with pytest.raises(SourceError):
            parse_program("ans(X) :- r(X,_c0).")

    def test_quoted_constants(self):
        program = parse_program('ans(X) :- r(X,Y), Y = "hello world".')
        consts = program.constants()
        assert "hello world" in consts

    def test_inequality_and_boolean_head(self):
        program = parse_program("ans :- r(X,Y), X != Y.")
        assert program.arity == 0

    def test_arity_zero_atom_forms(self):
        program = parse_program("ans() :- marker.")
        assert program.arity == 0
        assert program.schema == {"marker": 0}


class TestParseProgramMemo:
    """``parse_program`` is memoised by the text, so a long-lived process
    parses each distinct query once."""

    TEXT = "ans(X) :- e(X,Y), !b(Y)."

    def test_equal_text_gives_the_same_program(self):
        first = parse_program(self.TEXT)
        again = self.TEXT[:4] + self.TEXT[4:]
        assert again is not self.TEXT
        assert parse_program(again) is first

    def test_whitespace_variant_solves_identically(self):
        program = parse_program(self.TEXT)
        spaced = parse_program("ans(X)  :-\n  e(X, Y),\n  !b(Y) .\n")
        assert spaced is not program and spaced == program
        instance = parse_instance("e(a,b). b(b). e(b,c).")
        for target in (("a",), ("b",), ("c",)):
            assert ma_min(spaced, instance, target) == ma_min(program, instance, target)

    @pytest.mark.parametrize(
        "text, error", [("ans(X) :- r(X) ; s(X).", SourceError), ("ans(X) :- r(X,Y), r(X).", ArityMismatch)]
    )
    def test_bad_text_raises_on_every_call(self, text, error):
        messages = []
        for _ in range(3):
            with pytest.raises(error) as err:
                parse_program(text)
            messages.append(str(err.value))
        assert len(set(messages)) == 1


TOKEN_ERRORS = [
    ("ans(X) : r(X).", "expected ':-'", 1, 8),
    ('ans(X) :- r(X), X = "ab\ncd".', "unterminated string", 1, 21),
    ('ans(X) :- r(X), X = "abc', "unterminated string", 1, 21),
    ('ans(X) :- r(X), X = "_a".', "constants starting with '_' are reserved", 1, 21),
    ("ans(X) :- r(_x).", "names starting with '_' are reserved", 1, 13),
    ("ans(X) :- r(X) ; s(X).", "unexpected character ';'", 1, 16),
    ('ans(X) :- r(X, "a\\"b"), s(#).', "unexpected character '#'", 1, 27),
    # End of input after a trailing comment sits at the true end of the line.
    ("ans(X) :- r(X) % no dot", "expected ',' or '.'", 1, 24),
    ("ans(X) :- r(X). @answer (", "expected a relation name, found '('", 1, 25),
    ("ans(X) :- r(X Y).", "expected ',' or ')'", 1, 15),
    ('ans(X) :- r(X), "a" X.', "expected '=' or '!='", 1, 21),
    ("ans(X) :- r(X). @foo ans.", "unknown directive @foo", 1, 18),
    ("ans(X) :- r(X). @answer ans. @answer ans.", "duplicate @answer directive", 1, 30),
]


@pytest.mark.parametrize("text, message, line, column", TOKEN_ERRORS)
def test_token_error_positions(text, message, line, column):
    with pytest.raises(SourceError) as err:
        parse_program(text)
    assert (err.value.message, err.value.line, err.value.column) == (message, line, column)


X, Y, Z, W = var("X"), var("Y"), var("Z"), var("W")


def p(t):
    return RelLiteral("p", (t,))


def not_q(t):
    return RelLiteral("q", (t,), False)


def eq(a, b):
    return Comparison("eq", a, b)


SAFETY_CASES = [
    ("ans(X) :- p(Y), X = Z, Z = Y.", (p(Y), eq(X, Z), eq(Z, Y)), None),
    ("ans(X) :- p(X), Y = a, !q(Y).", (p(X), eq(Y, const("a")), not_q(Y)), None),
    ("ans(X) :- p(Y), X = a.", (p(Y), eq(X, const("a"))), None),
    ("ans(X) :- p(X), !q(Y), Y = Z, Z = X.", (p(X), not_q(Y), eq(Y, Z), eq(Z, X)), None),
    ("ans(X) :- p(X), !q(Z), Z = W.", (p(X), not_q(Z), eq(Z, W)), "W"),
    ("ans(X) :- p(X), X != Y.", (p(X), Comparison("neq", X, Y)), "Y"),
]


@pytest.mark.parametrize("text, body, loose", SAFETY_CASES)
def test_safety_through_equality_chains(text, body, loose):
    """The parser and make_program agree on safety, which equality chains
    carry from a positive literal or a constant to every variable."""
    rule = Rule("ans", (X,), body)
    assert render_rule(rule) == text
    if loose is None:
        assert parse_program(text).rules == (rule,)
        make_program([rule])
        return
    with pytest.raises(UnsafeRule, match=f"variable {loose} occurs in no positive literal"):
        parse_program(text)
    with pytest.raises(ValueError, match=f"variable '{loose}' of ans occurs in no positive literal"):
        make_program([rule])


class TestParseInstance:
    def test_basic(self):
        instance = parse_instance("r(a,b). r(b,c).")
        assert instance == Instance.of([Fact("r", ("a", "b")), Fact("r", ("b", "c"))])

    def test_duplicates_merge(self):
        assert len(parse_instance("r(a,b). r(a,b).")) == 1

    def test_variable_rejected(self):
        with pytest.raises(VariableInFact):
            parse_instance("r(X,b).")

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            parse_instance("r(a,b). r(a).")

    def test_empty_and_zero_arity(self):
        assert len(parse_instance("")) == 0
        assert parse_instance("marker.") == Instance.of([Fact("marker", ())])


class TestParseTuple:
    def test_basic(self):
        assert parse_tuple("(a,b,c)") == ("a", "b", "c")

    def test_empty(self):
        assert parse_tuple("()") == ()

    def test_variable_rejected(self):
        with pytest.raises(SourceError):
            parse_tuple("(a,X)")

    def test_numeric_constants(self):
        assert parse_tuple("(1,2,3)") == ("1", "2", "3")

    def test_list_parses_before_variable_check(self):
        with pytest.raises(SourceError) as err:
            parse_tuple("(X,,)")
        assert (err.value.message, err.value.line, err.value.column) == ("expected a term, found ','", 1, 4)


class TestParseFact:
    def test_fresh_opt_in(self):
        assert parse_fact("r(a,_c0)", allow_fresh=True) == Fact("r", ("a", "_c0"))
        with pytest.raises(SourceError):
            parse_fact("r(a,_c0)")

    def test_other_underscores_still_rejected(self):
        with pytest.raises(SourceError):
            parse_fact("r(_x)", allow_fresh=True)


class TestRoundTrip:
    def test_program_examples(self):
        for text in [
            "ans(X) :- R(X,Y).",
            "t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z). @answer t.",
            'ans(X,Y) :- r(X,Y), !s(Y), X != Y, Y = "odd name".',
            "ans :- marker, a != b.",
        ]:
            program = parse_program(text)
            assert parse_program(render_program(program)) == program

    def test_instance_quoting(self):
        instance = Instance.of([Fact("r", ("a", "strange value")), Fact("p", ("0x",))])
        assert parse_instance(render_instance(instance)) == instance

    def test_tuple(self):
        for target in [(), ("a",), ("a", "b c")]:
            assert parse_tuple(render_tuple(target)) == target

    @pytest.mark.parametrize("value", ["a\nb", "\n", 'x\\\n"y"\n'])
    def test_newline_in_a_constant(self, value):
        # A bare newline ends a string, so it is written after a backslash.
        instance = Instance.of([Fact("r", (value, "b")), Fact("p", (value,))])
        assert parse_instance(render_instance(instance)) == instance
        assert parse_fact(render_fact(Fact("r", (value, "b")))) == Fact("r", (value, "b"))
        assert parse_tuple(render_tuple((value, "b"))) == (value, "b")
        body = (RelLiteral("r", (var("X"), var("Y")), True), Comparison("neq", var("Y"), const(value)))
        program = make_program([Rule("ans", (var("X"),), body)], "ans")
        assert parse_program(render_program(program)) == program

    def test_fact_with_fresh(self):
        fact = Fact("r", ("_c0", "b"))
        assert parse_fact(render_fact(fact), allow_fresh=True) == fact

    def test_random_programs(self):
        from dlrepair import validate_program

        rng = random.Random(42)
        for _ in range(50):
            program = random_ucqneg_program(rng)
            reparsed = parse_program(render_program(program))
            assert reparsed == program
            validate_program(reparsed)

    def test_random_instances(self):
        rng = random.Random(43)
        for _ in range(50):
            instance = random_instance(rng)
            assert parse_instance(render_instance(instance)) == instance


def token_parse(text, monkeypatch):
    """``parse_instance``'s result for ``text`` by the token parser alone,
    or the error it raises, as ``(class, message)``, where the message
    holds the line and column."""
    with monkeypatch.context() as m:
        m.setattr(parser, "_scan_facts", lambda text: None)
        return outcome(text)


def outcome(text):
    try:
        return parse_instance(text)
    except ValueError as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)


def random_fact_text(rng: random.Random) -> str:
    """Fact lines near the strict subset that ``render_instance`` writes,
    with some pieces that leave it or are errors."""
    names = ["r", "s", "q", "R", "q1", "0x"] * 3 + ["_r"]
    values = ["a", "b", "c0", "1", "aB"] * 5 + ["X", "_c", '"a b"', "_c0"]
    lines = []
    for _ in range(rng.randint(0, 6)):
        name = rng.choice(names)
        shape = rng.random()
        if shape < 0.15:
            atom = name
        elif shape < 0.2:
            atom = name + "()"
        else:
            sep = rng.choice([",", ",", ",", ", "])
            atom = f"{name}({sep.join(rng.choice(values) for _ in range(rng.randint(1, 3)))})"
        end = rng.choice(["\n"] * 20 + ["\r\n", " \n", "", "\t\n", " % note\n"])
        lines.append(atom + rng.choice(["."] * 30 + [""]) + end)
    return "".join(lines)


class TestFactScan:
    """The one-regex scan of ``parse_instance`` and the token parser give the
    same instance, or the same error."""

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "r(a,b).\n",
            "r(a,b).\ns(c).\nr(b,a).\n",
            "r(a,b).",
            "r(a,b).\r\nr(b,c).\r\n",
            "r(a, b).\n",
            "r(a,b).\t\n",
            "\tr(a,b).\n",
            "r(a,b). r(b,c).\n",
            "r(a,b).\n\n",
            "r(a,b). % a comment\n",
            "% only a comment\n",
            'r("a b",c).\n',
            'r("a",c).\n',
            "q().\n",
            "q.\n",
            "q().\nq.\n",
            "R(a).\n",
            "Rel(a1,b_2).\n",
            "0x(1,2).\n",
            "r(aB,c_).\n",
            "_r(a).\n",
            "r(_a).\n",
            "r(_c0).\n",
            "r(X,b).\n",
            "r(a,Y).\n",
            "r(a,b).\nr(a).\n",
            "q.\nq(a).\n",
            "r(a,b)\n",
            "r(a,,b).\n",
            "r(a b).\n",
            "r(a,b).\nr(é).\n",
        ],
    )
    def test_hand_written(self, text, monkeypatch):
        assert outcome(text) == token_parse(text, monkeypatch)

    def test_random_texts(self, monkeypatch):
        rng = random.Random(44)
        scanned = 0
        for _ in range(600):
            text = random_fact_text(rng)
            expected = token_parse(text, monkeypatch)
            assert outcome(text) == expected, text
            if parser._scan_facts(text) is not None:
                scanned += 1
                assert parser._scan_facts(text) == expected, text
        assert 50 < scanned < 550

    def test_rendered_instances_take_the_scan(self, monkeypatch):
        def no_tokens(*args, **kwargs):
            raise AssertionError("the token parser ran")

        monkeypatch.setattr(parser, "_Parser", no_tokens)
        rng = random.Random(45)
        schema = (("r", 2), ("p", 1), ("marker", 0), ("t", 3))
        for _ in range(100):
            instance = random_instance(rng, consts=("a", "b", "1", "c0"), schema=schema)
            assert parse_instance(render_instance(instance)) == instance


def tuple_outcome(text):
    try:
        return parse_tuple(text)
    except ValueError as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)


class TestTupleScan:
    """The one-regex scan of ``parse_tuple`` and the token parser give the
    same tuple, or the same error."""

    @staticmethod
    def token_parse(text, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(parser, "_TUPLE_RE", re.compile(r"(?!)"))
            return tuple_outcome(text)

    @pytest.mark.parametrize(
        "text",
        [
            "()",
            "(a)",
            "(a1,a2,a3,a4,a5)",
            "(v49,v30)",
            "(0x,1,aB,c_)",
            "( )",
            "(a, b)",
            " (a)",
            "(a)\n",
            "(a)\r\n",
            '("a b",c)',
            '("a")',
            "(X)",
            "(a,Y)",
            "(_a)",
            "(_c0)",
            "(a_,_)",
            "(é)",
            "(aé)",
            "(a,,b)",
            "(a,)",
            "(,a)",
            "(a",
            "a)",
            "a",
            "",
            "(a)(b)",
            "(a).",
            "(a) % note",
            "(a b)",
        ],
    )
    def test_hand_written(self, text, monkeypatch):
        assert tuple_outcome(text) == self.token_parse(text, monkeypatch)

    def test_random_texts(self, monkeypatch):
        rng = random.Random(46)
        pieces = ["a", "b", "c0", "1", "aB", "x_y"] * 4 + ["X", "_c", "_c0", '"a b"', "é", ""]
        scanned = 0
        for _ in range(600):
            sep = rng.choice([",", ",", ",", ", ", ",,"])
            text = "(" + sep.join(rng.choice(pieces) for _ in range(rng.randint(0, 4))) + ")"
            text = rng.choice([""] * 8 + [" ", "\t"]) + text + rng.choice([""] * 8 + ["\n", " ", "."])
            expected = self.token_parse(text, monkeypatch)
            assert tuple_outcome(text) == expected, text
            scanned += parser._TUPLE_RE.fullmatch(text) is not None
        assert 100 < scanned < 500

    def test_rendered_tuples_take_the_scan(self, monkeypatch):
        def no_tokens(*args, **kwargs):
            raise AssertionError("the token parser ran")

        monkeypatch.setattr(parser, "_Parser", no_tokens)
        rng = random.Random(47)
        for _ in range(100):
            values = tuple(rng.choice(("a", "b", "1", "c0", "x_Y")) for _ in range(rng.randint(0, 5)))
            assert parse_tuple(render_tuple(values)) == values

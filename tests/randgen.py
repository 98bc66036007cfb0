"""Seeded random input generators shared by the property and acceptance tests.

Everything takes an explicit random.Random so each test pins its own seed.
Rules are generated safe by construction: positive literals are drawn first
and every variable of the rule occurs in one of them.
"""

from __future__ import annotations

import random

from dlrepair import (
    Comparison,
    Fact,
    Instance,
    Program,
    RelLiteral,
    Rule,
    const,
    make_program,
    var,
)

CONSTS = ("a", "b", "c", "d")
VAR_NAMES = ("X", "Y", "Z", "W")

BINARY_SCHEMA = (("r", 2), ("p", 1))
UNARY_SCHEMA = (("p", 1), ("q", 1))


def random_cqneg_rule(
    rng: random.Random,
    head_arity: int,
    answer: str = "ans",
    max_literals: int = 5,
    max_vars: int = 4,
    consts: tuple[str, ...] = CONSTS,
    schema: tuple[tuple[str, int], ...] = BINARY_SCHEMA,
    negation: bool = True,
    repeat: float = 0.0,
) -> Rule:
    pool = VAR_NAMES[: rng.randint(1, max_vars)]
    n_literals = rng.randint(1, max_literals)
    n_pos = rng.randint(1, n_literals)
    body: list = []
    seen: set[str] = set()

    def relation(copy: float) -> tuple[str, int] | RelLiteral:
        """A schema relation, or with probability ``repeat`` an earlier
        literal's, or with probability ``repeat * copy`` that literal."""
        earlier = [lit for lit in body if isinstance(lit, RelLiteral)]
        if repeat and earlier and rng.random() < repeat:
            lit = rng.choice(earlier)
            return lit if rng.random() < copy else (lit.relation, len(lit.args))
        return schema[rng.randrange(len(schema))]

    for i in range(n_pos):
        drawn = relation(0.5)
        if isinstance(drawn, RelLiteral):
            body.append(drawn)
            continue
        rel, arity = drawn
        args = []
        for k in range(arity):
            force_var = i == 0 and k == 0 and head_arity > 0
            if force_var or rng.random() < 0.8:
                v = rng.choice(pool)
                args.append(var(v))
                seen.add(v)
            else:
                args.append(const(rng.choice(consts)))
        body.append(RelLiteral(rel, tuple(args), True))
    usable = sorted(seen) or list(pool[:1])

    def term():
        if seen and rng.random() < 0.7:
            return var(rng.choice(usable))
        return const(rng.choice(consts))

    for _ in range(n_literals - n_pos):
        if negation and rng.random() < 0.5:
            rel, arity = relation(0.0)
            args = tuple(term() for _ in range(arity))
            if any(t.is_variable and t.name not in seen for t in args):
                continue
            body.append(RelLiteral(rel, args, False))
        else:
            left, right = term(), term()
            if (left.is_variable and left.name not in seen) or (
                right.is_variable and right.name not in seen
            ):
                continue
            body.append(Comparison(rng.choice(("eq", "neq")), left, right))
    head = tuple(var(rng.choice(usable)) for _ in range(head_arity)) if seen else ()
    if head_arity > 0 and not seen:
        # all-constant positives cannot bind a head variable; fall back to a
        # fresh positive literal carrying one
        body.insert(0, RelLiteral(schema[0][0], tuple([var(pool[0])] * schema[0][1]), True))
        head = tuple(var(pool[0]) for _ in range(head_arity))
    return Rule(answer, head, tuple(body))


def random_ucqneg_program(
    rng: random.Random,
    max_rules: int = 3,
    max_literals: int = 5,
    max_vars: int = 4,
    max_arity: int = 2,
    consts: tuple[str, ...] = CONSTS,
    schema: tuple[tuple[str, int], ...] = BINARY_SCHEMA,
    negation: bool = True,
    repeat: float = 0.0,
) -> Program:
    arity = rng.randint(0, max_arity)
    rules = [
        random_cqneg_rule(
            rng,
            arity,
            max_literals=max_literals,
            max_vars=max_vars,
            consts=consts,
            schema=schema,
            negation=negation,
            repeat=repeat,
        )
        for _ in range(rng.randint(1, max_rules))
    ]
    return make_program(rules, "ans")


def random_instance(
    rng: random.Random,
    max_facts: int = 8,
    consts: tuple[str, ...] = CONSTS,
    schema: tuple[tuple[str, int], ...] = BINARY_SCHEMA,
) -> Instance:
    facts = set()
    for _ in range(rng.randint(0, max_facts)):
        rel, arity = schema[rng.randrange(len(schema))]
        facts.add(Fact(rel, tuple(rng.choice(consts) for _ in range(arity))))
    return Instance(frozenset(facts))


def random_target(rng: random.Random, arity: int, consts: tuple[str, ...] = CONSTS) -> tuple[str, ...]:
    return tuple(rng.choice(consts) for _ in range(arity))


def satisfying_assignment(rule: Rule, rng: random.Random, consts: tuple[str, ...], tries: int = 30):
    """A random total assignment satisfying the rule's comparisons, or None."""
    names = sorted(rule.all_vars)
    for _ in range(tries):
        g = {v: rng.choice(consts) for v in names}

        def val(t):
            return g[t.name] if t.is_variable else t.name

        if all(c.holds(val(c.left), val(c.right)) for c in rule.comparisons()):
            return g
    return None


def planted_input(
    rng: random.Random,
    max_rules: int = 2,
    max_literals: int = 5,
    max_vars: int = 3,
    consts: tuple[str, ...] = ("a", "b", "c"),
    schema: tuple[tuple[str, int], ...] = BINARY_SCHEMA,
):
    """A query, instance and target for which a small repair is guaranteed:
    the instance is the demanded facts of a comparison-satisfying
    assignment with at most one demanded fact removed, at most one
    forbidden fact added, and a little noise."""
    while True:
        program = random_ucqneg_program(
            rng, max_rules=max_rules, max_literals=max_literals, max_vars=max_vars, consts=consts, schema=schema
        )
        rule = program.rules[rng.randrange(len(program.rules))]
        g = satisfying_assignment(rule, rng, consts)
        if g is None:
            continue

        def val(t):
            return g[t.name] if t.is_variable else t.name

        required = set()
        forbidden = set()
        conflict = False
        for lit in rule.relational_literals():
            fact = Fact(lit.relation, tuple(val(t) for t in lit.args))
            (required if lit.positive else forbidden).add(fact)
            conflict = conflict or (fact in required and fact in forbidden)
        if conflict:
            continue
        target = tuple(val(t) for t in rule.head_args)
        facts = set(required)
        if facts and rng.random() < 0.6:
            facts.discard(rng.choice(sorted(facts)))
        if forbidden and rng.random() < 0.4:
            facts.add(rng.choice(sorted(forbidden)))
        for _ in range(rng.randint(0, 2)):
            rel, arity = schema[rng.randrange(len(schema))]
            noise = Fact(rel, tuple(rng.choice(consts) for _ in range(arity)))
            if noise not in forbidden:
                facts.add(noise)
        return program, Instance(frozenset(facts)), target


def random_projection_free_rule(rng: random.Random, consts: tuple[str, ...] = CONSTS) -> Rule:
    """Every body variable occurs in the head, and every variable occurs in
    some positive literal (the rule is safe by construction)."""
    names = VAR_NAMES[: rng.randint(1, 3)]
    seen: set[str] = set()
    body: list = []
    for i in range(rng.randint(1, 3)):
        rel, arity = BINARY_SCHEMA[rng.randrange(2)]
        args = []
        for k in range(arity):
            if (i == 0 and k == 0) or rng.random() < 0.8:
                v = rng.choice(names)
                args.append(var(v))
                seen.add(v)
            else:
                args.append(const(rng.choice(consts)))
        body.append(RelLiteral(rel, tuple(args), True))
    usable = sorted(seen)
    for _ in range(rng.randint(0, 2)):
        rel, arity = BINARY_SCHEMA[rng.randrange(2)]
        args = tuple(
            var(rng.choice(usable)) if rng.random() < 0.8 else const(rng.choice(consts))
            for _ in range(arity)
        )
        body.append(RelLiteral(rel, args, False))
    if rng.random() < 0.4:
        body.append(Comparison(rng.choice(("eq", "neq")), var(rng.choice(usable)), const(rng.choice(consts))))
    head = tuple(var(v) for v in usable)
    head = head + tuple(var(rng.choice(usable)) for _ in range(rng.randint(0, 1)))
    return Rule("ans", head, tuple(body))


def random_join_free_rule(rng: random.Random, consts: tuple[str, ...] = CONSTS) -> Rule:
    n_vars = rng.randint(1, 3)
    names = VAR_NAMES[:n_vars]
    rel, arity = BINARY_SCHEMA[rng.randrange(2)]
    positive = rng.random() < 0.6
    args = tuple(
        var(rng.choice(names)) if rng.random() < 0.85 else const(rng.choice(consts))
        for _ in range(arity)
    )
    body: list = [RelLiteral(rel, args, positive)]
    used = sorted({t.name for t in args if t.is_variable})
    if used and rng.random() < 0.5:
        body.append(
            Comparison(
                rng.choice(("eq", "neq")),
                var(rng.choice(used)),
                const(rng.choice(consts)) if rng.random() < 0.5 else var(rng.choice(used)),
            )
        )
    head_pool = used or []
    head_arity = rng.randint(0, len(head_pool))
    head = tuple(var(v) for v in rng.sample(head_pool, head_arity)) if head_pool else ()
    return Rule("ans", head, tuple(body))


def random_datalog_program(
    rng: random.Random, semipositive: bool, extra_shapes: bool = False, answer_edge: bool = False
) -> Program:
    """Small fixpoint programs built from a family of safe rule shapes:
    a base rule, optional recursion (linear or nonlinear), and an answer
    rule; semi-positive variants sprinkle negated extensional atoms and
    inequalities.  ``extra_shapes`` adds, at random, ``X = c`` atoms,
    constant arguments and a second, recursive derived symbol ``s``.
    ``answer_edge`` gives the answer rule a literal over ``e``, the relation
    that ``t`` reads, whose arguments are head variables (pinned by the
    target) or constants, negated at random in semi-positive programs.
    Both options draw nothing from ``rng`` when off, so existing seeds keep
    their programs."""
    rules = [Rule("t", (var("X"), var("Y")), (RelLiteral("e", (var("X"), var("Y"))),))]
    if rng.random() < 0.8:
        recursive = rng.choice(
            (
                Rule(
                    "t",
                    (var("X"), var("Z")),
                    (RelLiteral("e", (var("X"), var("Y"))), RelLiteral("t", (var("Y"), var("Z")))),
                ),
                Rule(
                    "t",
                    (var("X"), var("Z")),
                    (RelLiteral("t", (var("X"), var("Y"))), RelLiteral("t", (var("Y"), var("Z")))),
                ),
            )
        )
        rules.append(recursive)
    answer_body: list = [RelLiteral("t", (var("X"), var("Y")))]
    if semipositive and rng.random() < 0.8:
        answer_body.append(RelLiteral("u", (var("X"),), False))
    if semipositive and rng.random() < 0.4:
        answer_body.append(Comparison("neq", var("X"), var("Y")))
    if rng.random() < 0.3:
        answer_body.append(RelLiteral("u", (var("Y"),)))
    if extra_shapes:
        if rng.random() < 0.4:
            answer_body.append(Comparison("eq", var(rng.choice("XY")), const(rng.choice(CONSTS[:3]))))
        if rng.random() < 0.4:
            positive = not semipositive or rng.random() < 0.5
            answer_body.append(RelLiteral("e", (var("Y"), const(rng.choice(CONSTS[:3]))), positive))
        if rng.random() < 0.6:
            step: list = [RelLiteral("e", (var("X"), var("Y"))), RelLiteral("s", (var("Y"),))]
            if semipositive and rng.random() < 0.5:
                step.append(RelLiteral("u", (var("X"),), False))
            rules.append(Rule("s", (var("X"),), (RelLiteral("u", (var("X"),)),)))
            rules.append(Rule("s", (var("X"),), tuple(step)))
            answer_body.append(RelLiteral("s", (var(rng.choice("XY")),)))
    head = (var("X"),) if rng.random() < 0.5 else (var("X"), var("Y"))
    if answer_edge:
        args = tuple(rng.choice(head) if rng.random() < 0.6 else const(rng.choice(CONSTS[:3])) for _ in range(2))
        answer_body.append(RelLiteral("e", args, not semipositive or rng.random() < 0.5))
    rules.append(Rule("ans", head, tuple(answer_body)))
    return make_program(rules, "ans", extra_schema={"e": 2, "u": 1})


def random_datalog_instance(
    rng: random.Random, max_facts: int = 10, consts: tuple[str, ...] = ("a", "b", "c", "d", "e")
) -> Instance:
    facts = set()
    for _ in range(rng.randint(0, max_facts)):
        if rng.random() < 0.7:
            facts.add(Fact("e", (rng.choice(consts), rng.choice(consts))))
        else:
            facts.add(Fact("u", (rng.choice(consts),)))
    return Instance(frozenset(facts))


def random_renaming(rng: random.Random, fixed: set[str], movable: set[str]) -> dict[str, str]:
    """A random injective map moving only constants outside ``fixed``: a
    permutation of the movable constants together with unused user-style
    names."""
    movable = sorted(set(movable) - fixed)
    extra: list[str] = []
    i = 0
    while len(extra) < len(movable):
        name = f"z{i}"
        i += 1
        if name not in fixed and name not in movable:
            extra.append(name)
    targets = movable + extra
    rng.shuffle(targets)
    chosen = targets[: len(movable)]
    return dict(zip(movable, chosen))

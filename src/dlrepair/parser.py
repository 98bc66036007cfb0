"""Text grammars for programs, fact databases and tuples.

This is the only place raw text becomes model values, and the only place
model values become text again.  The token grammar is stated once, in the
regular expression ``_TOKEN_RE``; the statement grammar in summary:

* one statement per ``.``; ``%`` starts a line comment
* rule:       ``head :- lit, lit, ... .`` with head ``name(t1,...,tk)`` or
  bare ``name`` for arity 0
* body literal: relational atom, ``!``-negated relational atom, ``t1 = t2``
  or ``t1 != t2``
* directive:  ``@answer name.`` (otherwise the first rule's head is the
  answer predicate)
* fact:       ``name(c1,...,ck).`` with constants only
* variables match ``[A-Z][A-Za-z0-9_]*``; constants match
  ``[a-z0-9][A-Za-z0-9_]*`` or a double-quoted string
* constants starting with ``_`` are reserved for internally generated fresh
  constants and are rejected in user input; ``parse_fact`` can opt in to
  them so machine-produced repair output round-trips

Constants in rule heads are desugared into equality atoms over fresh
variables, so parsed rules always satisfy the model invariants.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

from .model import (
    ArityMismatch,
    Comparison,
    Fact,
    Instance,
    Program,
    RelLiteral,
    Rule,
    Term,
    body_terms,
    const,
    is_fresh_constant,
    ungrounded_vars,
    var,
)

_BARE_CONST_RE = re.compile(r"[a-z0-9][A-Za-z0-9_]*\Z")
_VAR_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")


class SourceError(ValueError):
    """A problem in the input text; positions are 1-based."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class UnsafeRule(SourceError):
    """Some variable of the rule occurs in no positive body literal and is
    not forced by equality atoms."""


class NegatedIdb(SourceError):
    """A negative literal names an intensional (derived) symbol."""


class UndefinedIdb(SourceError):
    """An intensional symbol has no defining rule."""


class VariableInFact(SourceError):
    """A fact statement contains a variable."""


class _Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int


# One named group per token kind.  Positions come from match offsets; only
# NEWLINE starts a line, so a backslash-escaped newline in a string does not.
_TOKEN_RE = re.compile(
    r"""(?P<IDENT>\w+)
    |(?P<SKIP>[^\S\n]+|%[^\n]*)
    |(?P<NEQ>!=)
    |(?P<PUNCT>[(),.!=@])
    |(?P<IF>:-)
    |(?P<NEWLINE>\n)
    |(?P<STRING>"(?:[^"\\\n]|\\[\s\S])*")
    |(?P<BAD>[\s\S])""",
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\([\s\S])")
_PUNCT = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT", "!": "BANG", "=": "EQ", "@": "AT"}
_BAD_MESSAGE = {":": "expected ':-'", '"': "unterminated string"}


def _tokenize(text: str, allow_fresh: bool) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
            continue
        value, column = m.group(), m.start() - line_start + 1
        if kind == "BAD":
            raise SourceError(_BAD_MESSAGE.get(value, f"unexpected character {value!r}"), line, column)
        if kind == "PUNCT":
            kind = _PUNCT[value]
        elif kind == "STRING":
            value = _ESCAPE_RE.sub(r"\1", value[1:-1])
            if value.startswith("_"):
                raise SourceError("constants starting with '_' are reserved", line, column)
        elif kind == "IDENT" and value.startswith("_") and not (allow_fresh and is_fresh_constant(value)):
            raise SourceError("names starting with '_' are reserved", line, column)
        tokens.append(_Token(kind, value, line, column))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, allow_fresh: bool = False):
        self.tokens = _tokenize(text, allow_fresh)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise SourceError(f"expected {what}, found {tok.value or 'end of input'!r}", tok.line, tok.column)
        return tok

    def term(self) -> tuple[Term, _Token]:
        tok = self.next()
        if tok.kind == "STRING":
            return const(tok.value), tok
        if tok.kind == "IDENT":
            if _VAR_RE.match(tok.value):
                return var(tok.value), tok
            return const(tok.value), tok
        raise SourceError(f"expected a term, found {tok.value or 'end of input'!r}", tok.line, tok.column)

    def term_list(self) -> tuple[list[Term], list[_Token]]:
        terms: list[Term] = []
        toks: list[_Token] = []
        self.expect("LPAREN", "'('")
        if self.peek().kind == "RPAREN":
            self.next()
            return terms, toks
        while True:
            t, tok = self.term()
            terms.append(t)
            toks.append(tok)
            nxt = self.next()
            if nxt.kind == "RPAREN":
                return terms, toks
            if nxt.kind != "COMMA":
                raise SourceError("expected ',' or ')'", nxt.line, nxt.column)

    def atom(self) -> tuple[str, list[Term], _Token]:
        tok = self.expect("IDENT", "a relation name")
        if self.peek().kind == "LPAREN":
            terms, _ = self.term_list()
            return tok.value, terms, tok
        return tok.value, [], tok


def _body_literal(p: _Parser) -> tuple:
    """Returns ("rel", RelLiteral, token) or ("cmp", Comparison, token)."""
    tok = p.peek()
    if tok.kind == "BANG":
        p.next()
        name, terms, name_tok = p.atom()
        return "rel", RelLiteral(name, tuple(terms), positive=False), name_tok
    if tok.kind == "IDENT" and p.peek(1).kind not in ("EQ", "NEQ"):
        name, terms, name_tok = p.atom()
        return "rel", RelLiteral(name, tuple(terms), positive=True), name_tok
    left, left_tok = p.term()
    op_tok = p.next()
    if op_tok.kind == "EQ":
        op = "eq"
    elif op_tok.kind == "NEQ":
        op = "neq"
    else:
        raise SourceError("expected '=' or '!='", op_tok.line, op_tok.column)
    right, _ = p.term()
    return "cmp", Comparison(op, left, right), left_tok


def _desugar_head(terms: list[Term], used: set[str]) -> tuple[tuple[Term, ...], list[Comparison]]:
    """Replace head constants with fresh variables bound by equality atoms."""
    head: list[Term] = []
    extra: list[Comparison] = []
    counter = 0
    for t in terms:
        if t.is_variable:
            head.append(t)
            continue
        while f"X{counter}" in used:
            counter += 1
        fresh = var(f"X{counter}")
        used.add(fresh.name)
        head.append(fresh)
        extra.append(Comparison("eq", fresh, t))
    return tuple(head), extra


# Bounded, since a long-lived process may parse many distinct queries.
@functools.lru_cache(maxsize=256)
def parse_program(text: str) -> Program:
    """The program that ``text`` states, memoised by the text: equal texts
    get the same ``Program`` and ``Rule`` objects, so the caches keyed by
    rules hit by identity.  The result is shared between callers and must
    not be mutated.  A text that raises is not remembered."""
    p = _Parser(text)
    rules: list[Rule] = []
    rule_tokens: list[tuple[_Token, list[tuple[RelLiteral, _Token]]]] = []
    answer: str | None = None
    answer_tok: _Token | None = None
    arities: dict[str, int] = {}

    def see_arity(symbol: str, arity: int, tok: _Token) -> None:
        known = arities.setdefault(symbol, arity)
        if known != arity:
            raise ArityMismatch(
                f"line {tok.line}, column {tok.column}: "
                f"{symbol} used with arity {arity}, previously {known}"
            )

    while p.peek().kind != "EOF":
        if p.peek().kind == "AT":
            at = p.next()
            word = p.expect("IDENT", "a directive name")
            if word.value != "answer":
                raise SourceError(f"unknown directive @{word.value}", word.line, word.column)
            if answer is not None:
                raise SourceError("duplicate @answer directive", at.line, at.column)
            name_tok = p.expect("IDENT", "a relation name")
            answer, answer_tok = name_tok.value, name_tok
            p.expect("DOT", "'.'")
            continue
        head_tok = p.peek()
        head_name, head_terms, _ = p.atom()
        used_vars = {t.name for t in head_terms if t.is_variable}
        p.expect("IF", "':-'")
        body: list = []
        rel_spans: list[tuple[RelLiteral, _Token]] = []
        while True:
            kind, lit, tok = _body_literal(p)
            body.append(lit)
            if kind == "rel":
                rel_spans.append((lit, tok))
                see_arity(lit.relation, len(lit.args), tok)
            nxt = p.next()
            if nxt.kind == "DOT":
                break
            if nxt.kind != "COMMA":
                raise SourceError("expected ',' or '.'", nxt.line, nxt.column)
        used_vars.update(t.name for t in body_terms(body) if t.is_variable)
        head_args, extra = _desugar_head(head_terms, used_vars)
        see_arity(head_name, len(head_args), head_tok)
        rule = Rule(head_name, head_args, tuple(extra) + tuple(body))
        rules.append(rule)
        rule_tokens.append((head_tok, rel_spans))

    if not rules:
        tok = p.peek()
        raise SourceError("empty program", tok.line, tok.column)
    if answer is None:
        answer = rules[0].head
    heads = {r.head for r in rules}
    if answer not in heads:
        assert answer_tok is not None
        raise UndefinedIdb(f"answer predicate {answer} has no defining rule", answer_tok.line, answer_tok.column)
    for rule, (head_tok, rel_spans) in zip(rules, rule_tokens):
        for lit, tok in rel_spans:
            if not lit.positive and lit.relation in heads:
                raise NegatedIdb(f"negated intensional symbol {lit.relation}", tok.line, tok.column)
        missing = rule.free_vars - rule.body_vars
        if missing:
            raise UnsafeRule(
                f"head variable {sorted(missing)[0]} does not occur in the body",
                head_tok.line,
                head_tok.column,
            )
        loose = ungrounded_vars(rule)
        if loose:
            raise UnsafeRule(
                f"variable {sorted(loose)[0]} occurs in no positive literal",
                head_tok.line,
                head_tok.column,
            )
    schema = {sym: arity for sym, arity in arities.items() if sym not in heads}
    return Program(tuple(rules), answer, schema)


def _fact(p: _Parser) -> tuple[Fact, _Token]:
    """The next atom as a fact, with the token of its relation name."""
    name, terms, name_tok = p.atom()
    for t in terms:
        if t.is_variable:
            raise VariableInFact(f"variable {t.name} in fact", name_tok.line, name_tok.column)
    return Fact(name, tuple(t.name for t in terms)), name_tok


# Bare constants separated by commas, as ``render_constant`` writes them.
_BARE_CONSTS = r"(?:[a-z0-9][A-Za-z0-9_]*(?:,[a-z0-9][A-Za-z0-9_]*)*)?"
# One fact per line as ``render_instance`` writes it over bare constants,
# or any other character, which sends the text to the token parser.
_FACT_LINE_RE = re.compile(rf"([A-Za-z0-9][A-Za-z0-9_]*)(?:\(({_BARE_CONSTS})\))?\.\n|([\s\S])")
# A tuple as ``render_tuple`` writes it over bare constants.
_TUPLE_RE = re.compile(rf"\(({_BARE_CONSTS})\)")


def _scan_facts(text: str) -> Instance | None:
    """The instance of a text made only of ``rel(c1,...,ck).`` lines, with
    bare constants and each relation at one arity, else None."""
    facts: set[Fact] = set()
    arities: dict[str, int] = {}
    for relation, args, other in _FACT_LINE_RE.findall(text):
        if other:
            return None
        values = tuple(args.split(",")) if args else ()
        if arities.setdefault(relation, len(values)) != len(values):
            return None
        facts.add(Fact(relation, values))
    return Instance(frozenset(facts))


def parse_instance(text: str) -> Instance:
    """The facts that ``text`` states.  A text in the strict subset that
    ``render_instance`` writes (one ``rel(c1,...,ck).`` per line, ``rel.``
    at arity 0, bare constants, a newline after each line, one arity per
    relation) is read by one regular expression; any other text, and every
    error, goes through the token parser, which gives the same instance."""
    scanned = _scan_facts(text)
    if scanned is not None:
        return scanned
    p = _Parser(text)
    facts: set[Fact] = set()
    arities: dict[str, int] = {}
    while p.peek().kind != "EOF":
        fact, name_tok = _fact(p)
        known = arities.setdefault(fact.relation, len(fact.args))
        if known != len(fact.args):
            raise ArityMismatch(
                f"line {name_tok.line}, column {name_tok.column}: "
                f"{fact.relation} used with arity {len(fact.args)}, previously {known}"
            )
        p.expect("DOT", "'.'")
        facts.add(fact)
    return Instance(frozenset(facts))


def parse_tuple(text: str) -> tuple[str, ...]:
    """The constants of a tuple ``(c1,...,ck)``.  A tuple over bare
    constants with no spaces, as ``render_tuple`` writes it, is read by one
    regular expression; any other text, and every error, goes through the
    token parser, which gives the same tuple."""
    scanned = _TUPLE_RE.fullmatch(text)
    if scanned is not None:
        return tuple(scanned[1].split(",")) if scanned[1] else ()
    p = _Parser(text)
    terms, toks = p.term_list()
    for t, tok in zip(terms, toks):
        if t.is_variable:
            raise SourceError("variables are not allowed in a tuple", tok.line, tok.column)
    p.expect("EOF", "end of input")
    return tuple(t.name for t in terms)


def parse_fact(text: str, allow_fresh: bool = False) -> Fact:
    """Parse a single fact like ``r(a,b)`` (no trailing dot).

    ``allow_fresh`` admits machine-generated fresh constants (``_c0`` ...),
    which the file grammars reject; it is used to round-trip repair output.
    """
    p = _Parser(text, allow_fresh=allow_fresh)
    fact, _ = _fact(p)
    p.expect("EOF", "end of input")
    return fact


# ---------------------------------------------------------------------------
# Rendering (the inverse direction of the same grammar)


def render_constant(name: str) -> str:
    if _BARE_CONST_RE.match(name) or is_fresh_constant(name):
        return name
    # A newline is written as a backslash and a newline, which a string
    # token reads back; a bare newline would end it.
    escaped = name.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\\n")
    return f'"{escaped}"'


def render_term(term: Term) -> str:
    return term.name if term.is_variable else render_constant(term.name)


def render_fact(fact: Fact) -> str:
    if not fact.args:
        return fact.relation
    return f"{fact.relation}({','.join(render_constant(a) for a in fact.args)})"


def render_literal(lit) -> str:
    if isinstance(lit, Comparison):
        op = "=" if lit.op == "eq" else "!="
        return f"{render_term(lit.left)} {op} {render_term(lit.right)}"
    args = f"({','.join(render_term(t) for t in lit.args)})" if lit.args else ""
    return f"{'' if lit.positive else '!'}{lit.relation}{args}"


def render_rule(rule: Rule) -> str:
    head = rule.head
    if rule.head_args:
        head += f"({','.join(render_term(t) for t in rule.head_args)})"
    return f"{head} :- {', '.join(render_literal(lit) for lit in rule.body)}."


def render_program(program: Program) -> str:
    lines = [f"@answer {program.answer}."]
    lines.extend(render_rule(r) for r in program.rules)
    return "\n".join(lines) + "\n"


def render_instance(instance: Instance) -> str:
    return "".join(f"{render_fact(f)}.\n" for f in instance)


def render_tuple(values: tuple[str, ...]) -> str:
    return f"({','.join(render_constant(v) for v in values)})"

"""Command-line interface.

Exit status: 0 on success (or a true answer / found repair), 1 for a false
answer or no repair, 2 when a budget-capped search comes back empty, 64 for
usage errors, 65 for input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import repair as repair_mod
from . import sat as sat_mod
from . import setcover as setcover_mod
from .classify import classify
from .engine import eval_member
from .model import ArityMismatch, Instance, InvalidUpdate, Program, Update
from .parser import (
    SourceError,
    parse_fact,
    parse_instance,
    parse_program,
    parse_tuple,
    render_fact,
    render_instance,
    render_program,
    render_tuple,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64
EXIT_INPUT = 65

_STATUS_EXIT = {
    repair_mod.FOUND: EXIT_OK,
    repair_mod.NO_REPAIR: EXIT_FALSE,
    repair_mod.BUDGET_EXHAUSTED: EXIT_BUDGET,
}


class _UsageError(Exception):
    pass


class _Command(NamedTuple):
    """What ``_fast_parse`` reads of one command: the action of each option
    string, the default of each dest in declaration order, and the dests
    that must be given."""

    options: dict[str, argparse.Action]
    defaults: dict[str, object]
    required: tuple[str, ...]


class _Parser(argparse.ArgumentParser):
    commands: dict[str, _Command]

    def error(self, message: str):  # noqa: A003 - argparse API
        raise _UsageError(message)


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, with the option table of each command in
    ``commands``, made from the actions that its ``add_argument`` calls
    return."""
    parser = _Parser(prog="dlrepair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    declared: dict[str, list[argparse.Action]] = {}

    def command(name: str, summary: str) -> Callable[..., None]:
        p = sub.add_parser(name, help=summary)
        actions = declared[name] = []
        return lambda *flags, **kwargs: actions.append(p.add_argument(*flags, **kwargs))

    def io_args(add: Callable[..., None], data: bool = True, tup: bool = True) -> None:
        add("-q", "--query", required=True, help="query file (.dl)")
        if data:
            add("-d", "--data", required=True, help="fact database file (.facts)")
        if tup:
            add("-t", "--tuple", required=True, dest="tuple_text", help='target tuple, e.g. "(a,b)"')

    io_args(command("classify", "report the query's syntactic fragment"), data=False, tup=False)
    io_args(command("eval", "is the tuple in the answer?"))
    io_args(command("decide", "does any repair exist?"))
    add = command("bound", "does a repair of size at most k exist?")
    io_args(add)
    add("-k", type=_non_negative_int, required=True)
    add = command("size", "minimum repair size")
    io_args(add)
    add("--budget", type=_non_negative_int, default=None)
    add = command("repair", "compute a minimum repair")
    io_args(add)
    add("--budget", type=_non_negative_int, default=None)
    add("--oracle", action="store_true", help="use the brute-force reference search")
    add("--json", action="store_true", dest="as_json")
    io_args(command("sat", "is the query satisfiable?"), data=False, tup=False)
    add = command("gen-setcover", "generate a random set-cover instance")
    add("--seed", type=int, required=True)
    add("-n", type=int, required=True, help="universe size")
    add("-m", type=int, required=True, help="number of sets")
    add("--density", type=float, required=True)
    add = command("reduce-setcover", "translate a set-cover instance into a repair problem")
    add("-i", "--input", required=True, help="set-cover file")
    add("-o", "--outdir", required=True)
    add = command("extract-cover", "turn a repair back into a set cover")
    add("-i", "--input", required=True, help="set-cover file")
    add("--repair", required=True, dest="repair_json", help="repair JSON file")
    parser.commands = {
        name: _Command(
            {flag: a for a in actions for flag in a.option_strings},
            {a.dest: a.default for a in actions},
            tuple(a.dest for a in actions if a.required),
        )
        for name, actions in declared.items()
    }
    return parser


def _fast_parse(argv: list[str]) -> argparse.Namespace | None:
    """The namespace that ``_build_parser().parse_args(argv)`` returns, read
    without argparse when ``argv`` is a command followed only by exact
    option strings of that command, each option that takes a value followed
    by a value that does not start with ``-`` and that its type accepts,
    and every required option present.  None for any other argv (help,
    abbreviations, ``--opt=value``, ``-qFILE``, ``--`` and every usage
    error), which argparse then reads."""
    command = _build_parser().commands.get(argv[0]) if argv else None
    if command is None:
        return None
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        action = command.options.get(token)
        if action is None:
            return None
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        try:
            values[action.dest] = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
    if not all(dest in values for dest in command.required):
        return None
    return argparse.Namespace(command=argv[0], **{**command.defaults, **values})


def _argparse(argv: list[str], out, err) -> argparse.Namespace | int:
    """``_build_parser().parse_args(argv)``, or the exit code once argparse
    has written help to ``out`` or a usage error to ``err``."""
    try:
        with contextlib.redirect_stdout(out):
            return _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return EXIT_USAGE
    except SystemExit as exc:
        return exc.code


def _load(args) -> tuple[Program, Instance | None, tuple[str, ...] | None]:
    program = parse_program(Path(args.query).read_text())
    instance = None
    target = None
    if getattr(args, "data", None) is not None:
        instance = parse_instance(Path(args.data).read_text())
    if getattr(args, "tuple_text", None) is not None:
        target = parse_tuple(args.tuple_text)
    return program, instance, target


def _repair_json(result: repair_mod.RepairResult) -> str:
    payload = {
        "status": result.status,
        "size": result.size,
        "insert": [render_fact(f) for f in sorted(result.repair.insertions)] if result.repair else [],
        "delete": [render_fact(f) for f in sorted(result.repair.deletions)] if result.repair else [],
        "witness_assignment": dict(sorted(result.witness_assignment.items()))
        if result.witness_assignment is not None
        else None,
    }
    return json.dumps(payload)


def _print_repair(result: repair_mod.RepairResult, out) -> None:
    print(f"status: {result.status}", file=out)
    if result.status != repair_mod.FOUND:
        return
    print(f"size: {result.size}", file=out)
    for f in sorted(result.repair.insertions):
        print(f"insert: {render_fact(f)}", file=out)
    for f in sorted(result.repair.deletions):
        print(f"delete: {render_fact(f)}", file=out)
    if result.witness_assignment:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(result.witness_assignment.items()))
        print(f"witness: {pairs}", file=out)


def _read_repair_json(path: str) -> Update:
    try:
        data = json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError("repair JSON is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"repair JSON must be an object, got {type(data).__name__}")
    lists = []
    for key in ("insert", "delete"):
        texts = data.get(key, [])
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            raise ValueError(f"repair JSON field {key!r} must be a list of strings")
        lists.append([parse_fact(t, allow_fresh=True) for t in texts])
    return Update.of(*lists)


def _answer(value: bool, out) -> int:
    print(str(value).lower(), file=out)
    return EXIT_OK if value else EXIT_FALSE


def run(argv: list[str], out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    args = _fast_parse(argv) or _argparse(argv, out, err)
    if isinstance(args, int):
        return args

    try:
        if args.command == "classify":
            program, _, _ = _load(args)
            for name, value in classify(program).as_dict().items():
                print(f"{name}: {str(value).lower()}", file=out)
            return EXIT_OK

        if args.command == "eval":
            return _answer(eval_member(*_load(args)), out)

        if args.command == "decide":
            return _answer(sat_mod.ma_dec(*_load(args)), out)

        if args.command == "bound":
            return _answer(repair_mod.ma_bound(*_load(args), args.k), out)

        if args.command == "size":
            program, instance, target = _load(args)
            result = repair_mod.ma_min(program, instance, target, budget=args.budget)
            if result.status == repair_mod.FOUND:
                print(result.size, file=out)
            else:
                print(result.status.replace("_", " "), file=out)
            return _STATUS_EXIT[result.status]

        if args.command == "repair":
            program, instance, target = _load(args)
            if args.oracle:
                result = repair_mod.oracle_ma_min(program, instance, target, budget=args.budget)
            else:
                result = repair_mod.ma_min(program, instance, target, budget=args.budget)
            if args.as_json:
                print(_repair_json(result), file=out)
            else:
                _print_repair(result, out)
            return _STATUS_EXIT[result.status]

        if args.command == "sat":
            program, _, _ = _load(args)
            result = sat_mod.sat_query(program)
            print("satisfiable" if result.satisfiable else "unsatisfiable", file=out)
            if result.satisfiable and result.witness is not None:
                for fact in result.witness:
                    print(f"witness: {render_fact(fact)}", file=out)
            return EXIT_OK if result.satisfiable else EXIT_FALSE

        if args.command == "gen-setcover":
            cover = setcover_mod.generate(args.seed, args.n, args.m, args.density)
            out.write(setcover_mod.render_setcover(cover))
            return EXIT_OK

        if args.command == "reduce-setcover":
            cover = setcover_mod.parse_setcover(Path(args.input).read_text())
            program, instance, target = setcover_mod.reduce_f(cover)
            outdir = Path(args.outdir)
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "query.dl").write_text(render_program(program))
            (outdir / "data.facts").write_text(render_instance(instance))
            (outdir / "tuple.txt").write_text(render_tuple(target) + "\n")
            for name in ("query.dl", "data.facts", "tuple.txt"):
                print(outdir / name, file=out)
            return EXIT_OK

        if args.command == "extract-cover":
            cover = setcover_mod.parse_setcover(Path(args.input).read_text())
            update = _read_repair_json(args.repair_json)
            for name in setcover_mod.extract_h(cover, update):
                print(name, file=out)
            return EXIT_OK

        raise AssertionError(f"unhandled command {args.command}")
    except (SourceError, ArityMismatch, InvalidUpdate, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))

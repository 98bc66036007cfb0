"""Print a digest of random repair solves.

A fixed mix of random inputs from ``randgen``, cycled in this order, is
solved with ``dlrepair.ma_min``:

* ``ucq``: unions of conjunctive queries with negation over ``a``, ``b``;
* ``ucq-repeat``: the same with ``repeat=0.5``, so rules read one relation
  several times or repeat a literal;
* ``ucq-constants``: over the digit constants ``1``, ``2``, which sort
  before the fresh names, with up to five unrelated facts ``u(k)``;
* ``ucq-symmetric``: unary relations ``p``, ``q`` only, ``repeat=0.9``, up
  to six literals over four variables, and an empty instance on every
  other solve, so that many repairs tie under swaps of fresh constants;
* ``datalog``: ``random_datalog_program`` with ``extra_shapes``, positive
  and semi-positive in turn, ``answer_edge`` on two programs in three, at
  budget 2 or 3.

One line per solve gives its index, its kind and a hash of its status,
sorted insertions, sorted deletions and witness.

A satisfiability section follows, drawn from its own generator seeded
alike, with one line per decision in this cycle:

* ``sat-ucq``, ``sat-ucq-repeat``, ``sat-ucq-symmetric``: a random union
  with ``repeat`` 0, 0.5 and 0.9, and its copy specialised to a random
  target, each through ``sat_query``, hashed with the rendered witness;
* ``sat-datalog``: a random positive datalog program (``extra_shapes``,
  ``answer_edge`` on every other one), hashing ``sat_query``'s status and
  witness size and ``ma_dec`` for a random target and instance.

``dlrepair`` is imported from ``PYTHONPATH``, so two checkouts compare
with one diff:

    PYTHONPATH=src python tests/solve_digest.py > new.txt
    PYTHONPATH=../old/src python tests/solve_digest.py > old.txt
    diff old.txt new.txt

The name does not match ``test_*.py``, so pytest does not collect this
script.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import random
import sys
from pathlib import Path
from typing import Iterator

import dlrepair
from dlrepair import Fact, Instance, ma_dec, ma_min, render_fact, render_instance, sat_query, specialize
from randgen import (
    UNARY_SCHEMA,
    random_datalog_instance,
    random_datalog_program,
    random_instance,
    random_target,
    random_ucqneg_program,
)

KINDS = ("ucq", "ucq-repeat", "ucq-constants", "ucq-symmetric", "datalog")
SAT_KINDS = {"sat-ucq": 0.0, "sat-ucq-repeat": 0.5, "sat-ucq-symmetric": 0.9, "sat-datalog": None}


def draw(kind: str, i: int, rng: random.Random):
    """The ``(program, instance, target, budget)`` of solve ``i``."""
    if kind == "datalog":
        consts = ("a", "b", "c")
        program = random_datalog_program(rng, i // len(KINDS) % 2 == 0, True, rng.random() < 2 / 3)
        instance = random_datalog_instance(rng, max_facts=4, consts=consts)
        return program, instance, random_target(rng, program.arity, consts), rng.choice((2, 3))
    consts = ("1", "2") if kind == "ucq-constants" else ("a", "b")
    if kind == "ucq-symmetric":
        program = random_ucqneg_program(
            rng, max_rules=2, max_literals=6, max_vars=4, consts=consts, schema=UNARY_SCHEMA, repeat=0.9
        )
        if i // len(KINDS) % 2:
            instance = Instance(frozenset())
        else:
            instance = random_instance(rng, max_facts=5, consts=consts, schema=UNARY_SCHEMA)
        return program, instance, random_target(rng, program.arity, consts), None
    repeat = 0.5 if kind == "ucq-repeat" else 0.0
    program = random_ucqneg_program(rng, max_rules=2, max_literals=4, max_vars=3, consts=consts, repeat=repeat)
    instance = random_instance(rng, max_facts=5, consts=consts)
    if kind == "ucq-constants":
        extra = {Fact("u", (str(k),)) for k in range(3, 3 + rng.randint(0, 5))}
        instance = Instance(instance.facts | extra)
    return program, instance, random_target(rng, program.arity, consts), None


def digest_lines(seed: int, count: int) -> Iterator[str]:
    """One ``index kind hash`` line per solve."""
    rng = random.Random(seed)
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        result = ma_min(*draw(kind, i, rng))
        update, witness = result.repair, result.witness_assignment
        if update is not None:
            update = sorted(map(render_fact, update.insertions)), sorted(map(render_fact, update.deletions))
        if witness is not None:
            witness = sorted(witness.items())
        digest = hashlib.sha256(repr((result.status, update, witness)).encode()).hexdigest()[:16]
        yield f"{i} {kind} {digest}"


def sat_lines(seed: int, count: int) -> Iterator[str]:
    """One ``index kind hash`` line per satisfiability draw."""
    rng = random.Random(seed)
    kinds = list(SAT_KINDS.items())
    for i in range(count):
        kind, repeat = kinds[i % len(kinds)]
        if repeat is None:
            program = random_datalog_program(rng, False, True, i // len(kinds) % 2 == 0)
            result = sat_query(program)
            target = random_target(rng, program.arity, ("a", "b", "c"))
            found = ma_dec(program, random_datalog_instance(rng, max_facts=4), target)
            decided = result.satisfiable, result.witness and len(result.witness), found
        else:
            program = random_ucqneg_program(rng, repeat=repeat)
            decided = tuple(
                (result.satisfiable, result.witness and render_instance(result.witness))
                for result in map(sat_query, (program, specialize(program, random_target(rng, program.arity))))
            )
        digest = hashlib.sha256(repr(decided).encode()).hexdigest()[:16]
        yield f"{i} {kind} {digest}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=4000, help="solves (default: 4000)")
    parser.add_argument("--sat-count", type=int, default=2000, help="satisfiability draws (default: 2000)")
    args = parser.parse_args(argv)
    print(f"dlrepair from {Path(dlrepair.__file__).resolve().parent}", file=sys.stderr)
    for line in itertools.chain(digest_lines(args.seed, args.count), sat_lines(args.seed, args.sat_count)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dlrepair
from dlrepair import (
    CapExceeded,
    EmptyUniverse,
    Fact,
    NotARepair,
    Update,
    apply_update,
    eval_member,
    exact_cover,
    extract_h,
    generate,
    greedy_cover,
    ma_size,
    make_instance,
    parse_setcover,
    reduce_f,
    render_setcover,
    update_size,
)
from dlrepair import engine

EXAMPLE = make_instance([("s1", ["u1", "u2"]), ("s2", ["u2", "u3"]), ("s3", ["u3"])])


class TestReduceF:
    def test_example_construction(self):
        program, instance, target = reduce_f(EXAMPLE)
        assert target == ("a1", "a2", "a3")
        assert instance.facts == frozenset(
            [
                Fact("f", ("b1", "a1")),
                Fact("f", ("b1", "a2")),
                Fact("f", ("b2", "a2")),
                Fact("f", ("b2", "a3")),
                Fact("f", ("b3", "a3")),
            ]
        )
        rule = program.rules[0]
        assert len(rule.head_args) == 3
        assert rule.positive_count() == 6
        assert program.schema == {"f": 2, "p": 1}

    def test_singleton(self):
        program, instance, target = reduce_f(make_instance([("s1", ["u1"])]))
        assert instance.facts == frozenset([Fact("f", ("b1", "a1"))])
        assert target == ("a1",)

    def test_empty_universe(self):
        with pytest.raises(EmptyUniverse):
            reduce_f(make_instance([]))


class TestExtractH:
    def test_reads_cover_off_choices(self):
        update = Update.of([Fact("p", ("b1",)), Fact("p", ("b2",))])
        assert extract_h(EXAMPLE, update) == ("s1", "s2")

    def test_replaces_edge_insertions(self):
        update = Update.of(
            [Fact("f", ("b9", "a1")), Fact("p", ("b9",)), Fact("p", ("b2",)), Fact("p", ("b3",))]
        )
        cover = extract_h(EXAMPLE, update)
        assert cover == ("s1", "s2", "s3")
        assert len(cover) <= update_size(update)

    def test_deletions_discarded(self):
        update = Update.of(
            [Fact("p", ("b1",)), Fact("p", ("b2",))], [Fact("f", ("b3", "a3"))]
        )
        assert extract_h(EXAMPLE, update) == ("s1", "s2")

    def test_not_a_repair(self):
        with pytest.raises(NotARepair):
            extract_h(EXAMPLE, Update.of([Fact("p", ("b1",))]))

    def test_a_cover_with_many_satisfying_assignments_is_checked_at_the_first(self):
        """Four sets that each hold all 20 elements, all chosen: the pinned
        rule has 4^20 solutions, and membership stops at the first."""
        cover = make_instance([(f"s{j}", [f"u{i}" for i in range(20)]) for j in range(4)])
        program, instance, target = reduce_f(cover)
        update = Update.of(Fact("p", (f"b{j}",)) for j in range(1, 5))
        start = time.perf_counter()
        assert eval_member(program, apply_update(instance, update), target)
        assert extract_h(cover, update) == ("s0", "s1", "s2", "s3")
        assert time.perf_counter() - start < 1.0

    def test_insertion_of_a_stored_fact(self):
        with pytest.raises(NotARepair, match="insertion already present"):
            extract_h(EXAMPLE, Update.of([Fact("f", ("b1", "a1")), Fact("p", ("b1",))]))


class TestGreedy:
    def test_example(self):
        assert greedy_cover(EXAMPLE) == ("s1", "s2")

    def test_single_covering_set(self):
        cover = make_instance([("s1", ["u1", "u2"]), ("s2", ["u1"])])
        assert greedy_cover(cover) == ("s1",)

    def test_disjoint_singletons(self):
        cover = make_instance([("s1", ["u1"]), ("s2", ["u2"]), ("s3", ["u3"])])
        assert set(greedy_cover(cover)) == {"s1", "s2", "s3"}


class TestExact:
    def test_example(self):
        assert len(exact_cover(EXAMPLE)) == 2

    def test_singleton(self):
        assert exact_cover(make_instance([("s1", ["u1"])])) == ("s1",)

    def test_disjoint(self):
        cover = make_instance([("s1", ["u1"]), ("s2", ["u2"])])
        assert exact_cover(cover) == ("s1", "s2")

    def test_cap(self):
        big = make_instance([(f"s{i}", ["u1"]) for i in range(25)])
        with pytest.raises(CapExceeded):
            exact_cover(big)

    def test_lexicographically_least_among_minima(self):
        cover = make_instance([("s2", ["u1", "u2"]), ("s1", ["u1", "u2"])])
        assert exact_cover(cover) == ("s1",)


class TestGenerate:
    def test_tiny(self):
        cover = generate(1, 1, 1, 1.0)
        assert cover.sets == (("s1", ("u1",)),)

    def test_deterministic(self):
        assert generate(9, 5, 4, 0.5) == generate(9, 5, 4, 0.5)

    def test_structural_invariants(self):
        cover = generate(7, 5, 4, 0.5)
        assert cover.universe == {f"u{i}" for i in range(1, 6)}
        assert all(elements for _, elements in cover.sets)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            generate(1, 0, 1, 0.5)
        with pytest.raises(ValueError):
            generate(1, 1, 1, 0.0)


class TestFormat:
    def test_round_trip(self):
        text = render_setcover(EXAMPLE)
        assert parse_setcover(text) == EXAMPLE

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_setcover("just words\n")
        with pytest.raises(ValueError, match="line 2: set s2 has no elements"):
            parse_setcover("s1: u1\ns2:\n")

    def test_comment_and_blank_lines_skipped(self):
        assert parse_setcover("# three sets\n\ns1: u1 u2\n  \ns2: u2 u3\ns3: u3\n") == EXAMPLE


class TestInstanceChecks:
    def test_duplicate_set_names(self):
        with pytest.raises(ValueError, match="duplicate set names"):
            make_instance([("s1", ["u1"]), ("s1", ["u2"])])

    def test_empty_set(self):
        with pytest.raises(ValueError, match="set s2 is empty"):
            make_instance([("s1", ["u1"]), ("s2", [])])

    def test_elements_of_an_unknown_name(self):
        with pytest.raises(KeyError):
            EXAMPLE.elements_of("s9")


class TestCostTransfer:
    def test_exactness_small(self):
        rng = random.Random(51)
        for _ in range(10):
            cover = generate(rng.randrange(10**6), rng.randint(1, 4), rng.randint(1, 4), 0.5)
            program, instance, target = reduce_f(cover)
            assert len(exact_cover(cover)) == ma_size(program, instance, target)

    def test_optimum_repair_extracts_optimum_cover(self):
        from dlrepair import ma_min

        rng = random.Random(53)
        for _ in range(10):
            cover = generate(rng.randrange(10**6), rng.randint(1, 5), rng.randint(1, 5), 0.4)
            program, instance, target = reduce_f(cover)
            optimum = len(exact_cover(cover))
            found = ma_min(program, instance, target)
            extracted = extract_h(cover, found.repair)
            assert cover.covers(extracted)
            assert len(extracted) == optimum

    def test_strictness_under_padding(self):
        rng = random.Random(52)
        cover = generate(5, 4, 4, 0.4)
        program, instance, target = reduce_f(cover)
        from dlrepair import ma_min

        found = ma_min(program, instance, target)
        base = found.repair
        for _ in range(5):
            extra = set(base.insertions)
            extra.add(Fact("p", (f"x{rng.randrange(20)}",)))
            extra.add(Fact("f", (f"x{rng.randrange(20)}", rng.choice(target))))
            padded = Update.of(extra, base.deletions)
            repaired = apply_update(instance, padded)
            assert eval_member(program, repaired, target)
            assert len(extract_h(cover, padded)) <= update_size(padded)

    def test_many_equal_covers_solve_fast(self):
        """18 elements and 3 sets of density 0.9: thousands of assignments
        of the set variables reach the same size-2 repair.  The search stops
        each saturated one at its first completion and tries only sets that
        fit the remaining cost, so the solve takes milliseconds where
        visiting every tie took seconds; the repair and the witness are
        those of the exhaustive search."""
        from dlrepair import ma_min

        cover = generate(1, 18, 3, 0.9)
        program, instance, target = reduce_f(cover)
        started = time.perf_counter()
        found = ma_min(program, instance, target)
        elapsed = time.perf_counter() - started
        assert found.size == len(exact_cover(cover)) == 2
        assert found.repair == Update.of([Fact("f", ("b1", "a18")), Fact("p", ("b1",))])
        assert found.witness_assignment == {
            **{f"X{i}": f"a{i}" for i in range(1, 19)},
            **{f"Y{i}": "b1" for i in range(1, 19)},
        }
        assert elapsed < 1.0


# Solves ``reduce_f(generate(1, 20, 10, 0.3))`` with ``ma_min`` and prints the
# repair size and the count of ``engine._Relation.lookup`` calls.
COUNT_LOOKUPS = """
from dlrepair import engine, generate, ma_min, reduce_f

calls = []
lookup = engine._Relation.lookup
engine._Relation.lookup = lambda self, *args: calls.append(None) or lookup(self, *args)
print(ma_min(*reduce_f(generate(1, 20, 10, 0.3))).size, len(calls))
"""


class TestSearchOrder:
    def test_a_large_cover_looks_up_elements_with_the_fewest_sets_first(self, monkeypatch):
        """The label search orders the set variables of the cover's rule by
        the stored sets that cover each element, fewest first, so the forced
        choices for rarely covered elements fill the label early and cut
        every later step: 2,213 index lookups, where slot order made
        392,410.  The count does not depend on string hashing."""
        calls = []
        lookup = engine._Relation.lookup

        def counting(self, *args):
            calls.append(None)
            return lookup(self, *args)

        monkeypatch.setattr(engine._Relation, "lookup", counting)
        from dlrepair import ma_min

        assert ma_min(*reduce_f(generate(1, 20, 10, 0.3))).size == 4
        assert len(calls) <= 10_000
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", COUNT_LOOKUPS],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(Path(dlrepair.__file__).parent.parent)},
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split() == ["4", str(len(calls))]

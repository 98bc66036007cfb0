"""Print a digest of the seed-1 pool requests of the benchmark workloads.

Each request of the ``setcover``, ``spdl``, ``posdl`` and ``tceval`` pools
(``bench/run.py``'s ``POOL`` sizes, seed 1, or the first ``--count`` of
each) is sent through ``dlrepair.cli.run``, and one line per request gives
its workload, index, exit code and a hash of its stdout.  ``dlrepair`` is
imported from ``PYTHONPATH``, so two checkouts compare with one diff:

    PYTHONPATH=src python tests/pool_digest.py > new.txt
    PYTHONPATH=../old/src python tests/pool_digest.py > old.txt
    diff old.txt new.txt

``pool_digest_seed1.txt`` holds the digest of the first 40 requests of
each workload (``--count 40``), which ``test_cli.py`` checks.  The request
files go to a temporary directory.  The name does not match
``test_*.py``, so pytest does not collect this script.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
import tempfile
from pathlib import Path
from typing import Iterator, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402  (bench/run.py: the pool sizes and the request files)

WORKLOADS = ("setcover", "spdl", "posdl", "tceval")


def digest_lines(workloads: Sequence[str], seed: int, count: int | None) -> Iterator[str]:
    """One ``workload index exit-code stdout-hash`` line per request: the
    first ``count`` of each workload's pool (None: the whole pool)."""
    from dlrepair import cli

    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            n = run.POOL[workload] if count is None else count
            _, argvs = run.write_inputs(workload, seed, n, Path(tmp) / workload)
            for i, request in enumerate(argvs):
                out, err = io.StringIO(), io.StringIO()
                code = cli.run(request, out, err)
                digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
                yield f"{workload} {i} {code} {digest}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append", help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, help="requests per workload (default: its pool size)")
    args = parser.parse_args(argv)
    from dlrepair import cli

    print(f"dlrepair from {Path(cli.__file__).resolve().parent}", file=sys.stderr)
    for line in digest_lines(args.workload or WORKLOADS, args.seed, args.count):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

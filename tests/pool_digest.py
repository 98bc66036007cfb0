"""Print a digest of every seed-1 pool request of the benchmark workloads.

Each request of the ``setcover``, ``spdl``, ``posdl`` and ``tceval`` pools
(``bench/run.py``'s ``POOL`` sizes, seed 1) is sent through
``dlrepair.cli.run``, and one line per request gives its workload, index,
exit code and a hash of its stdout.  ``dlrepair`` is imported from
``PYTHONPATH``, so two checkouts compare with one diff:

    PYTHONPATH=src python tests/pool_digest.py > new.txt
    PYTHONPATH=../old/src python tests/pool_digest.py > old.txt
    diff old.txt new.txt

The request files go to a temporary directory.  The name does not match
``test_*.py``, so pytest does not collect this script.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402  (bench/run.py: the pool sizes and the request files)

WORKLOADS = ("setcover", "spdl", "posdl", "tceval")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append", help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    from dlrepair import cli

    print(f"dlrepair from {Path(cli.__file__).resolve().parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workload or WORKLOADS:
            _, argvs = run.write_inputs(workload, args.seed, run.POOL[workload], Path(tmp) / workload)
            for i, request in enumerate(argvs):
                out, err = io.StringIO(), io.StringIO()
                code = cli.run(request, out, err)
                digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
                print(workload, i, code, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())

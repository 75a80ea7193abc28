"""Run one elmbench benchmark workload and print its metrics.

    python3 bench/run.py --workload erp-cv --seed 7 --seconds 10 --trace 0

Builds nothing: the library is imported from the checkout's ``src``
directory, and the run stops with exit code 2, printing no result, if it is
not there. The next-to-last stdout line is a JSON report (environment block,
per-metric direction and sample counts, failed cells); the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# One closed-loop caller: a single BLAS thread (nproc is 2 on the reference
# machine) measured faster and steadier on these 100-wide matrices.
BLAS_THREADS = "1"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "elmbench" / "__init__.py").is_file():
        print(f"error: no elmbench sources at {SRC}", file=sys.stderr)
        return 2
    # Set before numpy is first imported, which is when OpenBLAS reads it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import elmbench
    if Path(elmbench.__file__).resolve().parent != SRC / "elmbench":
        print(f"error: imported elmbench from {elmbench.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness

    args = parse_args(argv, sorted(harness.WORKLOADS))
    result, report = harness.run_benchmark(
        harness.WORKLOADS[args.workload], args.seed, args.seconds,
        bool(args.trace), HERE / "out")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

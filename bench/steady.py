"""Steadiness report: run workloads over several seeds and summarise.

    python3 bench/steady.py --workload equiv-deep --seeds 1-10 --seconds 30

Runs ``run.py`` once per seed (``--trace 0``), one after another, and
prints for every end-to-end metric its median, first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median. Set each metric's
bound in ``BENCHMARK.json`` to at least three times the spread measured
here. The raw results go to ``bench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in
              json.loads((BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    for workload in args.workload:
        runs = []
        for seed in seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print("%s seed %d: outputs were wrong" % (workload, seed), file=sys.stderr)
                return 1
            runs.append({"seed": seed, **result})
        print("%s over seeds %s, %d s each" % (workload, args.seeds, args.seconds))
        print("  %-16s %12s %12s %12s %8s %8s" % ("metric", "q1", "median", "q3", "spread", "bound"))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            print("  %-16s %12.5g %12.5g %12.5g %8.4f %8s"
                  % (name, q1, median, q3, (q3 - q1) / median, bounds.get(name, "-")))
        out = BENCH / "out" / ("steady-%s.json" % workload)
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

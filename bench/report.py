"""Run every workload once and print its end-to-end metrics in one table.

Each workload runs in its own `run.py` process, because `peak_rss_mb` is
the peak of the workload's own process.  Run from the repository root:

    python3 bench/report.py --seed 0 --seconds 24
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 600


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    args = parser.parse_args(argv)
    rows = []
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        detail = json.loads((BENCH / "out" / f"result-{workload}-seed{args.seed}-trace0.json")
                            .read_text())
        rows.append((workload, result, detail))

    names = list(rows[0][1]["metrics"])
    header = ["workload"] + [f"{n} ({rows[0][1]['metrics'][n]['unit']})" for n in names] \
        + ["fail_frac per pass", "correct", "failing checks"]
    table = [header]
    for workload, result, detail in rows:
        table.append([workload]
                     + [f"{result['metrics'][n]['value']:.4g}" for n in names]
                     + ["{}/{}".format(*detail["fail_frac_per_pass"][0]), str(result["correct"]),
                        ", ".join(detail["failing_checks"]) or "none"])
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Set-up time of one fresh interpreter, printed in seconds.

Set-up is importing wschebor and building and validating every config of
the workload with `ExperimentConfig.from_dict`, which also resolves the
kernel.  Run from the repository root:

    python3 bench/setup_probe.py --workload occupation --seed 0
"""

import argparse
import sys
import time
from pathlib import Path

import workloads


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    dicts = workloads.configs(args.workload, args.seed)
    started = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from wschebor.cli import ExperimentConfig
    for d in dicts:
        ExperimentConfig.from_dict(d)
    print(repr(time.perf_counter() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())

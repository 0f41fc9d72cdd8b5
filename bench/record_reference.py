"""Record output digests and metric values as the reference for the trace run.

`cli.outputs_changed` and `cli.max_rel_dev` compare a traced pass with the
entry recorded here for the same workload and seed.  Record once per
commit whose outputs are meant to be the baseline; entries are merged
into ``bench/reference.json``.  Run from the repository root:

    python3 bench/record_reference.py --seeds 0 1 2
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

import passes
import workloads

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=sorted(workloads.WORKLOADS),
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH.parent / "src"))
    from wschebor import cli

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    out_dir = BENCH / "out" / "reference-pass"
    for workload in args.workloads:
        for seed in args.seeds:
            configs = [cli.ExperimentConfig.from_dict(d)
                       for d in workloads.configs(workload, seed)]
            try:
                _, outcomes = passes.run_pass(cli, configs, out_dir)
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            reference.setdefault(workload, {})[str(seed)] = passes.reference_entry(outcomes)
            REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            print(f"recorded {workload} seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

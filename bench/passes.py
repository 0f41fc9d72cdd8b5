"""One pass of a workload through the public `cli.run`, and the output checks.

A pass runs every config of the workload with its outputs written to its
own directory, then reads back what each experiment wrote.  Only the
`cli.run` calls are timed; reading and hashing the outputs is not.
"""

import hashlib
import json
import math
import time
from pathlib import Path

# Wall-clock data the runner writes next to the results; excluded from
# the byte-identity check, the digests and the byte count.
VOLATILE = ("timing.json",)


def run_pass(cli, configs, out_dir):
    """Run each config through `cli.run` into `out_dir`; return (wall_s, outcomes).

    An experiment that raises is recorded as one failed check and the pass
    goes on with the next config.
    """
    out_dir = Path(out_dir)
    errors = []
    started = time.perf_counter()
    for k, cfg in enumerate(configs):
        try:
            cli.run(cfg, output_dir=out_dir / label(k, cfg))
        except Exception as exc:  # the benchmark reports it instead of stopping
            errors.append(f"{type(exc).__name__}: {exc}")
        else:
            errors.append(None)
    wall = time.perf_counter() - started
    outcomes = [read_outputs(out_dir / label(k, cfg), label(k, cfg), err)
                for k, (cfg, err) in enumerate(zip(configs, errors))]
    return wall, outcomes


def label(index, cfg):
    """Name of a config's output directory and prefix of its check names."""
    return f"{index}-{cfg.experiment}"


def read_outputs(directory, name, error=None):
    """Checks, problems, digests and byte count of one experiment's outputs.

    Checks are (name, passed) pairs; a check passes only when its pass
    flag is true and its value finite.  A problem is an output that is
    missing or malformed, which makes the run incorrect.
    """
    out = {"label": name, "error": error, "checks": [], "values": {},
           "problems": [], "files": {}, "bytes": 0}
    if error is not None:
        out["checks"].append(("raised", False))
        return out
    directory = Path(directory)
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        if path.name in VOLATILE:
            continue
        data = path.read_bytes()
        out["files"][f"{name}/{path.relative_to(directory).as_posix()}"] = \
            hashlib.sha256(data).hexdigest()
        out["bytes"] += len(data)
    try:
        results = json.loads((directory / "results.json").read_text())
        metrics = results["metrics"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out["problems"].append(f"{name}: unreadable results.json ({exc})")
        return out
    if not isinstance(metrics, list) or not metrics:
        out["problems"].append(f"{name}: results.json has no metrics")
        return out
    for entry in metrics:
        check = _check(entry)
        if check is None:
            out["problems"].append(f"{name}: malformed metric {entry!r}")
            continue
        metric_name, value, passed = check
        if not math.isfinite(value):
            out["problems"].append(f"{name}: metric {metric_name} is not finite")
        out["checks"].append((metric_name, passed and math.isfinite(value)))
        out["values"][metric_name] = value
    return out


def _check(entry):
    """(name, value, pass) of one metrics[] entry, or None when malformed."""
    if not isinstance(entry, dict):
        return None
    name, value, passed = entry.get("name"), entry.get("value"), entry.get("pass")
    if not isinstance(name, str) or not isinstance(passed, bool) \
            or isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return name, float(value), passed


def digests(outcomes):
    """SHA-256 of every output file of a pass, keyed by label/relative path."""
    merged = {}
    for o in outcomes:
        merged.update(o["files"])
    return merged


def failing_checks(outcomes):
    return [f"{o['label']}:{name}" for o in outcomes for name, ok in o["checks"] if not ok]


def check_count(outcomes):
    return sum(len(o["checks"]) for o in outcomes)


def compare_reference(outcomes, reference):
    """(files changed, largest relative metric change) against a recorded pass.

    A file counts as changed when its digest differs or it exists on only
    one side.  Metrics missing on either side are left to the file count.
    """
    files = digests(outcomes)
    ref_files = reference["files"]
    changed = sum(1 for k in set(files) | set(ref_files) if files.get(k) != ref_files.get(k))
    worst = 0.0
    for o in outcomes:
        for name, value in o["values"].items():
            ref = reference["metrics"].get(f"{o['label']}:{name}")
            if ref is None:
                continue
            dev = abs(value - ref) / abs(ref) if ref != 0 else abs(value - ref)
            worst = max(worst, dev)
    return changed, worst


def reference_entry(outcomes):
    """What `compare_reference` compares against, recorded from one pass."""
    return {
        "files": digests(outcomes),
        "metrics": {f"{o['label']}:{name}": value
                    for o in outcomes for name, value in o["values"].items()},
    }

#!/usr/bin/env python3
"""Compare the end-to-end metrics of two benchmark runs.

    python3 scripts/compare_bench.py parent.json change.json

Both files are ``bench/out/<workload>-seed<n>.json`` results written by
``bench/run.py --trace 0``, e.g. one on each of two commits.  For each
end-to-end metric named in ``BENCHMARK.json`` prints both values, the
change/parent ratio and whether the change is better, worse or equal by
that metric's ``better`` direction; then the failed share of each run.
Exit status: 0, or 2 when a file lacks one of the metrics.
"""

import argparse
import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def end_to_end():
    """[(metric name, "higher" or "lower")] from BENCHMARK.json"""
    spec = json.loads(BENCHMARK.read_text())
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def verdict(parent, change, better):
    if change == parent:
        return "equal"
    return "better" if (change > parent) == (better == "higher") else "worse"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    runs = [json.loads(Path(p).read_text()) for p in (args.parent, args.change)]
    print(f"{'metric':<16}{'parent':>12}{'change':>12}{'ratio':>8}  verdict")
    for name, better in end_to_end():
        try:
            parent, change = (run["metrics"][name]["value"] for run in runs)
        except KeyError:
            print(f"{name}: missing from a run", file=sys.stderr)
            return 2
        ratio = change / parent if parent else float("nan")
        print(f"{name:<16}{parent:>12.4g}{change:>12.4g}{ratio:>8.3f}  "
              f"{verdict(parent, change, better)}")
    for side, run in zip(("parent", "change"), runs):
        failed, attempted = run["failed"], run["attempted"]
        print(f"failed share {side}: {failed}/{attempted} = {failed / attempted:.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

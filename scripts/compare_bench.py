#!/usr/bin/env python3
"""Compare the end-to-end metrics of benchmark runs on two commits.

    python3 scripts/compare_bench.py parent.json change.json
    python3 scripts/compare_bench.py --parent p1.json p2.json p3.json \\
                                     --change c1.json c2.json c3.json

Each file is a ``bench/out/<workload>-seed<n>.json`` result written by
``bench/run.py --trace 0``, e.g. alternated runs on each of two commits.
For each end-to-end metric named in ``BENCHMARK.json`` prints each
side's median, the change/parent ratio of the medians and whether the
change is better, worse or equal by that metric's ``better`` direction;
with more than one run on a side it adds each side's min-max range.
Then the failed share of each run, side by side, and each side's pooled
share, its summed failed over its summed attempted calls.  Seeds fail in
different shares, so pooled shares differ when the seeds' pass counts
do, even if no call changed status; when every run pair has the same
share, the pooled line says so.  Last, run by run (the i-th parent file
against the i-th change file), each file's failed and attempted counts
with its failures per reason (when the file holds them), and whether the
two shares differ: runs of different pass counts fail in equal shares
when no call changed status.
Exit status: 0, or 2 when a file lacks one of the metrics.
"""

import argparse
import itertools
import json
import statistics
import sys
from fractions import Fraction
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


def share(run):
    return Fraction(run["failed"], run["attempted"])


def share_note(parent, change):
    """Whether two runs' failed shares differ.  A pass prices every call
    once, so runs of different pass counts fail in equal shares when no
    call changed status; only a different share can mean one did."""
    if share(parent) != share(change):
        return "share differs"
    if parent["attempted"] != change["attempted"]:
        return "same share: pass count differs, no status change"
    return "same share, same counts"


def pooled(side_runs):
    """(summed failed, summed attempted) over one side's runs"""
    return sum(run["failed"] for run in side_runs), sum(run["attempted"] for run in side_runs)


def pooled_note(parent_runs, change_runs):
    """Whether the two sides' pooled shares differ, and why when every run
    pair has the same share: the seeds' pass counts then weight their
    different shares differently, and no call changed status."""
    if Fraction(*pooled(parent_runs)) == Fraction(*pooled(change_runs)):
        return "pooled shares equal"
    if len(parent_runs) == len(change_runs) and all(
        share(p) == share(c) for p, c in zip(parent_runs, change_runs)
    ):
        return "pooled shares differ: every run pair has the same share, so pass counts across seeds caused it"
    return "pooled shares differ"


def _sides(argv):
    """(parent files, change files) from either form of the command line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pair", nargs="*", metavar="parent change")
    parser.add_argument("--parent", nargs="+", default=[], metavar="FILE")
    parser.add_argument("--change", nargs="+", default=[], metavar="FILE")
    args = parser.parse_args(argv)
    if args.pair and (args.parent or args.change):
        parser.error("give two files, or --parent and --change, not both")
    if args.pair:
        if len(args.pair) != 2:
            parser.error("give one parent and one change file")
        return [args.pair[0]], [args.pair[1]]
    if not (args.parent and args.change):
        parser.error("give both --parent and --change")
    return args.parent, args.change


def main(argv=None):
    sides = _sides(argv)
    runs = [[json.loads(Path(p).read_text()) for p in files] for files in sides]
    ranges = any(len(side) > 1 for side in runs)
    print(f"{'metric':<16}{'parent':>12}{'change':>12}{'ratio':>8}  verdict"
          + (f"{'parent min-max':>22}{'change min-max':>22}" if ranges else ""))
    for name, better in end_to_end():
        try:
            values = [[run["metrics"][name]["value"] for run in side] for side in runs]
        except KeyError:
            print(f"{name}: missing from a run", file=sys.stderr)
            return 2
        parent, change = (statistics.median(side) for side in values)
        ratio = change / parent if parent else float("nan")
        line = (f"{name:<16}{parent:>12.4g}{change:>12.4g}{ratio:>8.3f}  "
                f"{verdict(parent, change, better):<7}")
        if ranges:
            line += "".join(f"{f'{min(side):.4g}-{max(side):.4g}':>22}" for side in values)
        print(line.rstrip())
    for side, side_runs in zip(("parent", "change"), runs):
        shares = ", ".join(
            f"{run['failed']}/{run['attempted']} = {run['failed'] / run['attempted']:.2%}"
            for run in side_runs
        )
        print(f"failed share {side}: {shares}")
    for side, side_runs in zip(("parent", "change"), runs):
        failed, attempted = pooled(side_runs)
        print(f"pooled failed share {side}: {failed}/{attempted} = {failed / attempted:.2%}")
    print(f"pooled: {pooled_note(*runs)}")
    for i, pair in enumerate(itertools.zip_longest(*runs), start=1):
        for side, run in zip(("parent", "change"), pair):
            if run is not None:
                reasons = "".join(f", {n} x {reason}"
                                  for reason, n in sorted(run.get("failures", {}).items()))
                print(f"run {i} {side}: failed {run['failed']}, attempted {run['attempted']}{reasons}")
        if None not in pair:
            print(f"run {i}: {share_note(*pair)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
share, the pooled line says so.  Last, pair by pair, each file's failed
and attempted counts with its failures per reason (when the file holds
them), and whether the two shares differ: runs of different pass counts
fail in equal shares when no call changed status.  Runs pair by seed
(``env.seed``): the k-th run of a seed on one side with the k-th run of
that seed on the other, whatever the order of the arguments; a seed run
on one side only is named.  If a file lacks its seed, runs pair by
position instead (the i-th parent file with the i-th change file).
Exit status: 0, or 2 when a file lacks one of the metrics.  Output cut
short by its reader (``| head``) ends quietly, with status 0.
"""

import argparse
import itertools
import json
import os
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


def pooled_note(parent_runs, change_runs, pairs):
    """Whether the two sides' pooled shares differ, and why when every run
    pair has the same share: the seeds' pass counts then weight their
    different shares differently, and no call changed status."""
    if Fraction(*pooled(parent_runs)) == Fraction(*pooled(change_runs)):
        return "pooled shares equal"
    if all(None not in pair and share(pair[0]) == share(pair[1]) for _, *pair in pairs):
        return "pooled shares differ: every run pair has the same share, so pass counts across seeds caused it"
    return "pooled shares differ"


def _by_seed(side_runs):
    """{(seed, k): the k-th run of that seed} over one side's runs"""
    counts, out = {}, {}
    for run in side_runs:
        seed = run["env"]["seed"]
        counts[seed] = counts.get(seed, 0) + 1
        out[seed, counts[seed]] = run
    return out


def run_pairs(parent_runs, change_runs):
    """[(label, parent run or None, change run or None)]: by seed when
    every run carries ``env.seed``, the k-th run of a seed on one side
    with its k-th run on the other; else by position."""
    if not all("seed" in run.get("env", {}) for run in parent_runs + change_runs):
        return [(f"run {i}", *pair)
                for i, pair in enumerate(itertools.zip_longest(parent_runs, change_runs), start=1)]
    parent, change = _by_seed(parent_runs), _by_seed(change_runs)
    return [(f"seed {seed}" + (f" #{k}" if k > 1 else ""), parent.get((seed, k)), change.get((seed, k)))
            for seed, k in sorted(parent.keys() | change.keys())]


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
    pairs = run_pairs(*runs)
    print(f"pooled: {pooled_note(*runs, pairs)}")
    for label, *pair in pairs:
        for side, run in zip(("parent", "change"), pair):
            if run is not None:
                reasons = "".join(f", {n} x {reason}"
                                  for reason, n in sorted(run.get("failures", {}).items()))
                print(f"{label} {side}: failed {run['failed']}, attempted {run['attempted']}{reasons}")
        if None not in pair:
            print(f"{label}: {share_note(*pair)}")
        elif label.startswith("seed"):
            print(f"{label}: {'parent' if pair[1] is None else 'change'} only")
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; send what is left to devnull so
        # the flush at exit raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)

#!/usr/bin/env python3
"""Compare the per-call prices of two benchmark runs.

    python3 scripts/compare_prices.py old.prices.tsv new.prices.tsv

Both files are ``bench/out/<workload>-seed<n>.prices.tsv`` tables (columns
id, label, status, price_hex, price) written by ``bench/run.py`` from the
same workload and seed, e.g. one on each of two commits.  Prints the
number of calls whose price or status differ, the largest absolute price
difference and every status change, then the same count and difference
per method, the first component of the call label (``fgm``, ``fgm-f``,
``fl``, ``fl-f``, ``quad``), so one run checks a bit-identical gate on one
method and a tolerance on another.  Exit status: 0 when every price
agrees within 1e-12 (absolute), 1 when one does not (a call that priced
on one side only counts as a difference), 2 when the two files do not
list the same calls.
"""

import argparse
import csv
import math
import sys

TOL = 1e-12


def read_prices(path):
    """id -> (label, status, price); a failed call's price is NaN."""
    with open(path, newline="") as fh:
        rows = csv.DictReader(fh, delimiter="\t")
        return {
            row["id"]: (row["label"], row["status"], _price(row["price_hex"]))
            for row in rows
        }


def _price(text):
    try:
        return float.fromhex(text)
    except ValueError:  # the call raised; the column holds the error
        return math.nan


def compare(old, new):
    """(differing calls, max |delta| over calls priced on both sides,
    calls priced on one side only, [(label, old status, new status)])"""
    differing, max_delta, one_sided, status_changes = 0, 0.0, 0, []
    for key, (label, status_old, p_old) in old.items():
        _, status_new, p_new = new[key]
        if status_old != status_new:
            status_changes.append((label, status_old, status_new))
        if math.isnan(p_old) != math.isnan(p_new):
            one_sided += 1
        elif not math.isnan(p_old):
            max_delta = max(max_delta, abs(p_new - p_old))
        same_price = p_old == p_new or (math.isnan(p_old) and math.isnan(p_new))
        differing += not same_price or status_old != status_new
    return differing, max_delta, one_sided, status_changes


def by_method(calls):
    """method (first label component) -> the calls of that method"""
    groups = {}
    for key, row in calls.items():
        groups.setdefault(row[0].split("/")[0], {})[key] = row
    return groups


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    old, new = read_prices(args.old), read_prices(args.new)
    if {k: v[0] for k, v in old.items()} != {k: v[0] for k, v in new.items()}:
        print("the two files do not list the same calls", file=sys.stderr)
        return 2
    differing, max_delta, one_sided, status_changes = compare(old, new)
    print(f"{len(old)} calls, {differing} differ, max |delta| {max_delta:.3e}")
    if one_sided:
        print(f"{one_sided} calls priced on one side only")
    for label, status_old, status_new in status_changes:
        print(f"status {label}: {status_old} -> {status_new}")
    for method, calls in sorted(by_method(old).items()):
        n_diff, delta = compare(calls, new)[:2]
        print(f"  {method}: {len(calls)} calls, {n_diff} differ, max |delta| {delta:.3e}")
    return 1 if max_delta > TOL or one_sided else 0


if __name__ == "__main__":
    sys.exit(main())

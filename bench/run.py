#!/usr/bin/env python3
"""Closed-loop pricing benchmark for levybarrier.

    python3 bench/run.py --workload zdomain_book --seed 1 --seconds 26 --trace 0

One client, one thread: each call is sent after the previous one returns.
A pass prices every call of the workload's book (``workloads.py``) once,
in an order drawn from the seed.  Only whole passes are measured: at
least one, and no pass that would end after ``--seconds`` of scaled time
(see REFERENCE_PROBE_S).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prices one untraced and one traced pass and
prints the per-layer metrics.  The last line of stdout is one JSON
object; per-call prices (bit-exact, for diffing two commits) and, when
tracing, the spans are written under ``bench/out/``.  See README.md.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# one BLAS/OpenMP thread: the benchmark measures a single client
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 2  # extra set-ups in fresh processes; setup_s is the median
FFT_BYTES_PER_M = 2 * 2 * 16  # per apply: two length-2M complex128 FFTs
# Calls are timed on a shared machine whose speed drifts by up to 2x
# over seconds to minutes.  A fixed numpy probe, independent of the
# library, runs before every call; each latency is scaled by
# REFERENCE_PROBE_S / (median probe time over the PROBE_WINDOW calls on
# either side).  REFERENCE_PROBE_S is the probe's median time on the
# 2-core Xeon VM the bounds were tuned on; it only sets the scale.
REFERENCE_PROBE_S = 2.5e-3
PROBE_WINDOW = 10
END_TO_END = ("prices_per_s", "latency_ms_p50", "latency_ms_p90", "setup_s", "peak_rss_mb")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["zdomain_book", "induction_book", "convergence_sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up seconds and exit")
    args = parser.parse_args()

    if not (SRC / "levybarrier" / "__init__.py").is_file():
        print(f"bench: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import levybarrier
    if Path(levybarrier.__file__).resolve().parent != (SRC / "levybarrier").resolve():
        print(f"bench: imported levybarrier from {levybarrier.__file__}", file=sys.stderr)
        return 2

    from levybarrier.hilbert import hilbert_kernel
    import workloads
    from tracing import Tracer

    ops = types.SimpleNamespace(
        price=levybarrier.price,
        quad_price=levybarrier.quad_price,
        default_grid=levybarrier.default_grid,
    )
    tracer = Tracer() if args.trace else None

    def set_up():
        book = workloads.WORKLOADS[args.workload](args.seed)
        for call in book:
            if call.method is not None:
                call.grid = ops.default_grid(call.contract, workloads.MODELS[call.model], call.M)
        for call in book:
            if call.grid is not None:
                hilbert_kernel(call.grid)
        return book

    cache_before = hilbert_kernel.cache_info()
    if tracer is None:
        book = set_up()
    else:
        with tracer.patched(ops):
            book = set_up()
    cache_setup = _cache_delta(cache_before, hilbert_kernel.cache_info())
    setup_own = time.perf_counter() - _T0
    if args.setup_probe:
        print(repr(setup_own))
        return 0

    def execute(call):
        """(price, PricingResult or None, error or None)"""
        model = workloads.MODELS[call.model]
        try:
            if call.method is None:
                cfg = levybarrier.OracleConfig(quad_points=call.quad_points)
                return ops.quad_price(call.contract, model, cfg), None, None
            res = ops.price(call.contract, model, call.method, call.grid)
            return res.price, res, None
        except Exception as exc:  # a failing call is counted, not fatal
            return math.nan, None, f"{type(exc).__name__}: {exc}"

    probe = _machine_probe()

    def one_pass(order):
        """[(call, seconds, probe seconds, price, result, error)]"""
        records = []
        for call in order:
            if tracer is not None:
                tracer.call = call.id
            probe_s = probe()
            t = time.perf_counter()
            price, res, err = execute(call)
            records.append((call, time.perf_counter() - t, probe_s, price, res, err))
        return records

    rng = random.Random(f"{args.workload}/order/{args.seed}")
    env = _environment(args.seed, levybarrier)
    if not args.trace:
        # whole passes only, so every run measures the same mix of calls;
        # stop before a pass that would end past --seconds of scaled time,
        # so the pass count does not follow the machine's speed
        records, pass_s = [], []
        while not pass_s or sum(pass_s) + max(pass_s) <= args.seconds:
            more = one_pass(rng.sample(book, len(book)))
            records += more
            pass_s.append(sum(_scaled(more)))
    else:
        order = rng.sample(book, len(book))
        plain = one_pass(order)
        cache_before = hilbert_kernel.cache_info()
        with tracer.patched(ops):
            traced = one_pass(order)
        cache_traced = _cache_delta(cache_before, hilbert_kernel.cache_info())
        records = plain + traced

    # -- output checks -------------------------------------------------
    failures = Counter()
    unexpected, drift = [], []
    first, status, prices = {}, {}, {}  # per call id, from its first record
    for call, _, _, price, res, err in records:
        reason = _failure(call, price, res, err)
        if reason:
            failures[reason] += 1
            if not _known(call, reason):
                unexpected.append(f"{call.label}: {reason}")
        key = err or float(price).hex()
        if first.setdefault(call.id, key) != key:
            drift.append(call.label)
        status.setdefault(call.id, reason or "ok")
        prices.setdefault(call.id, price)
    correct = not unexpected and not drift
    attempted, failed = len(records), sum(failures.values())

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    table = "id\tlabel\tstatus\tprice_hex\tprice\n" + "".join(
        f"{c.id}\t{c.label}\t{status[c.id]}\t{first[c.id]}\t{prices[c.id]!r}\n" for c in book
    )
    prices_path = OUT / f"{stem}.prices.tsv"
    prices_path.write_text(table)
    digest = hashlib.sha256(table.encode()).hexdigest()

    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload}: {len(book)} calls per pass, closed loop, 1 client, "
          f"1 thread, seed {args.seed}")
    if not args.trace:
        lat_ms = [s * 1e3 for s in _scaled(records)]
        raw_ms = [rec[1] * 1e3 for rec in records]
        setups = [setup_own] + _probe_setup(args)
        metrics = {
            "prices_per_s": (attempted / sum(lat_ms) * 1e3, "1/s"),
            "latency_ms_p50": (statistics.median(lat_ms), "ms"),
            "latency_ms_p90": (_p90(lat_ms), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "failed_frac": (failed / attempted, "frac"),
        }
        samples = dict.fromkeys(metrics, attempted) | {"setup_s": len(setups), "peak_rss_mb": 1}
        if args.workload == "convergence_sweep":
            metrics["time_to_tol_ms"] = (_time_to_tol(book, records, lat_ms, prices, workloads), "ms")
            samples["time_to_tol_ms"] = len(pass_s)
        speed = REFERENCE_PROBE_S / statistics.median(rec[2] for rec in records)
        print(f"measured {attempted} calls in {len(pass_s)} passes of "
              f"{', '.join(f'{s:.3f}' for s in pass_s)} s (scaled); machine speed {speed:.3f} x reference")
        print(f"unscaled prices_per_s {attempted / sum(raw_ms) * 1e3:.6g} 1/s, latency_ms_p50 "
              f"{statistics.median(raw_ms):.6g} ms, latency_ms_p90 {_p90(raw_ms):.6g} ms")
        for name, (value, unit) in metrics.items():
            print(f"metric {name} {value:.6g} {unit} (n={samples[name]})")
        # failed_frac and time_to_tol_ms are printed only: see README.md
        metrics = {k: metrics[k] for k in END_TO_END}
    else:
        plain_s, traced_s = sum(_scaled(plain)), sum(_scaled(traced))
        metrics = _per_layer(tracer, traced, cache_setup, cache_traced, plain_s, traced_s)
        tracer.write(OUT / f"{stem}.spans.tsv")
        print(f"traced run: untraced pass {plain_s:.3f} s, traced pass {traced_s:.3f} s (scaled), "
              f"{len(tracer.spans)} spans (set-up and traced pass)")
        for name, (value, unit) in metrics.items():
            print(f"layer {name} {value:.6g} {unit}")
    for reason, count in sorted(failures.items()):
        print(f"failures {count} x {reason}")
    for line in unexpected[:20]:
        print(f"UNEXPECTED {line}")
    for label in drift[:20]:
        print(f"DRIFT {label}: prices differ between passes")
    print(f"prices {prices_path.relative_to(HERE.parent)} sha256={digest}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}{'-trace' if args.trace else ''}.json").write_text(
        json.dumps({**result, "env": env, "failures": dict(failures),
                    "unexpected": unexpected, "drift": drift, "prices_sha256": digest},
                   indent=1)
    )
    print(json.dumps(result))
    return 0


def _failure(call, price, res, err):
    """Why a call failed, or None.  max_iter hits count as failures: the
    fixed point stopped before its tolerance was met."""
    if err:
        return "raised"
    if not math.isfinite(price):
        return "non-finite price"
    if not 0.0 <= price <= call.contract.S0:
        return "price outside [0, S0]"
    if call.anchor is not None and abs(price - call.anchor[0]) > call.anchor[1]:
        return "anchor outside table tolerance"
    if res is not None and res.max_iter_hit:
        return "fixed point hit max_iter"
    return None


def _known(call, reason):
    """Failures present at the commit that defined this benchmark: the
    unfiltered z-domain pricer's truncation error can push prices below
    zero, and the double-barrier fixed point can stop at max_iter.  Any
    other failure makes the run incorrect."""
    return reason == "fixed point hit max_iter" or (
        reason == "price outside [0, S0]" and call.method == "fgm"
    )


def _cache_delta(before, after):
    return after.hits - before.hits, after.misses - before.misses


def _probe_setup(args):
    """Set-up seconds of SETUP_PROBES fresh processes, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _machine_probe():
    """A fixed numpy computation (FFTs and elementwise complex maths on
    4096 points, about 2.5 ms); returns a function that times one run."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    k = np.fft.fft(rng.standard_normal(4096))

    def probe():
        t = time.perf_counter()
        y = x
        for _ in range(6):
            y = np.exp(1j * np.angle(np.fft.ifft(np.fft.fft(y) * k))) * 0.5 + x
        return time.perf_counter() - t

    return probe


def _scaled(records):
    """Call seconds at the reference machine speed (see REFERENCE_PROBE_S)."""
    probes = [rec[2] for rec in records]
    return [
        rec[1] * REFERENCE_PROBE_S
        / statistics.median(probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1])
        for i, rec in enumerate(records)
    ]


def _time_to_tol(book, records, lat_ms, prices, workloads):
    """Sum over cases of the fastest (method, M) sweep call, by median
    latency, within TOLERANCE of the case's M=2^16 reference."""
    lat = defaultdict(list)
    for rec, ms in zip(records, lat_ms):
        lat[rec[0].id].append(ms)
    ref = {c.case: prices[c.id] for c in book if c.reference}
    total = 0.0
    for case in ref:
        times = [
            statistics.median(lat[c.id]) for c in book
            if c.case == case and c.M in workloads.SWEEP_M
            and abs(prices[c.id] - ref[case]) <= workloads.TOLERANCE
        ]
        total += min(times) if times else math.inf
    return total


def _per_layer(tracer, traced, cache_setup, cache_traced, plain_s, traced_s):
    tot = tracer.totals()

    def ms(name, kind=1):
        return tot[name][kind] / 1e6 if name in tot else 0.0

    points = Counter()
    apply_ns = defaultdict(list)
    fft_bytes = 0
    for name, start, end, _, call, note in tracer.spans:
        if name == "ztransform.contour_points":
            points[call] += note
        elif name == "hilbert.apply":
            apply_ns[note].append(end - start)
            fft_bytes += FFT_BYTES_PER_M * note
    z_calls = [c for c, *_ in traced if c.method in ("fgm", "fgm-f")]

    def points_per_price(N=None):
        calls = [c for c in z_calls if N is None or c.contract.N == N]
        return sum(points[c.id] for c in calls) / len(calls) if calls else 0.0

    iters = sum(round(r.avg_iterations * points[c.id]) for c, *_, r, _ in traced
                if r is not None and r.avg_iterations is not None)
    hits = cache_setup[0] + cache_traced[0]
    misses = cache_setup[1] + cache_traced[1]

    def us_per_apply(M):
        return statistics.fmean(apply_ns[M]) / 1e3 if apply_ns.get(M) else 0.0

    return {
        "pricers.self_ms": (ms("pricers.price", 2), "ms"),
        "pricers.fixed_point_iters": (iters, "count"),
        "pricers.max_iter_hits": (sum(1 for *_, r, _ in traced if r is not None and r.max_iter_hit), "count"),
        "ztransform.points": (sum(points.values()), "count"),
        "ztransform.points_per_price": (points_per_price(), "count"),
        "ztransform.points_per_price.N52": (points_per_price(52), "count"),
        "ztransform.points_per_price.N504": (points_per_price(504), "count"),
        "ztransform.ms": (ms("ztransform.contour_points") + ms("ztransform.invert"), "ms"),
        "wiener_hopf.factorize_values.calls": (tot["wiener_hopf.factorize_values"][0], "count"),
        "wiener_hopf.factorize_values.self_ms": (ms("wiener_hopf.factorize_values", 2), "ms"),
        "hilbert.apply.calls": (tot["hilbert.apply"][0], "count"),
        "hilbert.apply.ms": (ms("hilbert.apply"), "ms"),
        "hilbert.apply.us_per_call.M1024": (us_per_apply(1024), "us"),
        "hilbert.apply.us_per_call.M4096": (us_per_apply(4096), "us"),
        "hilbert.apply.bytes_computed": (fft_bytes, "B"),
        "hilbert.projection.self_ms": (
            sum(ms(f"hilbert.{f}_values", 2) for f in ("window", "above", "below")), "ms"),
        "hilbert.kernel.builds": (tot["hilbert.kernel.build"][0], "count"),
        "hilbert.kernel.build_ms": (ms("hilbert.kernel.build"), "ms"),
        "hilbert.kernel.hits": (hits, "count"),
        "hilbert.kernel.misses": (misses, "count"),
        "hilbert.kernel.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "levy.char_function.ms": (ms("levy.char_function"), "ms"),
        "payoff.damped_payoff_fourier.ms": (ms("payoff.damped_payoff_fourier"), "ms"),
        "filters.filter_profile.ms": (ms("filters.filter_profile"), "ms"),
        "grid.inverse_at_zero.ms": (ms("grid.inverse_at_zero"), "ms"),
        "grid.default_grid.ms": (ms("grid.default_grid"), "ms"),
        "oracle.quad_price.calls": (tot["oracle.quad_price"][0], "count"),
        "oracle.quad_price.ms": (ms("oracle.quad_price"), "ms"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "frac"),
    }


def _environment(seed, levybarrier):
    import numpy
    import scipy

    cpu = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                cpu.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name", "unknown"),
        "cache_size": cpu.get("cache size", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "levybarrier": levybarrier.__version__,
        "seed": seed,
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


if __name__ == "__main__":
    sys.exit(main())

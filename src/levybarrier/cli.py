"""Benchmark command-line driver.

Subcommands:

  price         one pricing run; prints the price, timing and, when a
                cached reference exists, the absolute error
  converge      M-sweep per method; writes a CSV of convergence rows and
                prints the fitted log2 error slope per method
  gibbs-demo    rectangular-pulse recovery study (truncated-transform
                ringing): CSV of x, recovered, error per grid size
  oracle        brute-force reference generation into the cache file
  filters-dump  taper profile samples on the scaled frequency lattice

Configuration is a plain-text file of dotted `key = value` lines
('#' comments); unknown keys are rejected.  Exit codes: 0 success,
2 configuration error, 3 numerical failure.  CSV output is
comma-separated with a header row and %.12e numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .filters import FilterKind, FilterSpec, filter_profile
from .grid import build_grid, inverse_dft
from .levy import _REQUIRED_PARAMS, LevyModel
from .oracle import OracleConfig, mc_price, quad_price
from .payoff import OptionContract
from .pricers import (
    FixedPointSettings,
    Method,
    PricingResult,
    default_grid,
    price as run_pricer,
    reference_price,
)
from .wiener_hopf import BranchFailureError, SingularInputError
from .ztransform import ZInversionConfig

__all__ = ["main", "ConfigError", "RunConfig", "load_config", "fit_slope"]

NUM_FMT = "%.12e"


class ConfigError(ValueError):
    """Invalid or missing configuration; maps to exit code 2."""


class NumericalFailure(RuntimeError):
    """Numerical breakdown (branch/convergence); maps to exit code 3."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

# config key name -> library argument name, where they differ
_ARG_NAMES = {"lambda": "lam", "ne": "n_e", "me": "m_e"}
_KEY_NAMES = {arg: key for key, arg in _ARG_NAMES.items()}

# model kind -> its parameter keys, spelled as in the config
_MODEL_PARAM_KEYS = {
    kind.value: tuple(_KEY_NAMES.get(name, name) for name in names)
    for kind, names in _REQUIRED_PARAMS.items()
}

# section -> key names; "method" is the one key without a section
_SECTION_KEYS = {
    "model": ("kind",),
    "contract": ("S0", "K", "U", "L", "r", "q", "T", "N", "type", "alpha"),
    "filter": ("kind", "p", "theta", "eps"),
    "grid": ("M", "x_max"),
    "zt": ("gamma", "ne", "me"),
    "fixpoint": ("tol", "max_iter"),
    "oracle": ("quad_points", "mc_paths", "mc_seed"),
    "output": ("csv", "cache"),
    **_MODEL_PARAM_KEYS,
}

_KNOWN_KEYS = {"method"} | {
    f"{section}.{name}" for section, names in _SECTION_KEYS.items() for name in names
}


def _parse_lines(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


@dataclass
class RunConfig:
    """One run; the defaults are those of a config that sets no optional key."""

    model: LevyModel
    contract: OptionContract
    methods: list[Method]
    m_list: list[int]
    filt: FilterSpec | None = None
    x_max: float | None = None
    zcfg: ZInversionConfig = ZInversionConfig()
    fixpoint: FixedPointSettings = FixedPointSettings()
    oracle: OracleConfig = OracleConfig()
    csv_path: str | None = None
    cache_path: str | None = None


def _need(raw: dict[str, str], key: str) -> str:
    if key not in raw:
        raise ConfigError(f"missing required key: {key}")
    return raw[key]


def _as_float(raw: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in raw:
        if default is None:
            raise ConfigError(f"missing required key: {key}")
        return default
    try:
        value = float(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {raw[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: not a finite number: {raw[key]!r}")
    return value


def _as_int(raw: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in raw:
        if default is None:
            raise ConfigError(f"missing required key: {key}")
        return default
    try:
        return int(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {raw[key]!r}") from exc


def _given(raw: dict[str, str], section: str, **parsers) -> dict:
    """Parsed values of the section's keys present in raw, by library
    argument name; keys the file omits keep the library's defaults."""
    return {
        _ARG_NAMES.get(name, name): parse(raw, f"{section}.{name}")
        for name, parse in parsers.items()
        if f"{section}.{name}" in raw
    }


def _build_model(raw: dict[str, str]) -> LevyModel:
    kind = _need(raw, "model.kind").lower()
    if kind not in _MODEL_PARAM_KEYS:
        raise ConfigError(f"model.kind: unknown model {kind!r}")
    r = _as_float(raw, "contract.r")
    q = _as_float(raw, "contract.q", 0.0)
    params = {
        _ARG_NAMES.get(name, name): _as_float(raw, f"{kind}.{name}")
        for name in _MODEL_PARAM_KEYS[kind]
    }
    try:
        return LevyModel(kind, params, r, q)
    except ValueError as exc:
        raise ConfigError(f"model.kind={kind}: {exc}") from exc


def _build_contract(raw: dict[str, str]) -> OptionContract:
    upper_raw = raw.get("contract.U", "inf").lower()
    upper = math.inf if upper_raw in ("inf", "+inf", "none") else _as_float(raw, "contract.U")
    lower_raw = raw.get("contract.L", "0").lower()
    lower = 0.0 if lower_raw in ("none", "0") else _as_float(raw, "contract.L")
    kind = raw.get("contract.type", "call").lower()
    try:
        return OptionContract(
            S0=_as_float(raw, "contract.S0"),
            K=_as_float(raw, "contract.K"),
            T=_as_float(raw, "contract.T"),
            N=_as_int(raw, "contract.N"),
            r=_as_float(raw, "contract.r"),
            q_div=_as_float(raw, "contract.q", 0.0),
            L=lower,
            U=upper,
            kind=kind,
            alpha=_as_float(raw, "contract.alpha", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_filter(raw: dict[str, str]) -> FilterSpec | None:
    kind = raw.get("filter.kind", "none").lower()
    args = _given(raw, "filter", p=_as_int, theta=_as_float, eps=_as_float)
    if kind == "none":
        return None
    try:
        fk = FilterKind(kind)
    except ValueError as exc:
        raise ConfigError(f"filter.kind: unknown filter {kind!r}") from exc
    try:
        return FilterSpec(fk, **args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_m_list(value: str) -> list[int]:
    try:
        ms = [int(part) for part in value.replace(" ", "").split(",") if part]
    except ValueError as exc:
        raise ConfigError(f"grid.M: not an integer list: {value!r}") from exc
    if not ms:
        raise ConfigError("grid.M: empty grid list")
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise ConfigError("grid.M: sweep sizes must be strictly increasing")
    return ms


def load_config(path: str | Path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse the config file; ``overrides`` maps config keys to values
    that replace the file's."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    raw = _parse_lines(text)
    raw.update(overrides or {})

    model = _build_model(raw)
    contract = _build_contract(raw)
    methods: list[Method] = []
    for token in raw.get("method", "fl").replace(" ", "").split(","):
        if not token:
            continue
        try:
            methods.append(Method(token.lower().replace("_", "-")))
        except ValueError as exc:
            raise ConfigError(f"method: unknown method {token!r}") from exc
    if not methods:
        raise ConfigError("method: empty method list")

    filt = _build_filter(raw)
    m_list = _parse_m_list(raw.get("grid.M", "1024"))
    x_raw = raw.get("grid.x_max", "auto").lower()
    x_max = None if x_raw == "auto" else _as_float(raw, "grid.x_max")
    # a grid that ends inside the strike prices every payoff as 0
    if x_max is not None and x_max <= abs(contract.log_strike):
        raise ConfigError(
            f"grid.x_max: {x_max} does not cover the log-strike |log(K/S0)| = "
            f"{abs(contract.log_strike):.6g}"
        )
    zcfg = ZInversionConfig(**_given(raw, "zt", gamma=_as_float, ne=_as_int, me=_as_int))
    fixpoint_args = _given(raw, "fixpoint", tol=_as_float, max_iter=_as_int)
    try:
        fixpoint = FixedPointSettings(**fixpoint_args)
    except ValueError as exc:  # the message starts with the field name
        raise ConfigError(f"fixpoint.{exc}") from exc
    oracle_args = _given(raw, "oracle", quad_points=_as_int, mc_paths=_as_int, mc_seed=_as_int)
    return RunConfig(
        model=model,
        contract=contract,
        methods=methods,
        filt=filt,
        m_list=m_list,
        x_max=x_max,
        zcfg=zcfg,
        fixpoint=fixpoint,
        oracle=OracleConfig(**oracle_args),
        csv_path=raw.get("output.csv"),
        cache_path=raw.get("output.cache"),
    )


# ---------------------------------------------------------------------------
# reference cache
# ---------------------------------------------------------------------------


def model_key(model: LevyModel) -> str:
    blob = ",".join(
        [model.kind.value]
        + [f"{k}={model.params[k]:.12g}" for k in sorted(model.params)]
        + [f"r={model.r:.12g}", f"q={model.q_div:.12g}"]
    )
    return f"{model.kind.value}:{hashlib.sha1(blob.encode()).hexdigest()[:8]}"


def contract_key(contract: OptionContract) -> str:
    blob = (
        f"{contract.S0:.12g},{contract.K:.12g},{contract.L:.12g},{contract.U:.12g},"
        f"{contract.r:.12g},{contract.q_div:.12g},{contract.T:.12g},"
        f"{contract.kind},{contract.alpha:.12g}"
    )
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


def read_cache(path: str | Path) -> dict[tuple[str, str, int, str], float]:
    out: dict[tuple[str, str, int, str], float] = {}
    p = Path(path)
    if not p.exists():
        return out
    for raw in p.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        mkey, ckey, n, tag, value = line.split()
        out[(mkey, ckey, int(n), tag)] = float(value)
    return out


def write_cache_entry(
    path: str | Path, model: LevyModel, contract: OptionContract, tag: str, value: float
) -> None:
    entries = read_cache(path)
    entries[(model_key(model), contract_key(contract), contract.N, tag)] = value
    lines = ["# model contract_hash N tag price"]
    for (mkey, ckey, n, etag), price in sorted(entries.items()):
        lines.append(f"{mkey} {ckey} {n} {etag} {NUM_FMT % price}")
    # write a sibling file and rename it over the cache, so a reader never
    # sees a partial file
    target = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def lookup_reference(cfg: RunConfig) -> float | None:
    if not cfg.cache_path:
        return None
    entries = read_cache(cfg.cache_path)
    key = (model_key(cfg.model), contract_key(cfg.contract), cfg.contract.N)
    for tag in ("fl-ref", "quad"):
        if (*key, tag) in entries:
            return entries[(*key, tag)]
    return None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _run_one(cfg: RunConfig, method: Method, M: int) -> PricingResult:
    # the configured filter serves the filtered methods; price() supplies
    # the default when none is configured
    filt = cfg.filt if method.filtered else None
    grid = default_grid(cfg.contract, cfg.model, M, cfg.x_max)
    return run_pricer(cfg.contract, cfg.model, method, grid, filt, cfg.zcfg, cfg.fixpoint)


def _filter_label(result: PricingResult) -> str:
    return result.filter.label() if result.filter else "none"


def _single(key: str, values: list, command: str):
    """The one value of a list the command cannot sweep."""
    if len(values) != 1:
        raise ConfigError(f"{key}: {command} takes one value, got {len(values)}")
    return values[0]


def cmd_price(cfg: RunConfig) -> int:
    method = _single("method", cfg.methods, "price")
    result = _run_one(cfg, method, _single("grid.M", cfg.m_list, "price"))
    print(f"method = {result.method.value}")
    print(f"filter = {_filter_label(result)}")
    print(f"M = {result.grid_m}")
    print(f"price = {NUM_FMT % result.price}")
    print(f"cpu_seconds = {NUM_FMT % result.cpu_seconds}")
    if result.avg_iterations is not None:
        print(f"avg_iterations = {result.avg_iterations:.3f}")
    reference = lookup_reference(cfg)
    if reference is not None:
        print(f"reference = {NUM_FMT % reference}")
        print(f"abs_error = {NUM_FMT % abs(result.price - reference)}")
    if result.max_iter_hit:
        print("warning = fixed point hit max_iter", file=sys.stderr)
    if cfg.csv_path:
        _write_csv(
            cfg.csv_path,
            ["M", "price", "cpu_seconds", "avg_iterations", "method", "filter"],
            [
                [
                    result.grid_m,
                    result.price,
                    result.cpu_seconds,
                    result.avg_iterations,
                    result.method.value,
                    _filter_label(result),
                ]
            ],
        )
    return 0


def fit_slope(ms: list[int], errors: list[float]) -> float:
    """Least-squares slope of log2 error against log2 M over the nonzero
    errors; nan with fewer than two of them."""
    pts = [(math.log2(m), math.log2(e)) for m, e in zip(ms, errors) if e > 0]
    if len(pts) < 2:
        return float("nan")
    xs, ys = zip(*pts)
    xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = sum((x - xbar) ** 2 for x in xs)
    return num / den


def cmd_converge(cfg: RunConfig) -> int:
    if len(cfg.m_list) < 2:
        raise ConfigError("grid.M: converge needs an increasing sweep list")
    reference = lookup_reference(cfg)
    if reference is None:
        reference = reference_price(cfg.contract, cfg.model, cfg.x_max)
        if cfg.cache_path:
            write_cache_entry(cfg.cache_path, cfg.model, cfg.contract, "fl-ref", reference)
    rows = []
    slopes = []
    for method in cfg.methods:
        errors = []
        for M in cfg.m_list:
            result = _run_one(cfg, method, M)
            err = abs(result.price - reference)
            errors.append(err)
            rows.append(
                [
                    M,
                    result.price,
                    err,
                    result.cpu_seconds,
                    result.avg_iterations,
                    result.method.value,
                    _filter_label(result),
                ]
            )
        slopes.append((method, fit_slope(cfg.m_list, errors)))
    print(f"reference = {NUM_FMT % reference}")
    for method, slope in slopes:
        print(f"slope method={method.value} log2_error_slope={slope:.3f}")
    if cfg.csv_path:
        _write_csv(
            cfg.csv_path,
            ["M", "price", "abs_error", "cpu_seconds", "avg_iterations", "method", "filter"],
            rows,
        )
    return 0


def pulse_recovery(M: int, x_max: float = 4.0) -> dict:
    """Recover the unit pulse on [-1/2, 1/2] from samples of its
    transform sin(xi/2)/(xi/2) and collect ringing statistics."""
    grid = build_grid(M, x_max)
    xi = grid.xi
    spec = np.ones(M, dtype=complex)
    nz = xi != 0
    spec[nz] = np.sin(xi[nz] / 2.0) / (xi[nz] / 2.0)
    recovered = inverse_dft(spec, grid).real
    x = grid.x
    exact = np.where(np.abs(x) < 0.5, 1.0, 0.0)
    exact[np.isclose(np.abs(x), 0.5)] = 0.5
    error = recovered - exact
    interior = (np.abs(np.abs(x) - 0.5) > 0.25) & (np.abs(x) < 3.0)
    jump_idx = np.argmin(np.abs(x - 0.5))
    return {
        "x": x,
        "recovered": recovered,
        "error": error,
        "jump_value": float(recovered[jump_idx]),
        "peak_error": float(np.max(np.abs(error))),
        "interior_error": float(np.max(np.abs(error[interior]))),
    }


def cmd_gibbs(cfg_m_list: list[int], csv_path: str | None) -> int:
    """Print the ringing statistics per grid size and write the CSV;
    raises NumericalFailure when the jump value or the O(1/M) decay of
    the interior error is off."""
    stats = {}
    rows = []
    for M in cfg_m_list:
        res = pulse_recovery(M)
        stats[M] = res
        for xj, rec, err in zip(res["x"], res["recovered"], res["error"]):
            rows.append([M, xj, rec, err])
        print(
            f"M={M}: jump_value={res['jump_value']:.6f} "
            f"peak_error={res['peak_error']:.6f} interior_error={res['interior_error']:.3e}"
        )
    failures = []
    largest = max(cfg_m_list)
    if abs(stats[largest]["jump_value"] - 0.5) > 1e-3:
        failures.append(f"jump value {stats[largest]['jump_value']:.6f} not within 1e-3 of 0.5")
    for a, b in zip(cfg_m_list, cfg_m_list[1:]):
        if b == 2 * a:
            ratio = stats[a]["interior_error"] / stats[b]["interior_error"]
            if not (1.6 <= ratio <= 2.4):
                failures.append(f"interior error ratio M={a}->{b} is {ratio:.2f}, not O(1/M)")
    if csv_path:
        _write_csv(csv_path, ["M", "x", "recovered", "error"], rows)
    if failures:
        raise NumericalFailure("; ".join(failures))
    return 0


def cmd_oracle(cfg: RunConfig, with_mc: bool) -> int:
    value = quad_price(cfg.contract, cfg.model, cfg.oracle)
    print(f"quad_price = {NUM_FMT % value}")
    if cfg.cache_path:
        write_cache_entry(cfg.cache_path, cfg.model, cfg.contract, "quad", value)
        print(f"cache = {cfg.cache_path}")
    if with_mc:
        mc_val, stderr = mc_price(cfg.contract, cfg.model, cfg.oracle)
        print(f"mc_price = {NUM_FMT % mc_val}")
        print(f"mc_stderr = {NUM_FMT % stderr}")
    return 0


def cmd_filters_dump(cfg: RunConfig) -> int:
    M = _single("grid.M", cfg.m_list, "filters-dump")
    grid = default_grid(cfg.contract, cfg.model, M, cfg.x_max)
    sigma = filter_profile(cfg.filt or FilterSpec.exponential(), grid)
    psi = cfg.model.char_function(grid.xi, cfg.contract.dt)
    rows = [
        [k, xi, eta, s, p.real, p.imag]
        for k, xi, eta, s, p in zip(
            range(-grid.M // 2, grid.M // 2), grid.xi, grid.eta, sigma, psi
        )
    ]
    header = ["k", "xi", "eta", "sigma", "re", "im"]
    if cfg.csv_path:
        _write_csv(cfg.csv_path, header, rows)
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(_fmt_cell(c) for c in row))
    return 0


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return NUM_FMT % value


def _write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt_cell(c) for c in row) for row in rows)
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


# flag -> the config key it overrides, and the flags each config subcommand reads
_FLAG_KEYS = {
    "--method": "method",
    "--filter": "filter.kind",
    "--M": "grid.M",
    "--out": "output.csv",
    "--seed": "oracle.mc_seed",
}
_COMMAND_FLAGS = {
    "price": ("--method", "--filter", "--M", "--out"),
    "converge": ("--method", "--filter", "--M", "--out"),
    "oracle": ("--seed",),
    "filters-dump": ("--filter", "--M", "--out"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levybarrier", description="barrier-option pricing benchmarks"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _COMMAND_FLAGS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        for flag in flags:
            p.add_argument(flag, dest=_FLAG_KEYS[flag])
        if name == "oracle":
            p.add_argument("--mc", action="store_true")
    g = sub.add_parser("gibbs-demo")
    g.add_argument("--M", dest="M", default="64,128,256,512,1024")
    g.add_argument("--out")
    return parser


# the RunConfig output paths each subcommand writes; price only reads the cache
_OUTPUTS = {
    "price": ("csv_path",),
    "converge": ("csv_path", "cache_path"),
    "oracle": ("cache_path",),
    "filters-dump": ("csv_path",),
}


def _check_output_dirs(*paths: str | None) -> None:
    """Fail before any pricing when an output's directory is missing."""
    for path in paths:
        if path and not Path(path).parent.is_dir():
            raise ConfigError(f"cannot write {path}: no directory {Path(path).parent}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gibbs-demo":
            _check_output_dirs(args.out)
            return cmd_gibbs(_parse_m_list(args.M), args.out)
        flags = {k: v for k, v in vars(args).items() if k in _KNOWN_KEYS and v is not None}
        cfg = load_config(args.config, flags)
        _check_output_dirs(*(getattr(cfg, name) for name in _OUTPUTS[args.command]))
        if args.command == "price":
            return cmd_price(cfg)
        if args.command == "converge":
            return cmd_converge(cfg)
        if args.command == "oracle":
            return cmd_oracle(cfg, with_mc=args.mc)
        return cmd_filters_dump(cfg)
    except (BranchFailureError, SingularInputError, NumericalFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # ConfigError, and the pricers' checks of the contract they are given
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

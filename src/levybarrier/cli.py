"""Benchmark command-line driver.

Subcommands:

  price         one pricing run; prints the price and its timing
  converge      M-sweep per method; writes a CSV of convergence rows and
                prints the fitted log2 error slope per method
  gibbs-demo    rectangular-pulse recovery study (truncated-transform
                ringing): CSV of x, recovered, error per grid size
  oracle        brute-force reference prices: quadrature, and Monte Carlo
                with --mc; writes no file
  filters-dump  taper profile samples on the scaled frequency lattice

Configuration is a plain-text file of dotted `key = value` lines
('#' comments); each key is read or rejected by name.  A value that does
not parse names its key (`contract.N: not an integer: ...`); a value
the library refuses names its section (`contract: ...`).  filter.kind
picks the taper, the default taper's kind when absent: exponential
reads filter.p, planck reads filter.eps, and a filter key the kind does
not read is an error, as is a parameter of another model kind.  grid.M
sizes are powers of two >= 8.  Exit codes: 0 success, 2 configuration
error, 3 numerical failure.  CSV output is comma-separated with a
header row and %.12e numbers.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .filters import DEFAULT_TAPER, ExponentialFilter, PlanckTaper, Taper, filter_profile
from .grid import build_grid, inverse_dft
from .levy import NIG, VG, Gaussian, Kou, LevyModel
from .oracle import OracleConfig, mc_price, quad_price
from .payoff import OptionContract
from .pricers import (
    Method,
    PricingResult,
    default_grid,
    price as run_pricer,
    reference_price,
)
from .wiener_hopf import SingularInputError

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
_ARG_NAMES = {"lambda": "lam", "q": "q_div", "type": "kind"}
_KEY_NAMES = {arg: key for key, arg in _ARG_NAMES.items()}

# model.kind -> its law type; _MODEL_KEYS: the law's fields, spelled as config keys
_LAWS = {law.name: law for law in (Kou, NIG, VG, Gaussian)}
_MODEL_KEYS = {
    kind: tuple(_KEY_NAMES.get(f.name, f.name) for f in fields(law))
    for kind, law in _LAWS.items()
}

# filter.kind -> its taper type, whose fields are the filter keys it reads
_TAPERS = {"exponential": ExponentialFilter, "planck": PlanckTaper}


def _float(key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{key}: not a finite number: {value!r}")
    return number


def _int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {value!r}") from exc


def _float_or(tokens: tuple[str, ...], meaning: float | None):
    """Parser of a finite float, or of one of ``tokens`` (any case) for ``meaning``."""
    return lambda key, value: meaning if value.lower() in tokens else _float(key, value)


def _choice(noun: str, options):
    """Parser of one of ``options``, in any case."""

    def parse(key: str, value: str) -> str:
        if value.lower() not in options:
            raise ConfigError(f"{key}: unknown {noun} {value.lower()!r}")
        return value.lower()

    return parse


def _methods(key: str, value: str) -> list[Method]:
    methods = []
    for token in filter(None, value.replace(" ", "").split(",")):
        try:
            methods.append(Method(token.lower().replace("_", "-")))
        except ValueError as exc:
            raise ConfigError(f"{key}: unknown method {token!r}") from exc
    if not methods:
        raise ConfigError(f"{key}: empty method list")
    return methods


def _sizes(key: str, value: str) -> list[int]:
    try:
        ms = [int(part) for part in value.replace(" ", "").split(",") if part]
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer list: {value!r}") from exc
    if not ms:
        raise ConfigError(f"{key}: empty grid list")
    for m in ms:
        if m < 8 or m & (m - 1):
            raise ConfigError(f"{key}: {m} is not a power of two >= 8")
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise ConfigError(f"{key}: sweep sizes must be strictly increasing")
    return ms


# config key -> parser of its value: the one list of the keys
_KEYS = {
    "method": _methods,
    "model.kind": _choice("model", _MODEL_KEYS),
    **{f"{kind}.{name}": _float for kind, names in _MODEL_KEYS.items() for name in names},
    "contract.S0": _float,
    "contract.K": _float,
    "contract.T": _float,
    "contract.N": _int,
    "contract.r": _float,
    "contract.q": _float,
    "contract.L": _float_or(("none", "0"), 0.0),
    "contract.U": _float_or(("inf", "+inf", "none"), math.inf),
    "contract.type": lambda key, value: value.lower(),
    "filter.kind": _choice("filter", _TAPERS),
    "filter.p": _int,
    "filter.eps": _float,
    "grid.M": _sizes,
    "grid.x_max": _float_or(("auto",), None),
    "oracle.quad_points": _int,
    "oracle.mc_paths": _int,
    "oracle.mc_seed": _int,
    "output.csv": lambda key, value: value,
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
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _build(values: dict, section: str, make, required: tuple[str, ...] = (), **fixed):
    """``make(**fixed, **args)``: args are the keys of ``section`` that
    ``values`` holds, popped and passed by argument name, so a key the
    file omits keeps the library's default unless ``required`` names it.
    A library ValueError becomes a ConfigError that names the section."""
    for name in required:
        if f"{section}.{name}" not in values:
            raise ConfigError(f"missing required key: {section}.{name}")
    names = [key.split(".")[1] for key in values if key.split(".")[0] == section]
    args = {_ARG_NAMES.get(name, name): values.pop(f"{section}.{name}") for name in names}
    try:
        return make(**fixed, **args)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


@dataclass
class RunConfig:
    """One run; the defaults are those of a config that sets no optional key."""

    model: LevyModel
    contract: OptionContract
    methods: list[Method]
    m_list: list[int]
    filt: Taper = DEFAULT_TAPER
    x_max: float | None = None
    oracle: OracleConfig = OracleConfig()
    csv_path: str | None = None


def load_config(path: str | Path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse the config file; ``overrides`` maps config keys to values
    that replace the file's."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    given = {**_parse_lines(text), **(overrides or {})}
    values = {key: _KEYS[key](key, value) for key, value in given.items()}

    contract = _build(values, "contract", OptionContract, ("S0", "K", "T", "N", "r"))
    kind = values.get("model.kind")
    if kind is None:
        raise ConfigError("missing required key: model.kind")
    params = _build(values, kind, dict, _MODEL_KEYS[kind])
    # the law is built in the "model" section: its errors read "model: kou: ..."
    model_of = lambda kind: LevyModel(_LAWS[kind](**params), contract.r, contract.q_div)
    model = _build(values, "model", model_of)
    default = next(name for name, make in _TAPERS.items() if make is type(DEFAULT_TAPER))
    taper = values.pop("filter.kind", default)
    reads = inspect.signature(_TAPERS[taper]).parameters
    for key in values:
        if key.startswith("filter.") and key.split(".")[1] not in reads:
            raise ConfigError(f"{key}: not read by filter.kind = {taper}")
    cfg = RunConfig(
        model=model,
        contract=contract,
        methods=values.pop("method", [Method.FL]),
        m_list=values.pop("grid.M", [1024]),
        filt=_build(values, "filter", _TAPERS[taper]),
        x_max=values.pop("grid.x_max", None),
        oracle=_build(values, "oracle", OracleConfig),
        csv_path=values.pop("output.csv", None),
    )
    if values:  # only parameters of another model kind are left
        raise ConfigError(f"{next(iter(values))}: not read by model.kind = {kind}")
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _run_one(cfg: RunConfig, method: Method, M: int) -> PricingResult:
    # the configured taper serves the filtered methods only
    filt = cfg.filt if method.filtered else None
    grid = default_grid(cfg.contract, cfg.model, M, cfg.x_max)
    return run_pricer(cfg.contract, cfg.model, method, grid, filt)


def _row(result: PricingResult, **extra) -> dict:
    """The CSV cells of one result by column name; ``extra`` follows the price."""
    return {
        "M": result.grid_m,
        "price": result.price,
        **extra,
        "cpu_seconds": result.cpu_seconds,
        "avg_iterations": result.avg_iterations,
        "method": result.method.value,
        "filter": result.filter.label() if result.filter else "none",
    }


def _single(key: str, values: list, command: str):
    """The one value of a list the command cannot sweep."""
    if len(values) != 1:
        raise ConfigError(f"{key}: {command} takes one value, got {len(values)}")
    return values[0]


def cmd_price(cfg: RunConfig) -> int:
    method = _single("method", cfg.methods, "price")
    result = _run_one(cfg, method, _single("grid.M", cfg.m_list, "price"))
    row = _row(result)
    for name in ("method", "filter", "M"):
        print(f"{name} = {row[name]}")
    print(f"x_rule = {result.plan.x_rule}\nlive_m = {result.plan.m}")
    print(f"price = {NUM_FMT % result.price}")
    print(f"cpu_seconds = {NUM_FMT % result.cpu_seconds}")
    if result.avg_iterations is not None:
        print(f"avg_iterations = {result.avg_iterations:.3f}")
    if result.max_iter_hit:
        print("warning = fixed point hit max_iter", file=sys.stderr)
    if cfg.csv_path:
        _write_csv(cfg.csv_path, list(row), [list(row.values())])
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
    reference = reference_price(cfg.contract, cfg.model, cfg.x_max)
    rows = []
    slopes = []
    for method in cfg.methods:
        errors = []
        for M in cfg.m_list:
            result = _run_one(cfg, method, M)
            errors.append(abs(result.price - reference))
            rows.append(_row(result, abs_error=errors[-1]))
        slopes.append((method, fit_slope(cfg.m_list, errors)))
    print(f"reference = {NUM_FMT % reference}")
    for method, slope in slopes:
        print(f"slope method={method.value} log2_error_slope={slope:.3f}")
    if cfg.csv_path:
        _write_csv(cfg.csv_path, list(rows[0]), [list(row.values()) for row in rows])
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
    if with_mc:
        mc_val, stderr = mc_price(cfg.contract, cfg.model, cfg.oracle)
        print(f"mc_price = {NUM_FMT % mc_val}")
        print(f"mc_stderr = {NUM_FMT % stderr}")
    return 0


def cmd_filters_dump(cfg: RunConfig) -> int:
    M = _single("grid.M", cfg.m_list, "filters-dump")
    grid = default_grid(cfg.contract, cfg.model, M, cfg.x_max)
    sigma = filter_profile(cfg.filt, grid)
    psi = cfg.model.char_function(grid.xi, cfg.contract.dt)
    rows = [
        [k, xi, eta, s, p.real, p.imag]
        for k, xi, eta, s, p in zip(
            range(-grid.M // 2, grid.M // 2), grid.xi, grid.eta, sigma, psi
        )
    ]
    _write_csv(cfg.csv_path, ["k", "xi", "eta", "sigma", "re", "im"], rows)
    return 0


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (str, int, np.integer)):
        return str(value)
    return NUM_FMT % value


def _write_csv(path: str | Path | None, header: list[str], rows: list[list]) -> None:
    """Write the CSV to ``path``, or to stdout when it is None."""
    text = "".join(",".join(map(_fmt_cell, row)) + "\n" for row in [header, *rows])
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


# flag -> the config key it overrides
_FLAG_KEYS = {
    "--method": "method",
    "--filter": "filter.kind",
    "--M": "grid.M",
    "--out": "output.csv",
    "--seed": "oracle.mc_seed",
}
# config subcommand -> the flags it reads
_COMMANDS = {
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
    for name, flags in _COMMANDS.items():
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


def _check_output_dir(path: str | None) -> None:
    """Fail before any pricing when the output's directory is missing."""
    if path and not Path(path).parent.is_dir():
        raise ConfigError(f"cannot write {path}: no directory {Path(path).parent}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # numpy's warnings of extreme inputs stay off stderr: the verdict is the output
        with np.errstate(all="ignore"):
            if args.command == "gibbs-demo":
                _check_output_dir(args.out)
                return cmd_gibbs(_sizes("grid.M", args.M), args.out)
            flags = {k: v for k, v in vars(args).items() if k in _KEYS and v is not None}
            cfg = load_config(args.config, flags)
            if "--out" in _COMMANDS[args.command]:
                _check_output_dir(cfg.csv_path)
            if args.command == "price":
                return cmd_price(cfg)
            if args.command == "converge":
                return cmd_converge(cfg)
            if args.command == "oracle":
                return cmd_oracle(cfg, with_mc=args.mc)
            return cmd_filters_dump(cfg)
    except (ArithmeticError, SingularInputError, NumericalFailure) as exc:
        # ArithmeticError: BranchFailureError and overflows of extreme inputs
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # ConfigError, and the pricers' checks of the contract they are given
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a grid.M too large to allocate; numpy raises ValueError instead
        # for sizes beyond the address space
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levybarrier import ExponentialFilter, OracleConfig, cli
from levybarrier.cases import TABLE_PRICES
from levybarrier.cli import load_config, main
from levybarrier.filters import DEFAULT_TAPER

BASE_CONFIG = """
model.kind = kou
kou.sigma = 0.1
kou.lambda = 3.0
kou.p = 0.3
kou.eta1 = 40.0
kou.eta2 = 12.0
contract.S0 = 1.0
contract.K = 1.1
contract.L = 0.8
contract.U = 1.2
contract.r = 0.05
contract.q = 0.02
contract.T = 1.0
contract.N = 4
contract.type = call
method = fgm-f
filter.kind = exponential
grid.M = 512
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_price_run(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["price", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "price = " in out
    price = float(next(l for l in out.splitlines() if l.startswith("price")).split("=")[1])
    assert price == pytest.approx(TABLE_PRICES["kou"][4], abs=1e-9)


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "\ncontract.vega = 1.0\n")
    assert main(["price", "--config", cfg]) == 2
    assert "contract.vega" in capsys.readouterr().err


def test_missing_required_key_names_it(tmp_path, capsys):
    text = "\n".join(l for l in BASE_CONFIG.splitlines() if not l.startswith("contract.K"))
    cfg = write_config(tmp_path, text)
    assert main(["price", "--config", cfg]) == 2
    assert "contract.K" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["sigma", "lambda", "p", "eta1", "eta2"])
def test_missing_model_parameter_names_it(tmp_path, capsys, name):
    assert main(["price", "--config", _kou_double(tmp_path, {f"kou.{name}": None})]) == 2
    assert capsys.readouterr().err == f"config error: missing required key: kou.{name}\n"


def test_duplicate_and_malformed_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "\nmethod = fl\n")
    assert main(["price", "--config", cfg]) == 2
    cfg2 = write_config(tmp_path, BASE_CONFIG + "\nnot a key value line\n")
    assert main(["price", "--config", cfg2]) == 2
    cfg3 = write_config(tmp_path, BASE_CONFIG.replace("method = fgm-f", "method = fgm-x"))
    assert main(["price", "--config", cfg3]) == 2


KOU_DOUBLE_CFG = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "kou_double.cfg"


@pytest.mark.parametrize(
    "key, value",
    [
        ("contract.N", "2"),  # the z-domain pricers need N >= 3
        ("contract.alpha", "50"),  # retired: the pricer picks the payoff tilt
        ("contract.L", "0"),  # up-and-out: fgm needs a lower barrier
    ],
)
def test_pricer_rejection_is_config_error(tmp_path, capsys, key, value):
    text = KOU_DOUBLE_CFG.read_text()
    text, count = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
    if key in RETIRED_KEYS:
        assert count == 0
        text += f"{key} = {value}\n"
    else:
        assert count == 1
    cfg = write_config(tmp_path, text)
    assert main(["price", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    if key in RETIRED_KEYS:
        assert err.endswith(f": unknown key '{key}'\n")
    assert len(err.splitlines()) == 1


def test_tilt_breaking_the_premise_is_config_error(tmp_path, capsys):
    # E[e^{2 X_dt}] = 1.42 for a gaussian of sigma 3 at dt = 2/52, against
    # 1 / rho(50) = 1.32
    changes = {"model.kind": "gaussian", "gaussian.sigma": "3", "contract.T": "2",
               "contract.N": "52", "contract.U": "inf", "method": "fgm"}
    changes.update({f"kou.{name}": None for name in ("sigma", "lambda", "p", "eta1", "eta2")})
    assert main(["price", "--config", _kou_double(tmp_path, changes)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: payoff tilt alpha = -2: ")
    assert len(err.splitlines()) == 1


# keys that are gone are rejected as unknown, by name, before their value
# is read: grid.width and zt.accelerated (grid.x_max is the one knob for
# the grid range; the inversion picks Euler from the target index), the
# z-inversion and fixed-point settings, which are library constants,
# contract.alpha (the pricer works out the payoff tilt) and output.cache
# (converge prices its reference on every run)
RETIRED_KEYS = (
    "grid.width", "zt.accelerated",
    "zt.gamma", "zt.ne", "zt.me", "fixpoint.tol", "fixpoint.max_iter",
    "contract.alpha", "output.cache",
)


@pytest.mark.parametrize(
    "key, message",
    [
        pytest.param(key, f"{key}: not a number: 'abc'", id=key)
        for key in ("contract.U", "contract.L", "grid.x_max")
    ]
    + [pytest.param(key, f"line {{line}}: unknown key '{key}'", id=key) for key in RETIRED_KEYS],
)
def test_malformed_number_names_its_key(tmp_path, capsys, key, message):
    text = KOU_DOUBLE_CFG.read_text()
    text, count = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = abc", text, flags=re.M)
    if count == 0:
        text += f"{key} = abc\n"
    line = 1 + text.splitlines().index(f"{key} = abc")
    cfg = write_config(tmp_path, text)
    assert main(["price", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message.format(line=line)}\n"


def _kou_double(tmp_path, changes):
    """kou_double.cfg with each key of ``changes`` set to its value (a key
    the file lacks is appended), or removed where the value is None."""
    text = KOU_DOUBLE_CFG.read_text()
    for key, value in changes.items():
        line = "" if value is None else f"{key} = {value}\n"
        text, count = re.subn(rf"^{re.escape(key)} = .*\n", line, text, flags=re.M)
        if count == 0:
            text += line
    return write_config(tmp_path, text)


@pytest.mark.parametrize("key", ["contract.r", "contract.alpha", "kou.sigma", "grid.x_max"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_number_names_its_key(tmp_path, capsys, key, value):
    assert main(["price", "--config", _kou_double(tmp_path, {key: value})]) == 2
    err = capsys.readouterr().err
    if key in RETIRED_KEYS:  # rejected by name, whatever its value
        assert err.startswith("config error: line ")
        assert err.endswith(f": unknown key '{key}'\n")
    else:
        assert err == f"config error: {key}: not a finite number: {value!r}\n"


@pytest.mark.parametrize("token", ["inf", "+inf", "none", "INF"])
def test_open_upper_barrier_tokens(tmp_path, token):
    cfg = load_config(_kou_double(tmp_path, {"contract.U": token}))
    assert cfg.contract.U == math.inf


@pytest.mark.parametrize(
    "key, value",
    [
        ("fixpoint.max_iter", "0"),
        ("fixpoint.tol", "-1"),
        ("fixpoint.tol", "nan"),
        ("zt.gamma", "20"),
        ("zt.ne", "0"),
        ("oracle.quad_points", "100"),
        ("filter.p", "3"),
        ("filter.eps", "0.7"),
        ("contract.type", "straddle"),
        ("kou.p", "2"),
    ],
)
def test_invalid_fixed_point_settings_name_their_key(tmp_path, capsys, key, value):
    # a value the library rejects names its section (the model's keys
    # build the model); a retired key is rejected by name, whatever its
    # value
    changes = {key: value}
    if key == "filter.eps":
        changes.update({"filter.kind": "planck", "filter.p": None})
    section = "model" if key.startswith("kou.") else key.split(".")[0]
    assert main(["price", "--config", _kou_double(tmp_path, changes)]) == 2
    err = capsys.readouterr().err
    if key in RETIRED_KEYS:
        assert err.startswith("config error: line ")
        assert err.endswith(f": unknown key '{key}'\n")
    else:
        assert err.startswith(f"config error: {section}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["price", "filters-dump"])
def test_grid_too_large_to_allocate_is_config_error(tmp_path, capsys, command):
    # 2^59 points ask numpy for 4 EiB, beyond any 64-bit address space, so
    # the allocation fails at once whatever the overcommit mode
    assert main([command, "--config", _kou_double(tmp_path, {}), "--M", str(2**59)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: out of memory: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("method", ["fgm-f", "fl"])
@pytest.mark.parametrize("x_max", ["0.01", "0.0953"])
def test_grid_inside_the_strike_rejected(tmp_path, capsys, method, x_max):
    # K = 1.1: |log(K/S0)| = 0.09531
    cfg = _kou_double(tmp_path, {"grid.x_max": x_max})
    assert main(["price", "--config", cfg, "--method", method]) == 2
    assert capsys.readouterr().err.startswith("config error: log-strike k = 0.0953102 lies ")


@pytest.mark.parametrize("method", ["fgm-f", "fl"])
def test_grid_spacing_overflow_rejected(tmp_path, capsys, method):
    # 2 x_max overflows to inf: fl used to price 0.0 and fgm-f 7.4e-309
    cfg = _kou_double(tmp_path, {"grid.x_max": "1e308"})
    assert main(["price", "--config", cfg, "--method", method]) == 2
    assert capsys.readouterr().err == (
        "config error: x_max = 1e+308 gives a non-finite grid spacing\n"
    )


def test_band_clipped_past_itself_rejected(tmp_path, capsys):
    # grid.x_max = 0.03 clips u = log 1.2 to 0.03, below l = log 1.05; a
    # lone l = log 1.05 or u = log 0.95 lies outside that grid
    base = {"contract.K": "1.0", "contract.L": "1.05", "grid.x_max": "0.03"}
    cases = [
        ({**base}, "lower barrier"),
        ({**base, "contract.U": "inf"}, "lower barrier"),
        ({**base, "contract.L": "0", "contract.U": "0.95", "contract.type": "put", "method": "fl"},
         "upper barrier"),
        # a grid inside the strike prices 0; one inside the near barrier
        # l = log 0.7 = -0.357 would move it onto the edge -0.2
        ({"grid.x_max": "0.05"}, "log-strike k"),
        *[
            ({"contract.K": "1.0", "contract.L": "0.7", "contract.U": "inf", "contract.N": "52",
              "grid.x_max": "0.2", "grid.M": "2048", "method": method}, "lower barrier")
            for method in ("fgm-f", "fl")
        ],
    ]
    for changes, message in cases:
        assert main(["price", "--config", _kou_double(tmp_path, changes)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}")
        assert len(err.splitlines()) == 1


def test_empty_sweep_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("grid.M = 512", "grid.M = "))
    assert main(["converge", "--config", cfg]) == 2


def test_decreasing_sweep_rejected(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("grid.M = 512", "grid.M = 512,256"))
    assert main(["converge", "--config", cfg]) == 2


def test_flag_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["price", "--config", cfg, "--method", "fl", "--M", "256"]) == 0
    out = capsys.readouterr().out
    assert "method = fl" in out
    assert "M = 256" in out


def test_unfiltered_method_reports_no_filter(tmp_path, capsys):
    # BASE_CONFIG configures an exponential taper, which fl does not take
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["price", "--config", cfg, "--method", "fl"]) == 0
    assert "filter = none" in capsys.readouterr().out.splitlines()


def test_filter_keys_are_read_by_their_kind(tmp_path, capsys):
    def run(text):
        code = main(["price", "--config", write_config(tmp_path, text)])
        return code, capsys.readouterr()

    # an absent filter.kind is exponential, which reads filter.p
    unset = BASE_CONFIG.replace("filter.kind = exponential\n", "filter.p = 8\n")
    code, out = run(unset)
    assert code == 0 and "filter = exp(p=8)" in out.out.splitlines()
    # a key the kind does not read is rejected by name; filter.theta is
    # no key at all (the exponential filter's strength is a constant)
    line = len(BASE_CONFIG.splitlines()) + 1  # of the appended key
    for kind, key, value, message in [
        ("planck", "filter.p", "8", "filter.p: not read by filter.kind = planck"),
        ("exponential", "filter.eps", "0.3", "filter.eps: not read by filter.kind = exponential"),
        ("none", "filter.theta", "30", f"line {line}: unknown key 'filter.theta'"),
    ]:
        text = BASE_CONFIG.replace("exponential", kind) + f"{key} = {value}\n"
        code, out = run(text)
        assert code == 2
        assert out.err == f"config error: {message}\n"


def test_filter_kind_none_is_rejected(tmp_path, capsys):
    unset = BASE_CONFIG.replace("filter.kind = exponential", "filter.kind = none")
    assert main(["price", "--config", write_config(tmp_path, unset)]) == 2
    assert capsys.readouterr().err == "config error: filter.kind: unknown filter 'none'\n"


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("oracle", "--out", "x.csv"),
        ("oracle", "--M", "64"),
        ("oracle", "--filter", "planck"),
        ("oracle", "--method", "fl"),
        ("price", "--seed", "3"),
        ("converge", "--seed", "3"),
        ("filters-dump", "--method", "fl"),
        ("filters-dump", "--seed", "3"),
    ],
)
def test_flag_a_subcommand_does_not_read_is_rejected(tmp_path, command, flag, value):
    cfg = write_config(tmp_path, BASE_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, flag, value])
    assert exc.value.code == 2


def test_seed_flag_reaches_the_oracle(tmp_path, monkeypatch):
    seen = []

    def record(cfg, with_mc):
        seen.append(cfg.oracle)
        return 0

    monkeypatch.setattr(cli, "cmd_oracle", record)
    assert main(["oracle", "--config", write_config(tmp_path, BASE_CONFIG), "--seed", "7"]) == 0
    assert seen == [OracleConfig(mc_seed=7)]


def _refuse_pricing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("priced before the run was checked")

    for name in ("run_pricer", "reference_price", "quad_price", "default_grid"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("price", "method", "fgm-f, fl"),
        ("price", "grid.M", "256, 1024"),
        ("filters-dump", "grid.M", "256, 1024"),
    ],
)
def test_single_valued_command_rejects_a_list(tmp_path, capsys, monkeypatch, command, key, value):
    text, count = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}", BASE_CONFIG, flags=re.M)
    assert count == 1
    _refuse_pricing(monkeypatch)
    assert main([command, "--config", write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {key}: {command} takes one value, got 2\n"


@pytest.mark.parametrize("command, sizes", [("price", "1000"), ("converge", "1024,4097")])
def test_grid_sizes_are_powers_of_two(tmp_path, capsys, monkeypatch, command, sizes):
    # checked when the config is loaded: nothing is priced
    cfg = write_config(tmp_path, BASE_CONFIG)
    _refuse_pricing(monkeypatch)
    assert main([command, "--config", cfg, "--M", sizes]) == 2
    bad = sizes.split(",")[-1]
    assert capsys.readouterr().err == f"config error: grid.M: {bad} is not a power of two >= 8\n"
    assert main(["gibbs-demo", "--M", f"64,{bad}"]) == 2
    assert capsys.readouterr().err == f"config error: grid.M: {bad} is not a power of two >= 8\n"


SHIPPED_CONFIGS = sorted(KOU_DOUBLE_CFG.parent.glob("*.cfg"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=[p.name for p in SHIPPED_CONFIGS])
def test_shipped_config_prices(tmp_path, monkeypatch, capsys, path):
    # a run writes no file: nothing appears in the working directory
    monkeypatch.chdir(tmp_path)
    load_config(path)
    assert main(["price", "--config", str(path)]) == 0
    assert "price = " in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_oracle_prints_quad_price_and_writes_no_file(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "\noracle.quad_points = 8192\n")

    def quad():
        assert main(["oracle", "--config", cfg]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("quad_price = ")
        return float(line.split("=")[1])

    first = quad()
    assert first == pytest.approx(TABLE_PRICES["kou"][4], abs=1e-6)
    assert quad() == first
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("price", "contract.r", "-800"),  # exp(-r T) overflows
        ("oracle", "contract.r", "-800"),
        ("price", "kou.sigma", "1e200"),  # the martingale drift overflows
        ("price", "kou.eta2", "1e-300"),  # the variance divides by zero
    ],
)
def test_arithmetic_error_is_numerical_failure(tmp_path, capsys, command, key, value):
    text, count = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}", BASE_CONFIG, flags=re.M)
    assert count == 1
    assert main([command, "--config", write_config(tmp_path, text)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert len(err.splitlines()) == 1


# down-and-out runs (L = 0.9) whose price overflows to nan
NON_FINITE_RUNS = {
    # a jump rate of 1e6 sets the drift to 4.6e4: Psi overflows
    **{
        f"jumpy-{method}-{M}": {"kou.lambda": "1e6", "contract.N": "1", "method": method,
                                "grid.M": M}
        for method in ("fl", "fl-f")
        for M in ("16", "1024")
    },
    # the value transform overflows over 52 dates
    "steep-fl-256": {"kou.sigma": "2", "contract.r": "700", "contract.N": "52", "method": "fl",
                     "grid.M": "256", "grid.x_max": "1e3"},
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("run", sorted(NON_FINITE_RUNS))
def test_non_finite_price_is_numerical_failure(tmp_path, capsys, run):
    changes = {"contract.L": "0.9", "contract.U": None, **NON_FINITE_RUNS[run]}
    cfg = _kou_double(tmp_path, changes)
    assert main(["price", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: non-finite price nan ")
    assert len(captured.err.splitlines()) == 1
    assert "price" not in captured.out


# the float keys of kou_double.cfg, and the extreme values the exit-code
# test sets them to
FLOAT_KEYS = (
    "kou.sigma", "kou.lambda", "kou.p", "kou.eta1", "kou.eta2", "contract.S0", "contract.K",
    "contract.T", "contract.r", "contract.q", "contract.L", "contract.U",
)
EXTREMES = ("0", "1e300", "-1e300", "5e-324", "700", "-700", "1e15", "1e-8")


@st.composite
def price_overrides(draw):
    """kou_double.cfg changes: 1-3 float keys at extreme values, the
    method, N, M, x_max, sometimes an open side and sometimes a put."""
    changes = {
        key: draw(st.sampled_from(EXTREMES))
        for key in draw(st.lists(st.sampled_from(FLOAT_KEYS), min_size=1, max_size=3, unique=True))
    }
    changes["method"] = draw(st.sampled_from(["fgm", "fgm-f", "fl", "fl-f"]))
    changes["contract.N"] = str(draw(st.sampled_from([1, 2, 3, 4, 52, 253])))
    changes["grid.M"] = str(2 ** draw(st.integers(3, 10)))
    changes["grid.x_max"] = draw(st.sampled_from(["auto", "0.3", "5", "1e3"]))
    side = draw(st.sampled_from([None, "contract.L", "contract.U"]))
    if side is not None:
        changes.setdefault(side, "0" if side == "contract.L" else "inf")
    if draw(st.booleans()):
        changes["contract.type"] = "put"
    return changes


# extreme inputs overflow on their way to the verdict this test checks
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=2))
@given(changes=price_overrides())
def test_price_exit_codes_hold_for_extreme_configs(tmp_path_factory, changes):
    # exit 0 prints a finite price; exit 2 or 3 prints one line that names
    # the failure, and no traceback
    cfg = _kou_double(tmp_path_factory.mktemp("cfg"), changes)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["price", "--config", cfg])
    assert code in (0, 2, 3)
    if code == 0:
        line = next(l for l in out.getvalue().splitlines() if l.startswith("price = "))
        assert math.isfinite(float(line.split("=")[1]))
    else:
        prefix = "config error: " if code == 2 else "numerical failure: "
        assert err.getvalue().startswith(prefix)
        assert len(err.getvalue().splitlines()) == 1


def test_negative_mc_seed_rejected_at_load(tmp_path, capsys, monkeypatch):
    _refuse_pricing(monkeypatch)
    cfg = write_config(tmp_path, BASE_CONFIG + "oracle.mc_seed = -1\n")
    assert main(["oracle", "--config", cfg, "--mc"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: oracle: mc_seed ")
    assert "quad_price" not in captured.out


def test_converge_writes_csv_and_slope(tmp_path, capsys):
    out_csv = tmp_path / "conv.csv"
    text = BASE_CONFIG.replace("grid.M = 512", "grid.M = 256,512,1024").replace(
        "method = fgm-f", "method = fgm,fgm-f"
    ) + f"\noutput.csv = {out_csv}\n"
    cfg = write_config(tmp_path, text, name="conv.cfg")
    assert main(["converge", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "slope method=fgm" in out and "slope method=fgm-f" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "M,price,abs_error,cpu_seconds,avg_iterations,method,filter"
    assert len(lines) == 1 + 6  # two methods, three grid sizes

    # determinism apart from the timing column
    def stripped(path):
        rows = []
        for line in Path(path).read_text().splitlines()[1:]:
            cells = line.split(",")
            rows.append(cells[:3] + cells[4:])
        return rows

    assert main(["converge", "--config", cfg]) == 0
    capsys.readouterr()
    first = stripped(out_csv)
    assert main(["converge", "--config", cfg]) == 0
    capsys.readouterr()
    assert stripped(out_csv) == first


def test_gibbs_demo(tmp_path, capsys):
    out_csv = tmp_path / "gibbs.csv"
    assert main(["gibbs-demo", "--M", "256,512,1024", "--out", str(out_csv)]) == 0
    out = capsys.readouterr().out
    assert "jump_value" in out
    header = out_csv.read_text().splitlines()[0]
    assert header == "M,x,recovered,error"


def test_gibbs_failure_is_numerical_failure(tmp_path, capsys):
    # too coarse to resolve the jump: the CSV is still written, then the
    # failure ends the run with exit code 3
    out_csv = tmp_path / "g.csv"
    assert main(["gibbs-demo", "--M", "16,32", "--out", str(out_csv)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: jump value")
    assert out_csv.exists()


def test_missing_output_directory_fails_before_pricing(tmp_path, capsys, monkeypatch):
    _refuse_pricing(monkeypatch)
    out_csv = tmp_path / "missing" / "c.csv"
    cfg = write_config(tmp_path, BASE_CONFIG)
    for command in (["price"], ["converge", "--M", "256,512"], ["filters-dump"]):
        assert main([*command, "--config", cfg, "--out", str(out_csv)]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot write {out_csv}: no directory {out_csv.parent}\n"
        )


def test_unwritable_csv_is_config_error(tmp_path, capsys):
    out_csv = tmp_path / "missing" / "gibbs.csv"
    assert main(["gibbs-demo", "--M", "256,512", "--out", str(out_csv)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {out_csv}: ")


def test_filters_dump(tmp_path):
    out_csv = tmp_path / "filt.csv"
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["filters-dump", "--config", cfg, "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "k,xi,eta,sigma,re,im"
    assert len(lines) == 1 + 512


def test_filters_dump_prints_the_csv_it_writes(tmp_path, capsys):
    out_csv = tmp_path / "filt.csv"
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["filters-dump", "--config", cfg, "--M", "64", "--out", str(out_csv)]) == 0
    assert main(["filters-dump", "--config", cfg, "--M", "64"]) == 0
    assert capsys.readouterr().out == out_csv.read_text()


def test_parameters_of_another_model_kind_rejected(tmp_path, capsys):
    assert main(["price", "--config", _kou_double(tmp_path, {"nig.alpha": "15"})]) == 2
    assert capsys.readouterr().err == "config error: nig.alpha: not read by model.kind = kou\n"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_the_config_keys():
    # the key column of the block under "Configuration files": the leading
    # dotted names of each line
    block = README.read_text().split("### Configuration files", 1)[1].split("```")[1]
    listed = []
    for line in block.splitlines():
        for token in line.split():
            if not re.fullmatch(r"method|[a-z]+\.[A-Za-z0-9_]+", token):
                break
            listed.append(token)
    assert sorted(listed) == sorted(cli._KEYS)


def test_load_config_round_trip(tmp_path):
    cfg = load_config(write_config(tmp_path, BASE_CONFIG))
    assert cfg.contract.N == 4
    assert cfg.model.law.name == "kou"
    assert cfg.m_list == [512]
    assert cfg.methods[0].value == "fgm-f"


def test_minimal_config_takes_library_defaults(tmp_path):
    # BASE_CONFIG sets no oracle or filter-parameter key
    cfg = load_config(write_config(tmp_path, BASE_CONFIG))
    assert cfg.oracle == OracleConfig()
    assert cfg.filt == DEFAULT_TAPER
    assert cfg.model.law.lam == 3.0


def test_settings_keys_reach_the_library(tmp_path, capsys):
    text = BASE_CONFIG + "filter.p = 8\noracle.mc_seed = 5\n"
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.filt == ExponentialFilter(p=8)
    assert cfg.oracle == OracleConfig(mc_seed=5)

    bad = write_config(tmp_path, BASE_CONFIG + "oracle.quad_points = twelve\n", name="bad.cfg")
    assert main(["price", "--config", bad]) == 2
    assert "oracle.quad_points: not an integer" in capsys.readouterr().err

import math
import re
from pathlib import Path

import pytest

from levybarrier import FilterSpec, FixedPointSettings, OracleConfig, ZInversionConfig, cli
from levybarrier.cases import MODELS, TABLE_PRICES
from levybarrier.cli import load_config, main, model_key, read_cache

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
        ("contract.alpha", "50"),  # outside the kou strip of regularity
        ("contract.L", "0"),  # up-and-out: fgm needs a lower barrier
    ],
)
def test_pricer_rejection_is_config_error(tmp_path, capsys, key, value):
    text = KOU_DOUBLE_CFG.read_text()
    text, count = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
    assert count == 1
    cfg = write_config(tmp_path, text)
    assert main(["price", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert len(err.splitlines()) == 1


# grid.width and zt.accelerated are no longer keys (grid.x_max is the one
# knob for the grid range; the inversion picks Euler from the target index),
# so they are rejected as unknown, by name, before their value is read
@pytest.mark.parametrize(
    "key, message",
    [
        pytest.param(key, f"{key}: not a number: 'abc'", id=key)
        for key in ("contract.U", "contract.L", "grid.x_max")
    ]
    + [
        pytest.param(key, f"line {{line}}: unknown key '{key}'", id=key)
        for key in ("grid.width", "zt.accelerated")
    ],
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


def _kou_double_with(tmp_path, key, value):
    text = KOU_DOUBLE_CFG.read_text()
    text, count = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
    assert count == 1
    return write_config(tmp_path, text)


@pytest.mark.parametrize("key", ["contract.r", "contract.alpha", "kou.sigma", "grid.x_max"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_number_names_its_key(tmp_path, capsys, key, value):
    assert main(["price", "--config", _kou_double_with(tmp_path, key, value)]) == 2
    assert capsys.readouterr().err == f"config error: {key}: not a finite number: {value!r}\n"


@pytest.mark.parametrize("token", ["inf", "+inf", "none", "INF"])
def test_open_upper_barrier_tokens(tmp_path, token):
    cfg = load_config(_kou_double_with(tmp_path, "contract.U", token))
    assert cfg.contract.U == math.inf


@pytest.mark.parametrize(
    "key, value", [("fixpoint.max_iter", "0"), ("fixpoint.tol", "-1"), ("fixpoint.tol", "nan")]
)
def test_invalid_fixed_point_settings_name_their_key(tmp_path, capsys, key, value):
    assert main(["price", "--config", _kou_double_with(tmp_path, key, value)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}")
    assert len(err.splitlines()) == 1


def test_zero_fixed_point_tolerance_is_valid(tmp_path):
    cfg = load_config(_kou_double_with(tmp_path, "fixpoint.tol", "0"))
    assert cfg.fixpoint == FixedPointSettings(tol=0.0)


@pytest.mark.parametrize("method", ["fgm-f", "fl"])
@pytest.mark.parametrize("x_max", ["0.01", "0.0953"])
def test_grid_inside_the_strike_rejected(tmp_path, capsys, method, x_max):
    # K = 1.1: |log(K/S0)| = 0.09531
    cfg = _kou_double_with(tmp_path, "grid.x_max", x_max)
    assert main(["price", "--config", cfg, "--method", method]) == 2
    assert capsys.readouterr().err.startswith("config error: grid.x_max: ")


def test_band_clipped_past_itself_rejected(tmp_path, capsys):
    # grid.x_max = 0.03 clips u = log 1.2 to 0.03, below l = log 1.05; a
    # lone l = log 1.05 or u = log 0.95 lies outside that grid
    cases = [
        ({}, "lower barrier"),
        ({"contract.U": "inf"}, "lower barrier"),
        ({"contract.L": "0", "contract.U": "0.95", "contract.type": "put", "method": "fl"},
         "upper barrier"),
    ]
    for changes, message in cases:
        text = KOU_DOUBLE_CFG.read_text()
        base = {"contract.K": "1.0", "contract.L": "1.05", "grid.x_max": "0.03"}
        for key, value in {**base, **changes}.items():
            text, count = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
            assert count == 1
        assert main(["price", "--config", write_config(tmp_path, text)]) == 2
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


def test_filter_kind_none_takes_the_default_taper(tmp_path, capsys):
    def price_line(text):
        assert main(["price", "--config", write_config(tmp_path, text)]) == 0
        return next(l for l in capsys.readouterr().out.splitlines() if l.startswith("price = "))

    unset = BASE_CONFIG.replace("filter.kind = exponential", "filter.kind = none")
    assert price_line(unset) == price_line(BASE_CONFIG)


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


SHIPPED_CONFIGS = sorted(KOU_DOUBLE_CFG.parent.glob("*.cfg"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=[p.name for p in SHIPPED_CONFIGS])
def test_shipped_config_prices(tmp_path, monkeypatch, capsys, path):
    # the configs name a relative cache file; run where it cannot touch the repo
    monkeypatch.chdir(tmp_path)
    load_config(path)
    assert main(["price", "--config", str(path)]) == 0
    assert "price = " in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_oracle_writes_cache_and_price_reports_error(tmp_path, capsys):
    cache = tmp_path / "refs.txt"
    cfg = write_config(
        tmp_path,
        BASE_CONFIG + f"\noracle.quad_points = 8192\noutput.cache = {cache}\n",
    )
    assert main(["oracle", "--config", cfg]) == 0
    capsys.readouterr()
    assert cache.exists()
    entries = read_cache(cache)
    assert len(entries) == 1
    ((mk, ck, n, tag),) = entries.keys()
    assert n == 4 and tag == "quad" and mk.startswith("kou:")

    # regenerating reproduces the stored value exactly
    first = next(iter(entries.values()))
    assert main(["oracle", "--config", cfg]) == 0
    capsys.readouterr()
    assert next(iter(read_cache(cache).values())) == pytest.approx(first, abs=1e-10)

    assert main(["price", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "reference = " in out and "abs_error = " in out
    # the cache is replaced whole: no temporary file stays behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["refs.txt", "run.cfg"]


def test_converge_writes_csv_and_slope(tmp_path, capsys):
    cache = tmp_path / "refs.txt"
    out_csv = tmp_path / "conv.csv"
    text = BASE_CONFIG.replace("grid.M = 512", "grid.M = 256,512,1024").replace(
        "method = fgm-f", "method = fgm,fgm-f"
    ) + f"\noutput.cache = {cache}\noutput.csv = {out_csv}\n"
    cfg = write_config(tmp_path, text, name="conv.cfg")
    assert main(["converge", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "slope method=fgm" in out and "slope method=fgm-f" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "M,price,abs_error,cpu_seconds,avg_iterations,method,filter"
    assert len(lines) == 1 + 6  # two methods, three grid sizes
    # cache now holds the backward-induction reference
    assert any(tag == "fl-ref" for (_, _, _, tag) in read_cache(cache))

    # determinism apart from the timing column (warm cache: the stored
    # reference is what both runs price against)
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
    missing = tmp_path / "missing"
    cache_cfg = write_config(
        tmp_path, BASE_CONFIG + f"\noutput.cache = {missing / 'refs.txt'}\n", name="cache.cfg"
    )
    # price only reads the cache, so a missing cache directory is harmless
    assert main(["price", "--config", cache_cfg]) == 0
    capsys.readouterr()

    _refuse_pricing(monkeypatch)
    out_csv = missing / "c.csv"
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["converge", "--config", cfg, "--M", "256,512", "--out", str(out_csv)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {out_csv}: ")
    for command in (["converge", "--M", "256,512"], ["oracle"]):
        assert main([*command, "--config", cache_cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {missing / 'refs.txt'}: ")


def test_unwritable_csv_is_config_error(tmp_path, capsys):
    out_csv = tmp_path / "missing" / "gibbs.csv"
    assert main(["gibbs-demo", "--M", "256,512", "--out", str(out_csv)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {out_csv}: ")


def test_unwritable_cache_is_config_error(tmp_path, capsys):
    cache = tmp_path / "missing" / "refs.txt"
    cfg = write_config(
        tmp_path, BASE_CONFIG + f"\noracle.quad_points = 8192\noutput.cache = {cache}\n"
    )
    assert main(["oracle", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {cache}: ")


def test_filters_dump(tmp_path):
    out_csv = tmp_path / "filt.csv"
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["filters-dump", "--config", cfg, "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "k,xi,eta,sigma,re,im"
    assert len(lines) == 1 + 512


def test_model_key_distinguishes_parameters():
    from levybarrier import LevyModel

    a = MODELS["kou"]
    b = LevyModel("kou", {**a.params, "eta2": 12.5}, a.r, a.q_div)
    assert model_key(a) != model_key(b)


def test_load_config_round_trip(tmp_path):
    cfg = load_config(write_config(tmp_path, BASE_CONFIG))
    assert cfg.contract.N == 4
    assert cfg.model.kind.value == "kou"
    assert cfg.m_list == [512]
    assert cfg.methods[0].value == "fgm-f"


def test_minimal_config_takes_library_defaults(tmp_path):
    # BASE_CONFIG sets no zt, fixpoint, oracle or filter-parameter key
    cfg = load_config(write_config(tmp_path, BASE_CONFIG))
    assert cfg.zcfg == ZInversionConfig()
    assert cfg.fixpoint == FixedPointSettings()
    assert cfg.oracle == OracleConfig()
    assert cfg.filt == FilterSpec.exponential()
    assert cfg.model.params["lam"] == 3.0


def test_settings_keys_reach_the_library(tmp_path, capsys):
    text = BASE_CONFIG + (
        "zt.gamma = 7.5\nzt.ne = 16\nzt.me = 24\n"
        "fixpoint.max_iter = 7\nfilter.p = 8\noracle.mc_seed = 5\n"
    )
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.zcfg == ZInversionConfig(gamma=7.5, n_e=16, m_e=24)
    assert cfg.fixpoint == FixedPointSettings(max_iter=7)
    assert cfg.filt == FilterSpec.exponential(p=8)
    assert cfg.oracle == OracleConfig(mc_seed=5)

    bad = write_config(tmp_path, BASE_CONFIG + "zt.ne = twelve\n", name="bad.cfg")
    assert main(["price", "--config", bad]) == 2
    assert "zt.ne: not an integer" in capsys.readouterr().err

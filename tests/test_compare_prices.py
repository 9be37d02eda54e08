import importlib.util
from pathlib import Path

import pytest

HEADER = "id\tlabel\tstatus\tprice_hex\tprice\n"


def _script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "compare_prices.py"
    spec = importlib.util.spec_from_file_location("compare_prices", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _table(tmp_path, name, rows):
    path = tmp_path / name
    body = "".join(
        f"{i}\t{label}\t{status}\t{p.hex() if isinstance(p, float) else p}\t{p!r}\n"
        for i, (label, status, p) in enumerate(rows)
    )
    path.write_text(HEADER + body)
    return str(path)


def test_equal_tables_pass(tmp_path, capsys):
    rows = [("fl/a", "ok", 0.25), ("fgm/b", "ValueError: x", "ValueError: x")]
    old, new = _table(tmp_path, "old", rows), _table(tmp_path, "new", rows)
    assert _script().main([old, new]) == 0
    assert "2 calls, 0 differ, max |delta| 0.000e+00" in capsys.readouterr().out


@pytest.mark.parametrize("delta, code", [(5e-13, 0), (5e-12, 1)])
def test_tolerance_and_status_change(tmp_path, capsys, delta, code):
    old = _table(tmp_path, "old", [("fl/a", "ok", 0.25), ("fgm/b", "ok", 0.5)])
    new = _table(
        tmp_path, "new", [("fl/a", "ok", 0.25 + delta), ("fgm/b", "fixed point hit max_iter", 0.5)]
    )
    assert _script().main([old, new]) == code
    out = capsys.readouterr().out
    assert "2 calls, 2 differ" in out
    assert "status fgm/b: ok -> fixed point hit max_iter" in out


def test_counts_per_method(tmp_path, capsys):
    rows = [("fgm/a", "ok", 0.5), ("fl/a", "ok", 0.25), ("fl/b", "ok", 0.75)]
    old = _table(tmp_path, "old", rows)
    rows[1] = ("fl/a", "ok", 0.25 + 2**-50)
    new = _table(tmp_path, "new", rows)
    assert _script().main([old, new]) == 0
    out = capsys.readouterr().out
    assert "  fgm: 1 calls, 0 differ, max |delta| 0.000e+00" in out
    assert "  fl: 2 calls, 1 differ, max |delta| 8.882e-16" in out


def test_method_sorting_first_over_tolerance_fails(tmp_path, capsys):
    old = _table(tmp_path, "old", [("fgm/b", "ok", 0.5), ("fl/a", "ok", 0.25)])
    new = _table(tmp_path, "new", [("fgm/b", "ok", 0.5 + 5e-12), ("fl/a", "ok", 0.25)])
    assert _script().main([old, new]) == 1
    out = capsys.readouterr().out
    assert "2 calls, 1 differ" in out
    assert "  fl: 1 calls, 0 differ, max |delta| 0.000e+00" in out


def test_call_failing_on_one_side_fails(tmp_path):
    old = _table(tmp_path, "old", [("fl/a", "ok", 0.25)])
    new = _table(tmp_path, "new", [("fl/a", "ValueError: x", "ValueError: x")])
    assert _script().main([old, new]) == 1


def test_different_books_rejected(tmp_path):
    old = _table(tmp_path, "old", [("fl/a", "ok", 0.25)])
    new = _table(tmp_path, "new", [("fl/b", "ok", 0.25)])
    assert _script().main([old, new]) == 2

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

METRICS = ("prices_per_s", "latency_ms_p50", "latency_ms_p90", "setup_s", "peak_rss_mb")


def _script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "compare_bench.py"
    spec = importlib.util.spec_from_file_location("compare_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(tmp_path, name, values, failed=0, attempted=100, failures=None, seed=None):
    path = tmp_path / name
    metrics = {m: {"value": v, "unit": "x"} for m, v in zip(METRICS, values)}
    run = {"metrics": metrics, "failed": failed, "attempted": attempted}
    if failures is not None:
        run["failures"] = failures
    if seed is not None:
        run["env"] = {"seed": seed}
    path.write_text(json.dumps(run))
    return str(path)


def test_ratios_follow_each_metrics_direction(tmp_path, capsys):
    parent = _run(tmp_path, "parent.json", [10.0, 20.0, 100.0, 1.5, 110.0], failed=21)
    change = _run(tmp_path, "change.json", [12.0, 25.0, 100.0, 1.2, 121.0], failed=21)
    assert _script().main([parent, change]) == 0
    lines = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
    assert lines["prices_per_s"][3:] == ["1.200", "better"]
    assert lines["latency_ms_p50"][3:] == ["1.250", "worse"]
    assert lines["latency_ms_p90"][3:] == ["1.000", "equal"]
    assert lines["setup_s"][3:] == ["0.800", "better"]
    assert lines["peak_rss_mb"][3:] == ["1.100", "worse"]


def test_failed_share_of_both_runs(tmp_path, capsys):
    parent = _run(tmp_path, "parent.json", [1.0] * 5, failed=132, attempted=618)
    change = _run(tmp_path, "change.json", [1.0] * 5, failed=154, attempted=721)
    assert _script().main([parent, change]) == 0
    out = capsys.readouterr().out
    assert "failed share parent: 132/618 = 21.36%" in out
    assert "failed share change: 154/721 = 21.36%" in out
    assert out.splitlines()[-1] == "run 1: same share: pass count differs, no status change"


def test_pass_count_flip_is_no_status_change(tmp_path, capsys):
    # 7 and 8 passes of a book that fails 15 calls per pass
    parent = _run(tmp_path, "parent.json", [1.0] * 5, failed=105, attempted=721,
                  failures={"price outside [0, S0]": 42, "fixed point hit max_iter": 63})
    change = _run(tmp_path, "change.json", [1.0] * 5, failed=120, attempted=824,
                  failures={"price outside [0, S0]": 48, "fixed point hit max_iter": 72})
    assert _script().main([parent, change]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == [
        "run 1 parent: failed 105, attempted 721, 63 x fixed point hit max_iter, "
        "42 x price outside [0, S0]",
        "run 1 change: failed 120, attempted 824, 72 x fixed point hit max_iter, "
        "48 x price outside [0, S0]",
        "run 1: same share: pass count differs, no status change",
    ]


def test_share_change_is_reported(tmp_path, capsys):
    # no per-reason counts in these files: the run lines carry the counts only
    parent = _run(tmp_path, "parent.json", [1.0] * 5, failed=0, attempted=720)
    change = _run(tmp_path, "change.json", [1.0] * 5, failed=5, attempted=720)
    assert _script().main([parent, change]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == ["run 1 parent: failed 0, attempted 720",
                        "run 1 change: failed 5, attempted 720", "run 1: share differs"]


def test_missing_metric_rejected(tmp_path):
    parent = _run(tmp_path, "parent.json", [1.0] * 5)
    change = _run(tmp_path, "change.json", [1.0] * 4)
    assert _script().main([parent, change]) == 2


def test_several_runs_per_side_compare_medians(tmp_path, capsys):
    parents = [_run(tmp_path, f"p{i}.json", [v, 20.0, 70.0 + i, 0.3, 65.0], failed=15,
                    attempted=618) for i, v in enumerate([30.0, 34.0, 33.0])]
    changes = [_run(tmp_path, f"c{i}.json", [v, 20.0, 64.0 - i, 0.3, 65.0], failed=f,
                    attempted=a) for i, (v, f, a) in enumerate([(35.0, 15, 618), (36.0, 18, 721)])]
    assert _script().main(["--parent", *parents, "--change", *changes]) == 0
    out = capsys.readouterr().out.splitlines()
    lines = {line.split()[0]: line.split() for line in out}
    # medians 33 and 35.5; min-max over each side's runs
    assert lines["prices_per_s"][1:] == ["33", "35.5", "1.076", "better", "30-34", "35-36"]
    assert lines["latency_ms_p90"][1:] == ["71", "63.5", "0.894", "better", "70-72", "63-64"]
    assert lines["setup_s"][4:] == ["equal", "0.3-0.3", "0.3-0.3"]
    assert "failed share parent: 15/618 = 2.43%, 15/618 = 2.43%, 15/618 = 2.43%" in out
    assert "failed share change: 15/618 = 2.43%, 18/721 = 2.50%" in out
    # runs pair up in order; the third parent run has no change run
    assert out[-7:] == [
        "run 1 parent: failed 15, attempted 618", "run 1 change: failed 15, attempted 618",
        "run 1: same share, same counts",
        "run 2 parent: failed 15, attempted 618", "run 2 change: failed 18, attempted 721",
        "run 2: share differs",
        "run 3 parent: failed 15, attempted 618",
    ]


def test_pooled_shares_differ_through_pass_counts(tmp_path, capsys):
    # seed A fails 12 of 103 calls per pass, seed B 16 of 103; each run
    # keeps its seed's share, but the change ran more passes of seed B
    parents = [_run(tmp_path, "pa.json", [1.0] * 5, failed=96, attempted=824),
               _run(tmp_path, "pb.json", [1.0] * 5, failed=112, attempted=721)]
    changes = [_run(tmp_path, "ca.json", [1.0] * 5, failed=96, attempted=824),
               _run(tmp_path, "cb.json", [1.0] * 5, failed=144, attempted=927)]
    assert _script().main(["--parent", *parents, "--change", *changes]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "pooled failed share parent: 208/1545 = 13.46%" in out
    assert "pooled failed share change: 240/1751 = 13.71%" in out
    assert ("pooled: pooled shares differ: every run pair has the same share, "
            "so pass counts across seeds caused it") in out
    assert out[-1] == "run 2: same share: pass count differs, no status change"


def test_pooled_shares_differ_with_a_run_share(tmp_path, capsys):
    parents = [_run(tmp_path, f"p{i}.json", [1.0] * 5, failed=15, attempted=618) for i in range(2)]
    changes = [_run(tmp_path, "c0.json", [1.0] * 5, failed=15, attempted=618),
               _run(tmp_path, "c1.json", [1.0] * 5, failed=16, attempted=618)]
    assert _script().main(["--parent", *parents, "--change", *changes]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "pooled failed share parent: 30/1236 = 2.43%" in out
    assert "pooled failed share change: 31/1236 = 2.51%" in out
    assert "pooled: pooled shares differ" in out
    assert out[-1] == "run 2: share differs"
    # equal pooled shares say so
    assert _script().main(["--parent", *parents, "--change", *parents]) == 0
    assert "pooled: pooled shares equal" in capsys.readouterr().out.splitlines()


def test_two_file_form_and_flags_do_not_mix(tmp_path):
    parent = _run(tmp_path, "parent.json", [1.0] * 5)
    change = _run(tmp_path, "change.json", [1.0] * 5)
    for argv in ([parent, change, "--change", change], ["--parent", parent], [parent]):
        with pytest.raises(SystemExit) as exit_info:
            _script().main(argv)
        assert exit_info.value.code == 2


def test_runs_pair_by_seed_whatever_the_order(tmp_path, capsys):
    # seed 1 fails 15 of 103 calls per pass and seed 2 16; the change ran
    # its seeds in the other order, and seed 3 on the parent only
    def seeded(name, seed, passes):
        return _run(tmp_path, name, [1.0] * 5, failed=(14 + seed) * passes,
                    attempted=103 * passes, seed=seed)

    parents = [seeded("p1.json", 1, 7), seeded("p2.json", 2, 8), seeded("p3.json", 3, 7)]
    changes = [seeded("c2.json", 2, 9), seeded("c1.json", 1, 7), seeded("c1b.json", 1, 8)]
    assert _script().main(["--parent", *parents, "--change", *changes]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "seed 1: same share, same counts" in out
    assert "seed 2: same share: pass count differs, no status change" in out
    assert "seed 1 #2 change: failed 120, attempted 824" in out
    assert out[-1] == "seed 3: parent only"
    assert "seed 1 #2: change only" in out
    assert not any("share differs" in line for line in out)


def test_runs_without_a_seed_pair_by_position(tmp_path, capsys):
    parent = _run(tmp_path, "parent.json", [1.0] * 5, failed=15, attempted=103, seed=1)
    change = _run(tmp_path, "change.json", [1.0] * 5, failed=15, attempted=103)
    assert _script().main([parent, change]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "run 1: same share, same counts"


def test_closed_stdout_ends_quietly(tmp_path):
    # the reader end is closed before the script writes, as by `| head -0`
    parent = _run(tmp_path, "parent.json", [1.0] * 5)
    change = _run(tmp_path, "change.json", [1.0] * 5)
    script = Path(__file__).resolve().parents[1] / "scripts" / "compare_bench.py"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, str(script), parent, change], stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, "")

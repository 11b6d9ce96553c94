"""Self-tests of the benchmark harness.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness as h  # noqa: E402
import run  # noqa: E402
from spans import END, NAME, START, self_times  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_on_synthetic_tree():
    #  root [0, 10]
    #  +-- a [1, 4]          +-- b [3, 6]  (siblings may overlap)
    #      +-- a1 [2, 3]
    #      +-- a2 [3.5, 5]   (sticks out of its parent)
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 3.0, 6.0, 0, None],
        ["a1", 2.0, 3.0, 1, None],
        ["a2", 3.5, 5.0, 1, None],
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.5, 3.0, 1.0, 1.5])


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == h.END_TO_END
    assert layers == h.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(h.WORKLOADS)
    names = list(e2e) + list(layers) + list(h.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for unit in list(e2e.values()) + list(layers.values()):
        assert UNIT_RE.fullmatch(unit), unit


def test_seed_zero_is_the_preset_and_seeds_only_move_one_parameter():
    for name, spec in h.WORKLOADS.items():
        assert h.seed_overrides(name, 0) == {}
        for seed in (1, 7, 12345):
            drawn = h.seed_overrides(name, seed)
            assert list(drawn) == [spec.param]
            assert spec.low <= drawn[spec.param] <= spec.high
            assert drawn == h.seed_overrides(name, seed)


@pytest.mark.parametrize("workload", list(h.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_shrunken_smoke_run_has_no_failed_operation(workload, trace):
    result = run.run_workload(workload, seed=3, seconds=0.1, trace=trace,
                              shrink=True)
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert result["correct"]
    expected = h.PER_LAYER if trace else h.END_TO_END
    assert set(result["metrics"]) == set(expected)
    assert all(m["value"] is not None for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(h.WORKLOADS))
def test_traced_pass_accounts_for_all_time(workload, tmp_path):
    argv = h.compare_argv(workload, 0, tmp_path, shrink=True)
    res = h.run_pass(argv, tmp_path, fine=True)
    assert res.ok_compare and res.ok_check
    top = [s for s in res.spans if s[NAME] in ("cli.compare", "cli.check")]
    total = sum(s[END] - s[START] for s in top)
    # every instant is attributed to exactly one span's self time
    assert sum(self_times(res.spans)) == pytest.approx(total, rel=1e-9)
    stages = h.stage_times(res.spans, max(res.manifest["modes"]))
    parts = sum(stages[k] for k in ("setup_s", "full_solve_s", "offline_s",
                                    "online_s", "post_s", "artifacts_s"))
    assert parts == pytest.approx(stages["pipeline_s"], rel=1e-9)
    assert 0.0 < stages["rdh_query_s"] <= stages["online_s"]


def test_flipped_artifact_byte_is_a_failed_operation(tmp_path):
    good, bad = tmp_path / "good", tmp_path / "bad"
    argv = h.compare_argv("ladder-online", 0, good, shrink=True)
    res = h.run_pass(argv, good, fine=False)
    ops, _ = h.gate("ladder-online", res, good, None)
    assert all(ok for _, ok in ops)

    shutil.copytree(good, bad)
    target = bad / "errors.csv"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))
    ok_check = h.run_cli(h.Tracer(), "cli.check",
                         ["check", "--manifest", str(bad / "manifest.json")])
    flipped = h.PassResult(res.spans, res.ok_compare, ok_check, res.manifest,
                           res.instrument, res.files)
    ops, _ = h.gate("ladder-online", flipped, bad, res.files)
    assert [name for name, ok in ops if not ok] == ["check"]

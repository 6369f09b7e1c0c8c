"""Self-test of the benchmark harness on a private, ~20x smaller size table.

Not part of tier-1 ``testpaths``; run it explicitly (about a minute)::

    python -m pytest benchmarks/perf/test_harness.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.perf import compare, measure, spec, trace  # noqa: E402
from repro.device.ssd import StorageDevice  # noqa: E402

SMALL = {
    "update_rbj": {"rows": 200, "num_blocks": 128, "window_ops": 80},
    "update_xftl": {"rows": 200, "num_blocks": 128, "window_ops": 300},
    "tpcc_wal": {"num_blocks": 256, "window_ops": 60},
    "ftl_gc": {"num_blocks": 64, "precondition_ops": 400, "window_ops": 100},
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def values(result: dict) -> dict[str, float]:
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def sim_values(result: dict) -> dict[str, float]:
    sim = {m.name for m in spec.END_TO_END + spec.PER_LAYER if m.clock == "sim"}
    return {name: value for name, value in values(result).items() if name in sim}


def test_benchmark_json_lists_what_the_harness_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec.WORKLOAD_NAMES)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in spec.WORKLOADS]
    for section, metrics in (("end_to_end", spec.END_TO_END), ("per_layer", spec.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[section]]
        assert listed == [(m.name, m.unit, m.better) for m in metrics]
    assert BENCHMARK["paths"] == ["benchmarks/perf"]


@pytest.fixture(scope="module", params=spec.WORKLOAD_NAMES)
def untraced(request):
    """One small untraced run per workload: (name, result)."""
    name = request.param
    return name, measure.run_untraced(name, 7, 0.01, SMALL[name])


def test_untraced_run_completes_verifies_and_emits_every_metric(untraced):
    _name, result = untraced
    assert result["failed"] == 0 and result["attempted"] >= 1
    # Verification problems are failures; at 1/20 size only steadiness may not hold.
    assert [p for p in result["problems"] if not p.startswith("not steady")] == []
    assert list(result["metrics"]) == [m.name for m in spec.END_TO_END]
    for metric in spec.END_TO_END:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert math.isfinite(entry["value"]) and entry["value"] > 0, metric.name


def test_sim_metrics_repeat_on_a_seed_and_move_with_it(untraced):
    name, result = untraced
    again = measure.run_untraced(name, 7, 0.01, SMALL[name])
    assert sim_values(again) == sim_values(result)
    other = measure.run_untraced(name, 8, 0.01, SMALL[name])
    assert sim_values(other) != sim_values(result)


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_traced_run_matches_untraced_counts_and_accounts_for_its_time(name, tmp_path):
    result = measure.run_traced(name, 7, SMALL[name], tmp_path)
    # run_traced itself compares every count and sim metric of the traced
    # window with the untraced reference and reports a difference as a problem.
    assert [p for p in result["problems"] if not p.startswith("not steady")] == []
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in spec.PER_LAYER]
    assert all(math.isfinite(v) for v in values(result).values())
    assert result["traced_self_sum_s"] == pytest.approx(result["traced_cpu_s"], rel=0.05)
    got = values(result)
    if name == "ftl_gc":
        assert got["sqlite.calls"] == 0 and got["fs.calls"] == 0
        assert got["device.barrier_stalls"] > 0
    else:
        assert got["sqlite.calls"] > 0 and got["fs.calls"] > 0
    if name == "update_xftl":
        assert got["fs.journal_page_writes"] == 0
        assert got["fs.fsync_calls"] == SMALL[name]["window_ops"]
    written = json.loads((tmp_path / f"trace_{name}.json").read_text())
    assert written["aggregates"] and written["sampled_ops"]
    spans = written["sampled_ops"][0]["spans"]
    roots = [s for s in spans if s["parent"] is None]
    assert [r["layer"] for r in roots] == ["workloads"]
    assert {s["parent"] for s in spans} - {None} <= {s["span"] for s in spans}


def test_missing_entry_point_is_a_hard_error_and_uninstall_restores(monkeypatch):
    original = StorageDevice.write
    tracer = trace.Tracer(1, 1)
    tracer.install()
    assert StorageDevice.write is not original
    tracer.uninstall()
    assert StorageDevice.write is original
    monkeypatch.setitem(trace.ENTRY_POINTS, "device", ((StorageDevice,), ("no_such_command",)))
    with pytest.raises(trace.MissingEntryPoint):
        trace.Tracer(1, 1).install()


def _set_file(tmp_path, label: str, host: float, sim: float) -> Path:
    def entries(metrics, host_value, sim_value):
        return {
            m.name: {"value": sim_value if m.clock == "sim" else host_value, "unit": m.unit}
            for m in metrics
        }

    workload = {
        "correct": True, "problems": [],
        "end_to_end": entries(spec.END_TO_END, host, sim),
        "per_layer": entries(spec.PER_LAYER, host, sim),
    }
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps({"workloads": {name: workload for name in spec.WORKLOAD_NAMES}}))
    return path


def test_compare_requires_identical_sim_and_bounded_host(tmp_path, capsys):
    base = _set_file(tmp_path, "a", host=100.0, sim=5.0)
    assert compare.compare_files(base, _set_file(tmp_path, "same", 100.0, 5.0), BENCHMARK) == 0
    assert compare.compare_files(base, _set_file(tmp_path, "near", 101.0, 5.0), BENCHMARK) == 0
    assert compare.compare_files(base, _set_file(tmp_path, "sim", 100.0, 5.0001), BENCHMARK) == 1
    assert compare.compare_files(base, _set_file(tmp_path, "slow", 150.0, 5.0), BENCHMARK) == 1
    assert "must be identical" in capsys.readouterr().out

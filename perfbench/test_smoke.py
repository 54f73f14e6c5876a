"""Smoke tests: every workload's code path at r=101, digest check and trace write-out.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_sources()

from workloads import SMOKE_SPECS, OpResult, make_workload  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def scratch_workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    return tmp_path


def tiny_levels(spec):
    # the full run's level suffixes on tiny parameters, so metric names match
    return [(suffix, spec.params()) for suffix in ("l1", "l3", "l5")]


@pytest.mark.parametrize("name", SMOKE_SPECS)
def test_end_to_end_run_is_correct_and_reports_every_metric(name):
    spec = SMOKE_SPECS[name]
    result, report = run.run_benchmark(spec, run.DEFAULT_SEED, 0.0, False,
                                       time_setup=lambda: 0.01)
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["digest"]["ops"] == spec.count_ops
    assert report["warnings"]  # a handful of operations leaves no tail samples


@pytest.mark.parametrize("name", SMOKE_SPECS)
def test_traced_run_writes_spans_and_repeats_pinned_counts(name, scratch_workdir):
    spec = SMOKE_SPECS[name]
    result, report = run.run_benchmark(spec, run.DEFAULT_SEED, 0.0, True,
                                       levels=tiny_levels(spec))
    assert result["correct"], report["problems"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    trace = json.loads((scratch_workdir / f"trace-{name}-seed{run.DEFAULT_SEED}.json").read_text())
    assert trace["spans"] and trace["missing"] == []
    counts = {k: v["value"] for k, v in result["metrics"].items()}
    if spec.kind != "kem":  # predicted zeros on the DFR workloads
        assert counts["ring.invert.calls"] == counts["keycheck.key_check.calls"] == 0
    if spec.kind == "probe":
        assert counts["kem.hash_H.calls"] == 0


def test_golden_mismatch_counts_as_failed_operation(monkeypatch, tmp_path):
    golden = json.loads(run.GOLDEN_PATH.read_text())
    golden["workloads"]["kem-smoke"]["digests"] = ["0" * 64]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN_PATH", path)
    result, _ = run.run_benchmark(SMOKE_SPECS["kem-smoke"], 5, 0.0, False,
                                  time_setup=lambda: 0.01)
    assert not result["correct"] and result["failed"] == 1


def test_implausible_dfr_failure_fraction_is_a_problem():
    wl = make_workload(SMOKE_SPECS["dfr-smoke"], 1, run.WORKDIR)
    assert wl.check_run([OpResult("", True, units=10, failures=7)]) == []
    for failures in (0, 10):
        assert wl.check_run([OpResult("", True, units=10, failures=failures)])


def test_probe_that_fails_less_outside_the_spectrum_is_a_problem():
    wl = make_workload(SMOKE_SPECS["probe-smoke"], 1, run.WORKDIR)
    inside = OpResult("", True, units=10, failures=2, group="in")
    outside = OpResult("", True, units=10, failures=5, group="out")
    assert wl.check_run([inside, outside]) == []
    inside.failures = 5
    assert wl.check_run([inside, outside])


def test_workloads_are_the_ones_benchmark_json_names():
    from workloads import SPECS

    assert list(SPECS) == [w["name"] for w in BENCHMARK["workloads"]]
    assert {s.kind for s in SMOKE_SPECS.values()} == {s.kind for s in SPECS.values()}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kem-l1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Each run is a subprocess of `run.py --smoke`, as the benchmark is meant to
be run. The tests check that every metric named in BENCHMARK.json is
emitted for every workload, that the layers a workload exercises report
work, that the oracle fails a run whose expected answer was flipped, that
the benchmark refuses to run without the package next to it, and that the
host-speed calibration rescales latencies as hostspeed.py says.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# the workload-specific metrics of the report, per workload
NAMED = {
    "manifest": {"verdicts_per_s", "verdict_p50_ms", "verdict_p90_ms"},
    "chain": {"verdicts_per_s", "verdict_p50_ms"},
    "solve": {"solves_per_s"},
    "mc": {"em_small_path_steps_per_s", "em_state_noise_path_steps_per_s",
           "em_chain_path_steps_per_s", "mc_validate_s"},
}

# per-layer metrics that must show work on the workloads that exercise them
BUSY = {
    "manifest": ["kernel.normalize.calls", "kernel.zero_verdict.calls",
                 "kernel.parse_expr.calls", "dsl.load_system.self_s",
                 "dsl.load_candidate.self_s", "model.construct.calls",
                 "model.fokker_planck_of.calls", "verify.fp_extras.self_s",
                 "cli.check.self_s"],
    "solve": ["kernel.normalize.calls", "detgen.detsys.calls",
              "detgen.equations", "solve.solve_ansatz.self_s",
              "solve.reverify_s", "solve.ansatz_build.self_s",
              "solve.closure.self_s"],
    "chain": ["kernel.zero_verdict.calls", "sympy.diff.calls",
              "model.construct.calls", "detgen.detsys.self_s",
              "detgen.equations", "verify.check.self_s",
              "verify.check.residuals", "kpz.detsys_continuous.self_s",
              "kpz.equations", "kpz.check_discrete.self_s",
              "kpz.kpz_ito.self_s"],
    "mc": ["mcsim.euler_maruyama.self_s", "mcsim.path_steps",
           "mcsim.ns_per_path_step.small",
           "mcsim.ns_per_path_step.state_noise",
           "mcsim.ns_per_path_step.chain", "mcsim.compare_ensembles.self_s",
           "mcsim.ks_tests", "mcsim.validate_symmetry_mc.self_s"],
}


def bench(workload, *extra, root=ROOT, trace=0):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                          cwd=root)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    report, result = result_of(bench(workload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(report["named"]) == NAMED[workload]
    assert report["failed_frac"] == 0
    assert report["environment"]["threads"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    report, result = result_of(bench(workload, trace=1))
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    idle = [name for name in BUSY[workload] if not values[name] > 0]
    assert not idle, f"no work recorded in {idle}"
    assert values["setup.modules_loaded"] > 0
    assert values["src_lines.total"] == sum(
        v for k, v in values.items()
        if k.startswith("src_lines.") and k != "src_lines.total")
    assert (ROOT / report["spans"]).is_file()


def test_flipped_expectation_fails():
    report, result = result_of(bench("chain", "--flip-expected"))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert report["failed_frac"] > 0


def test_refuses_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("manifest", root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_calibrator_interpolates(monkeypatch):
    sys.path.insert(0, str(HERE))
    import hostspeed
    # warm-up call, the calibration before the ops, the one after them
    times = iter([1.0, 0.02, 0.04])
    monkeypatch.setattr(hostspeed, "measure", lambda: next(times))
    calibrator = hostspeed.Calibrator(interval_s=1.0)
    out = {}
    calibrator.add("a", 0.5, out)
    assert out == {}
    calibrator.add("b", 0.5, out)
    # the ops' midpoints sit at 1/4 and 3/4 of the stretch, where the
    # interpolated calibration is 0.025 and 0.035 s
    nominal = hostspeed.NOMINAL_S
    assert out["a"] == pytest.approx(0.5 * nominal / 0.025)
    assert out["b"] == pytest.approx(0.5 * nominal / 0.035)
    assert calibrator.samples == [0.02, 0.04]

"""stosym benchmark.

    python3 perfbench/run.py --workload <manifest|solve|chain|mc> --seed <n>
        --seconds <s> --trace <0|1>

One run is one process. It sets up (imports stosym and stosym.cli and
builds the workload's inputs from the seed), then repeats passes over the
workload's ops (see workloads.py) until `--seconds` are used up. Each op is
timed on its own and its answer is checked by the oracle. A pass of a
symbolic workload starts from an empty sympy cache, as a CLI call would.

End-to-end metrics (`--trace 0`), the same on every workload:
    setup_s        median of three set-ups: this process and two fresh
                   probe processes
    peak_rss_mb    peak resident set of this process
    ops_per_s      ops per second of op time: the number of ops in a pass
                   over the sum of each op's median latency
    op_geomean_ms  geometric mean over the ops of each op's median latency
The host this runs on is shared and its speed drifts by up to 2x within
a run, so every time (set-up time and each op's latency) is normalized by
a reference computation timed right next to it (see hostspeed.py): it
reads as the time on a fixed reference host. The medians over passes then
take out what the calibration misses. Taking each op's median before
combining keeps the heavy ops from hiding the light ones in
op_geomean_ms. The report line also gives the raw times, the calibration
samples and each workload's own metrics (verdicts_per_s, solves_per_s,
path-steps per second, ...) with their sample counts.

Per-layer metrics (`--trace 1`): after an untraced warm-up pass, untraced
and traced passes alternate (see tracing.py). Each figure is the median
over the traced passes of its value per pass; `trace.overhead_frac`
compares the median traced and untraced pass times. All spans are written
to `.bench_out/` in the checkout.

`--smoke` runs tiny sizes for the benchmark's own tests (test_smoke.py);
`--flip-expected` flips one expected answer to show that the oracle fails
the run.

Standard output ends with two JSON lines: a report (environment, passes,
per-op latencies, the workload's own metrics, failures) and the result
`{"correct", "attempted", "failed", "metrics"}`.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("__init__", "cli", "detgen", "dsl", "kernel", "kpz", "mcsim",
           "model", "solve", "verify")

# One BLAS/OpenMP thread for the workload process: the machine has two cores
# and stray threads only add noise to single-threaded Python work.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = "1"
SETUP_SAMPLES = 3
# most op time between two calibrations; the host's speed changes in phases
# of seconds, so this is short enough to follow it
CALIBRATION_INTERVAL_S = 0.4

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_geomean_ms": "ms",
}

# per-layer metrics and their units; every traced run reports all of them,
# with 0 where a workload does no work in that layer
PER_LAYER = {
    "kernel.normalize.calls": "count",
    "kernel.normalize.self_s": "s",
    "kernel.zero_verdict.calls": "count",
    "kernel.zero_verdict.self_s": "s",
    "kernel.zero_verdict.decided_frac": "ratio",
    "kernel.parse_expr.calls": "count",
    "kernel.parse_expr.self_s": "s",
    "sympy.diff.calls": "count",
    "sympy.diff.self_s": "s",
    "dsl.load_system.self_s": "s",
    "dsl.load_candidate.self_s": "s",
    "model.construct.calls": "count",
    "model.construct.self_s": "s",
    "model.fokker_planck_of.calls": "count",
    "model.fokker_planck_of.self_s": "s",
    "detgen.detsys.calls": "count",
    "detgen.detsys.self_s": "s",
    "detgen.equations": "count",
    "verify.check.self_s": "s",
    "verify.check.residuals": "count",
    "verify.fp_extras.self_s": "s",
    "solve.solve_ansatz.self_s": "s",
    "solve.reverify_s": "s",
    "solve.ansatz_build.self_s": "s",
    "solve.closure.self_s": "s",
    "kpz.detsys_continuous.self_s": "s",
    "kpz.equations": "count",
    "kpz.check_discrete.self_s": "s",
    "kpz.kpz_ito.self_s": "s",
    "mcsim.euler_maruyama.self_s": "s",
    "mcsim.path_steps": "count",
    "mcsim.ns_per_path_step.small": "ns",
    "mcsim.ns_per_path_step.state_noise": "ns",
    "mcsim.ns_per_path_step.chain": "ns",
    "mcsim.compare_ensembles.self_s": "s",
    "mcsim.ks_tests": "count",
    "mcsim.validate_symmetry_mc.self_s": "s",
    "cli.check.self_s": "s",
    "op.self_s": "s",
    "setup.modules_loaded": "count",
    "setup.scipy_modules_loaded": "count",
    "trace.overhead_frac": "ratio",
    **{f"src_lines.{m}": "lines" for m in MODULES},
    "src_lines.total": "lines",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("manifest", "solve", "chain", "mc"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--flip-expected", action="store_true",
                   help="flip the expected answer of the first op, to show "
                        "that the oracle catches a wrong answer")
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time and exit")
    return p.parse_args(argv)


def set_up(args):
    """Import stosym and build the workload's inputs. Returns the workload,
    the raw and the normalized set-up time and the module counts."""
    before = len(sys.modules)
    start = time.perf_counter()
    import stosym
    import stosym.cli  # noqa: F401
    loaded = len(sys.modules) - before
    scipy_loaded = sum(1 for m in sys.modules
                       if m == "scipy" or m.startswith("scipy."))
    if Path(stosym.__file__).resolve().parent != SRC / "stosym":
        raise ImportError(f"stosym imported from {stosym.__file__}, "
                          f"not from {SRC}")
    import workloads
    workload = workloads.build(args.workload, args.seed, ROOT, args.smoke)
    if args.flip_expected:
        workload.ops[0].expected = workloads.flip(workload.ops[0].expected)
    raw = time.perf_counter() - start
    # imported after the clock stops: it imports numpy, which stosym has
    # already done by now
    import hostspeed
    return workload, raw, hostspeed.normalize_once(raw), loaded, scipy_loaded


def run_pass(workload, calibrator, tracer=None):
    """One pass: every op once, each timed on its own. Returns the raw and
    the normalized op latencies (completed ops only) and the failures."""
    if workload.symbolic:
        from sympy.core.cache import clear_cache
        clear_cache()
    gc.collect()
    state, results, raw, latencies, failures = {}, {}, {}, {}, []
    if tracer is not None:
        tracer.install()
        tracer.begin_pass()
    try:
        for index, op in enumerate(workload.ops):
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = op.run(state)
                else:
                    result = tracer.run_op(index, op.run, state)
            except Exception as exc:  # an op that raises is a failed op
                failures.append({"op": op.name, "error": repr(exc)[:300]})
                continue
            raw[op.name] = time.perf_counter() - start
            calibrator.add(op.name, raw[op.name], latencies)
            state[op.name] = results[op.name] = result
        calibrator.flush(latencies)
    finally:
        if tracer is not None:
            tracer.end_pass()
            tracer.uninstall()
    for op in workload.ops:
        if op.name not in results:
            continue
        try:
            got = op.answer(results[op.name], state)
        except Exception as exc:  # a malformed answer is a failed op
            failures.append({"op": op.name, "error": repr(exc)[:300]})
            continue
        if got != op.expected:
            failures.append({"op": op.name, "expected": repr(op.expected),
                             "got": repr(got)[:300]})
    return {"latencies": latencies, "raw": raw, "failures": failures,
            "wall": sum(latencies.values()), "raw_wall": sum(raw.values()),
            "traced": tracer is not None}


def measure(workload, seconds, calibrator, tracer):
    """Passes until `seconds` have passed, starting no pass of which less
    than half would fit. With a tracer, an untraced warm-up pass comes
    first, so that the first traced pass is compared with a pass that is
    just as warm; then untraced and traced passes alternate."""
    kinds = (None, tracer) if tracer is not None else (None,)
    start = time.perf_counter()
    passes = []
    if tracer is not None:
        passes.append(dict(run_pass(workload, calibrator), warmup=True))
    cycles_start = time.perf_counter()
    cycles = 0
    while True:
        for t in kinds:
            passes.append(run_pass(workload, calibrator, t))
        cycles += 1
        now = time.perf_counter()
        cycle = (now - cycles_start) / cycles
        if now - start + cycle / 2 > seconds:
            return passes


def setup_samples(args, own):
    """Normalized set-up time of this process and of fresh probe
    processes."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             cwd=ROOT, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def quantile(values, k, n):
    """The k-th n-quantile of `values` (statistics.quantiles, inclusive)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=n, method="inclusive")[k - 1]


def op_table(workload, passes):
    """Per op: completed untraced runs, the median normalized latency and
    the median raw latency."""
    table = {}
    for op in workload.ops:
        lat = [p["latencies"][op.name] for p in passes
               if op.name in p["latencies"]]
        if lat:
            table[op.name] = {
                "runs": len(lat), "median_s": statistics.median(lat),
                "raw_median_s": statistics.median(
                    p["raw"][op.name] for p in passes
                    if op.name in p["raw"])}
    return table



def named_metrics(workload, passes):
    """Each workload's own metrics (verdict, solve and Euler-Maruyama rates,
    latency percentiles) over every completed op of the untraced passes,
    from normalized latencies, with their sample counts. A group none of whose ops completed is left
    out; the run has failed then."""
    by_group = {}
    for op in workload.ops:
        lat = [p["latencies"][op.name] for p in passes
               if op.name in p["latencies"]]
        if lat:
            by_group.setdefault(op.group, []).append((op, lat))

    def samples(group):
        return [x for _, lat in by_group[group] for x in lat]

    out = {}
    if "verdict" in by_group:
        lat = samples("verdict")
        out["verdicts_per_s"] = (len(lat) / sum(lat), "1/s", len(lat))
        out["verdict_p50_ms"] = (1e3 * statistics.median(lat), "ms", len(lat))
        if workload.name == "manifest":
            out["verdict_p90_ms"] = (1e3 * quantile(lat, 9, 10), "ms", len(lat))
    if "solve" in by_group:
        lat = samples("solve")
        out["solves_per_s"] = (len(lat) / sum(lat), "1/s", len(lat))
    for group in ("em_small", "em_state_noise", "em_chain"):
        if group in by_group:
            lat = samples(group)
            steps = by_group[group][0][0].path_steps
            out[f"{group}_path_steps_per_s"] = (steps * len(lat) / sum(lat),
                                                "1/s", len(lat))
    if "validate" in by_group:
        lat = samples("validate")
        out["mc_validate_s"] = (statistics.median(lat), "s", len(lat))
    return {k: {"value": v, "unit": u, "samples": n}
            for k, (v, u, n) in out.items()}


def src_lines():
    lines = {m: len((SRC / "stosym" / f"{m}.py").read_text().splitlines())
             for m in MODULES}
    lines["total"] = sum(lines.values())
    return {f"src_lines.{m}": n for m, n in lines.items()}


def environment(args):
    return {
        "python": platform.python_version(),
        **{pkg: version(pkg) for pkg in ("sympy", "numpy", "scipy", "click")},
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "stosym" / "__init__.py").is_file():
        print(f"no stosym package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    sys.path.insert(0, str(SRC))
    workload, raw_setup_s, setup_s, loaded, scipy_loaded = set_up(args)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    import hostspeed
    calibrator = hostspeed.Calibrator(CALIBRATION_INTERVAL_S)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer([op.name for op in workload.ops])
    passes = measure(workload, args.seconds, calibrator, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain = [p for p in passes if not p["traced"]]
    failures = [dict(f, **{"pass": i}) for i, p in enumerate(passes)
                for f in p["failures"]]
    attempted = len(passes) * len(workload.ops)
    samples = setup_samples(args, setup_s)
    ops = op_table(workload, plain)

    if args.trace:
        layer = {name: 0 for name in PER_LAYER}
        layer.update(tracer.median_metrics([op.group for op in workload.ops]))
        traced_wall = statistics.median(p["wall"] for p in passes if p["traced"])
        plain_wall = statistics.median(p["wall"] for p in plain
                                       if not p.get("warmup"))
        layer["trace.overhead_frac"] = traced_wall / plain_wall - 1
        layer["setup.modules_loaded"] = loaded
        layer["setup.scipy_modules_loaded"] = scipy_loaded
        layer.update(src_lines())
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        spans_file = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(spans_file)
    else:
        medians = [row["median_s"] for row in ops.values()]
        values = {
            "setup_s": statistics.median(samples),
            "peak_rss_mb": peak_rss_mb,
            # no op completed: the run is already failed, report zeros
            "ops_per_s": len(medians) / sum(medians) if medians else 0.0,
            "op_geomean_ms": (1e3 * statistics.geometric_mean(medians)
                              if medians else 0.0),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        spans_file = None

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args),
        "passes": len(plain),
        "pass_walls_s": [p["wall"] for p in passes],
        "raw_pass_walls_s": [p["raw_wall"] for p in passes],
        "raw_setup_s": raw_setup_s,
        "calibration": {"nominal_s": hostspeed.NOMINAL_S,
                        "interval_s": CALIBRATION_INTERVAL_S,
                        "samples": len(calibrator.samples),
                        "median_s": statistics.median(calibrator.samples),
                        "min_s": min(calibrator.samples),
                        "max_s": max(calibrator.samples)},
        "traced_passes": len(passes) - len(plain),
        "ops_per_pass": len(workload.ops),
        "setup_samples_s": samples,
        "failed_frac": len(failures) / attempted,
        "named": named_metrics(workload, plain),
        "ops": ops,
        "failures": failures[:20],
        "spans": str(spans_file.relative_to(ROOT)) if spans_file else None,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""bikelab benchmark: KEM round trips and DFR campaigns, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kem-l1 --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --pin-golden              # re-pin golden.json

Workloads (``workloads.py``) are closed loops with one caller; every input is
derived from ``--seed``.  Everything runs in this one process with one thread:
DFR campaigns go through ``bikelab.cli.main`` with ``--threads 1``.

``--trace 0`` measures the end-to-end metrics for ``--seconds``.  ``setup_s``
is the median, over several fresh processes, of the time from process start
to the first timed operation (imports, parameter and ring validation, the
probe key file and spectrum, one warm-up operation).  The set-up processes
run one at a time between equal slices of the measured loop, so they sample
the machine across the whole run; their time is not measured loop time.

``--trace 1`` gives the per-layer metrics instead.  It runs each operation
twice, untraced then traced (so the tracing overhead compares like with
like), re-runs the exactly counted operations to check that their counts
repeat, times the per-level layer table, and writes all spans to
``perfbench/.work/``.

After the measured operations, every run replays the first operations of the
default seed and compares their output digests with ``golden.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a report with the per-stage KEM latencies, sample counts, digests and the
environment.
"""

import os
import sys

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"
GOLDEN_PATH = HERE / "golden.json"

DEFAULT_SEED = 1
SETUP_RUNS = 7
TAIL_MIN_BEYOND = 10  # operations a tail percentile should leave beyond it
CHILD_TIMEOUT_S = 120


def use_checkout_sources() -> None:
    """Import bikelab from this checkout's src/, never from anywhere else."""
    if not (SRC / "bikelab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bikelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bikelab

    if Path(bikelab.__file__).resolve().parent != (SRC / "bikelab").resolve():
        sys.exit(f"perfbench: bikelab imported from {bikelab.__file__}, not {SRC}")


def percentile(xs: list[float], p: int) -> float:
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".muls", "iterations_mean")):
        return "count"
    if name.endswith("_ratio") or ".success." in name:
        return "ratio"
    return "ms"


def run_op(wl, i: int, tracer=None):
    """One operation, timed; an exception makes it a failed operation."""
    from workloads import OpResult, null_span

    if tracer is not None:
        tracer.op = i
    span = tracer.span if tracer is not None else null_span
    hooks = tracer.hooks() if tracer is not None else contextlib.nullcontext()
    with hooks:
        t0 = perf_counter()
        try:
            with span("bench.op"):
                res = wl.op(i, span)
        except Exception:
            traceback.print_exc()
            res = OpResult(digest="", ok=False, units=0)
        res.ms = (perf_counter() - t0) * 1e3
    return res


def setup_workload(spec, seed: int):
    from workloads import make_workload

    wl = make_workload(spec, seed, WORKDIR)
    wl.warmup()
    return wl


def time_setup_once(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh benchmark process to its first timed op."""
    t0 = perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"], stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        elapsed = perf_counter() - t0
        child.stdout.read()
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if code != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: set-up process failed with exit code {code}")
    return elapsed


def load_golden() -> dict:
    if GOLDEN_PATH.is_file():
        return json.loads(GOLDEN_PATH.read_text())
    return {"default_seed": DEFAULT_SEED, "workloads": {}}


def golden_check(spec, golden: dict) -> tuple[int, int, list[str]]:
    """Replay the default seed's first operations; (attempted, failed, problems)."""
    pins = golden["workloads"].get(spec.name, {}).get("digests", [])
    wl = setup_workload(spec, DEFAULT_SEED)
    failed, problems = 0, []
    for i in range(spec.golden_ops):
        res = run_op(wl, i)
        want = pins[i] if i < len(pins) else None
        if not res.ok or res.digest != want:
            failed += 1
            problems.append(f"golden op {i}: digest {res.digest[:16] or '-'} != pinned "
                            f"{(want or 'none')[:16]}")
    return spec.golden_ops, failed, problems


def prefix_digest(results, n: int) -> dict:
    h = hashlib.sha256()
    for r in results[:n]:
        h.update(r.digest.encode())
    return {"ops": min(n, len(results)), "sha256": h.hexdigest()}


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "bikelab").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "git_sha": git_sha(), "src_sha256": src.hexdigest(),
            "threads_env": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS",
                                                           "OPENBLAS_NUM_THREADS")}}


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the two kinds of run -------------------------------------------------------

def end_to_end(spec, seed: int, seconds: float, time_setup):
    """Untraced closed loop for ``seconds``: (metrics, report, results, workload).

    The loop runs in ``SETUP_RUNS`` slices, and ``time_setup()`` times one
    fresh set-up before each slice; ``setup_s`` is their median.
    """
    wl = setup_workload(spec, seed)
    results, setup_times, elapsed = [], [], 0.0
    for k in range(1, SETUP_RUNS + 1):
        setup_times.append(time_setup())
        start = perf_counter()
        while (len(results) < spec.count_ops
               or elapsed + perf_counter() - start < seconds * k / SETUP_RUNS):
            results.append(run_op(wl, len(results)))
        elapsed += perf_counter() - start
    ms = [r.ms for r in results]
    units = sum(r.units for r in results)
    tail = percentile(ms, spec.tail_pct)
    beyond = sum(x > tail for x in ms)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (units / elapsed, "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_tail": (tail, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    named = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"]}
    if spec.kind == "kem":
        named["kem_roundtrips_per_s"] = (units / elapsed, "1/s")
        for stage in ("keygen", "encaps", "decaps"):
            xs = [r.stages_ms[stage] for r in results if r.stages_ms]
            named[f"{stage}_ms_p50"] = (statistics.median(xs), "ms")
            named[f"{stage}_ms_tail"] = (percentile(xs, spec.tail_pct), "ms")
    else:
        named["dfr_trials_per_s"] = (units / elapsed, "1/s")
    report = {
        "measured_s": elapsed, "ops": len(results), "units": units, "unit": wl.unit,
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "tail": {"percentile": spec.tail_pct, "samples": len(ms), "beyond": beyond},
        "setup_s_samples": setup_times,
        "decoding_failures": sum(r.failures for r in results),
        "warnings": [],
    }
    if beyond < TAIL_MIN_BEYOND:
        report["warnings"].append(
            f"op_ms_tail: only {beyond} of {len(ms)} operations lie beyond "
            f"p{spec.tail_pct}; the tail rests on fewer than {TAIL_MIN_BEYOND} samples")
    return metrics, report, results, wl


def traced(spec, seed: int, seconds: float, levels) -> tuple[dict, dict, list, list[str]]:
    """Per-layer metrics: (metrics, report, results, problems)."""
    from tracing import EXACT_METRICS, Tracer, layer_metrics, op_counts

    from bikelab import decoder

    wl = setup_workload(spec, seed)
    compute_upc = getattr(decoder, "compute_upc", None)
    tracer = Tracer()
    untraced_ms, results, upc_ms = [], [], []
    start = perf_counter()
    while len(results) < spec.count_ops or perf_counter() - start < seconds:
        i = len(results)
        untraced_ms.append(run_op(wl, i).ms)
        results.append(run_op(wl, i, tracer))
        for args in tracer.decodes if compute_upc else ():
            t0 = perf_counter()
            compute_upc(*args)
            upc_ms.append((perf_counter() - t0) * 1e3)
        tracer.decodes.clear()

    problems = []
    again = Tracer()
    for i in range(spec.count_ops):
        results.append(run_op(wl, i, again))
    first, second = op_counts(tracer.spans), op_counts(again.spans)
    for i in range(spec.count_ops):
        if first.get(i) != second.get(i):
            problems.append(f"op {i}: traced counts differ on a re-run")

    metrics = layer_metrics(tracer.spans, spec.count_ops, upc_ms)
    metrics["weakkeys.spectrum.ms"] = getattr(wl, "spectrum_ms", 0.0)
    traced_ms = [r.ms for r in results[:len(untraced_ms)]]
    metrics["trace.overhead_ms"] = statistics.median(traced_ms) - statistics.median(untraced_ms)

    exact = {k: metrics[k] for k in EXACT_METRICS}
    if seed == DEFAULT_SEED:
        pinned = load_golden()["workloads"].get(spec.name, {}).get("counts")
        if pinned != exact:
            problems.append(f"exact counts {exact} differ from pinned {pinned}")

    from levels import level_table

    metrics.update(level_table(levels))

    WORKDIR.mkdir(parents=True, exist_ok=True)
    trace_path = WORKDIR / f"trace-{spec.name}-seed{seed}.json"
    trace_path.write_text(json.dumps({
        "workload": spec.name, "seed": seed, "env": environment(),
        "fields": ["name", "start", "end", "parent", "op", "info"],
        "spans": tracer.spans, "missing": tracer.missing}))
    report = {"ops": len(untraced_ms), "exact_counts": exact, "missing": tracer.missing,
              "trace_file": str(trace_path), "spans": len(tracer.spans),
              "traced_ms_p50": statistics.median(traced_ms),
              "untraced_ms_p50": statistics.median(untraced_ms)}
    return {k: (v, unit_of(k)) for k, v in metrics.items()}, report, results, problems


def full_levels():
    from bikelab.keys import level_params

    return [(f"l{n}", level_params(n)) for n in (1, 3, 5)]


def run_benchmark(spec, seed: int, seconds: float, trace: bool, time_setup=None,
                  levels=None) -> tuple[dict, dict]:
    """One benchmark run; (final result object, report)."""
    golden = load_golden()
    if trace:
        metrics, report, wl_results, problems = traced(
            spec, seed, seconds, levels if levels is not None else full_levels())
    else:
        metrics, report, wl_results, wl = end_to_end(spec, seed, seconds, time_setup)
        problems = wl.check_run(wl_results)
        report["digest"] = prefix_digest(wl_results, spec.count_ops)
    g_attempted, g_failed, g_problems = golden_check(spec, golden)
    problems += g_problems
    failed_ops = [i for i, r in enumerate(wl_results) if not r.ok]
    problems += [f"op {i} failed" for i in failed_ops[:10]]
    attempted = len(wl_results) + g_attempted
    failed = len(failed_ops) + g_failed
    report.update({"workload": spec.name, "seed": seed, "trace": int(trace),
                   "ops_failed_frac": {"value": failed / attempted, "failed": failed,
                                       "attempted": attempted},
                   "problems": problems})
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, report


def pin_golden() -> dict:
    """Digests and exact counts of the default seed for every workload."""
    from tracing import EXACT_METRICS, Tracer, layer_metrics
    from workloads import SMOKE_SPECS, SPECS

    out = {"default_seed": DEFAULT_SEED, "workloads": {}}
    for spec in (*SPECS.values(), *SMOKE_SPECS.values()):
        wl = setup_workload(spec, DEFAULT_SEED)
        digests = [run_op(wl, i).digest for i in range(spec.golden_ops)]
        tracer = Tracer()
        for i in range(spec.count_ops):
            run_op(wl, i, tracer)
        metrics = layer_metrics(tracer.spans, spec.count_ops, [])
        out["workloads"][spec.name] = {"digests": digests,
                                       "counts": {k: metrics[k] for k in EXACT_METRICS}}
        print(f"pinned {spec.name}", file=sys.stderr)
    return out


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own process; prints one table line per metric."""
    from workloads import SPECS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in SPECS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=600)
        lines = out.stdout.strip().splitlines()
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        for metric, v in {**result["metrics"], **report.get("named_metrics", {})}.items():
            print(f"{name:12s} {metric:36s} {v['value']:14.6g} {v['unit']}")
        frac = report["ops_failed_frac"]
        print(f"{name:12s} {'ops_failed_frac':36s} {frac['value']:14.6g} "
              f"({frac['failed']}/{frac['attempted']})")
        if "tail" in report:
            print(f"{name:12s} tail = p{report['tail']['percentile']} of "
                  f"{report['tail']['samples']} ops")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--pin-golden", action="store_true",
                    help="recompute golden.json from the current sources")
    args = ap.parse_args(argv)
    use_checkout_sources()
    sys.path.insert(0, str(HERE))
    from workloads import SPECS

    if args.pin_golden:
        GOLDEN_PATH.write_text(json.dumps(pin_golden(), indent=1, sort_keys=True) + "\n")
        return 0
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, args.trace)))
        return 0
    if args.workload not in SPECS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(SPECS)}")
    spec = SPECS[args.workload]
    if args.setup_only:
        setup_workload(spec, args.seed)
        print("ready", flush=True)
        return 0
    result, report = run_benchmark(spec, args.seed, args.seconds, bool(args.trace),
                                   functools.partial(time_setup_once, spec.name, args.seed))
    for warning in report.get("warnings", ()):
        print(f"perfbench: warning: {warning}", file=sys.stderr)
    report["env"] = environment()
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

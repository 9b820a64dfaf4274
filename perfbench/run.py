"""Benchmark of helmdeconv: three seeded closed-loop workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload deconv2d-random --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Load model: a closed loop with one client in one process and one thread;
the next request is sent only when the previous one has returned and been
checked.  Request times are reported raw and in units of a calibration
kernel timed just before and just after each request (see calibrate.py).  The launcher
pins the BLAS/OpenMP thread counts to 1.  Each run builds the package from
``src/`` of the checkout it sits in; outside a checkout it exits with code 1
and prints no result.

``--trace 0`` reports the end-to-end metrics, measured without tracing.
``--trace 1`` alternates untraced and traced requests, reports per-layer
call counts and self time per traced request, and writes every span to
``perfbench/out/``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are a
readable table and the environment record, also written to
``perfbench/out/result-<workload>-seed<seed>-trace<t>.json``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import layers
from spans import Tracer, self_times

# Modules that import numpy (calibrate, checks, workloads) are imported inside
# functions, after main() has pinned the BLAS/OpenMP thread counts.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
# Set-up time is gated relative to a fresh interpreter that imports a fixed
# set of standard-library modules (probe.py --reference), started right
# after each probe, and given in seconds at a machine state in which that
# reference takes REFERENCE_S.  On a shared 2-core machine, over 60 probe
# pairs spread across four minutes, medians of 9 raw set-up times ranged over 18% of their median,
# medians of 9 ratios over 8%.
REFERENCE_S = 0.15

# (name, unit) of the result line.  Request times are given in "cal", the
# mean time of the calibration kernel run just before and just after each
# request (calibrate.py):
# raw wall times on a shared machine swing by up to 1.5x with load outside
# the benchmark and are printed, but not gated (PRINTED_ONLY); so does the
# raw set-up time, printed as setup_raw_s.
END_TO_END = (
    ("setup_s", "s"),
    ("req_p50_cal", "cal"),
    ("req_p90_cal", "cal"),
    ("req_per_cal", "1/cal"),
    ("peak_rss_mb", "MiB"),
)
PRINTED_ONLY = (
    ("setup_raw_s", "s"),
    ("req_p50_s", "s"),
    ("req_p90_s", "s"),
    ("req_per_s", "1/s"),
)
NOTES = ("closed loop: one client, one process, one thread; the next request "
         "is sent when the previous one has returned and been checked",
         "no layer queues or waits (single-threaded), so no wait time is reported",
         "CG iteration counts are not visible from outside the package")


def import_package():
    """Import helmdeconv from this checkout's src/, never from elsewhere."""
    init = SRC / "helmdeconv" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no package source at {init.relative_to(ROOT)}; "
                         "run from a repository checkout")
    sys.path[:0] = [str(SRC)]
    import helmdeconv
    if Path(helmdeconv.__file__).resolve() != init.resolve():
        raise SystemExit(f"imported helmdeconv from {helmdeconv.__file__}, not {init}")
    return helmdeconv


def _probe(*args: str) -> tuple[float, dict]:
    """Start probe.py; return the clock reading just before the start, and its output."""
    before = perf_counter()
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return before, json.loads(done.stdout.splitlines()[-1])


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Set-up time in fresh interpreters, each followed by the reference import.

    The first pair only warms file caches.
    """
    samples = []
    for k in range(SETUP_PROBES + 1):
        spawned, marks = _probe(workload, str(seed), str(OUT / "probe"))
        ref_spawned, ref = _probe("--reference")
        if k:
            samples.append({"startup_s": marks["started"] - spawned,
                            "import_s": marks["imported"] - marks["started"],
                            "inputs_s": marks["built"] - marks["imported"],
                            "total_s": marks["built"] - spawned,
                            "reference_s": ref["built"] - ref_spawned})
    return samples


def run_requests(hd, workload, check, seconds: float, tracer=None) -> dict:
    """Closed loop until the timed requests add up to ``seconds``.

    The first ``workload.warmup`` requests are checked and counted but not
    timed.  The calibration kernel runs right before and right after each
    request; the mean of the two is the request's calibration time.  With a
    tracer, every second timed request runs with the layer wrappers
    installed; the others run on the bare package.
    """
    from calibrate import Calibration

    calibration = Calibration()
    timed, calibrations, traced_flags, problems = [], [], [], []
    attempted = failed = written = 0
    busy = 0.0
    i = 0
    while busy < seconds:
        inp = workload.make_input(i)
        warm = i >= workload.warmup
        patch = None
        if tracer is not None and warm and i % 2 == 1:
            tracer.request = i
            patch = layers.install(hd, tracer)
        error = out = None
        cal = calibration.seconds()
        start = perf_counter()
        try:
            out = workload.request(inp)
        except Exception as err:  # a failed request is counted, and the loop goes on
            error = err
        elapsed = perf_counter() - start
        if patch is not None:
            patch.undo()
        cal = 0.5 * (cal + calibration.seconds())
        attempted += 1
        try:
            found = [f"{type(error).__name__}: {error}"] if error is not None else check(inp, out)
        except Exception as err:  # an output the check cannot even read is wrong
            found = [f"check raised {type(err).__name__}: {err}"]
        if hasattr(workload, "finish"):
            bytes_out = workload.finish(inp)
            written += bytes_out if warm else 0
        if found:
            failed += 1
            problems.extend(f"request {i}: {p}" for p in found[:3])
        if warm:
            timed.append(elapsed)
            calibrations.append(cal)
            traced_flags.append(patch is not None)
            busy += elapsed
        i += 1
    return {"timed": timed, "calibrations": calibrations, "traced": traced_flags,
            "attempted": attempted, "failed": failed, "problems": problems[:20],
            "csv_bytes": written}


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(run: dict, setup: list[dict]) -> dict:
    times = run["timed"]
    relative = [t / c for t, c in zip(times, run["calibrations"])]
    return {
        "setup_s": REFERENCE_S * statistics.median(s["total_s"] / s["reference_s"] for s in setup),
        "setup_raw_s": statistics.median(s["total_s"] for s in setup),
        "req_p50_cal": statistics.median(relative),
        "req_p90_cal": _p90(relative),
        "req_per_cal": len(relative) / sum(relative),
        "req_p50_s": statistics.median(times),
        "req_p90_s": _p90(times),
        "req_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: dict, setup: list[dict], tracer: Tracer) -> dict:
    traced = [t for t, flag in zip(run["timed"], run["traced"]) if flag]
    bare = [t for t, flag in zip(run["timed"], run["traced"]) if not flag]
    requests = len(traced)
    totals = self_times(tracer.spans())
    metrics = {}
    for layer in layers.LAYERS:
        calls, seconds = totals.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = calls / requests
        metrics[f"{layer}.self_ms"] = 1e3 * seconds / requests
    wall = sum(traced)
    for dim in ("1d", "2d"):
        metrics[f"operators.solve_shifted_{dim}.share"] = \
            totals.get(f"operators.solve_shifted_{dim}", (0, 0.0))[1] / wall
    counts = tracer.counts
    metrics["operators.nodes_solved"] = counts.get("operators.nodes_solved", 0) / requests
    metrics["operators.solver_errors"] = counts.get("operators.solver_errors", 0) / requests
    candidates = counts.get("energy.candidates", 0)
    metrics["energy.steps_past_stop_ratio"] = (
        counts.get("energy.candidates_past_stop", 0) / candidates if candidates else 0.0)
    metrics["experiments.csv_bytes"] = run["csv_bytes"] / len(run["timed"])
    for part in ("startup_s", "import_s", "inputs_s"):
        metrics[f"setup.{part}"] = statistics.median(s[part] for s in setup)
    metrics["trace.overhead_ratio"] = (requests / wall) / (len(bare) / sum(bare))
    return metrics


def per_layer_units() -> dict:
    units = {}
    for layer in layers.LAYERS:
        units[f"{layer}.calls"] = "calls/req"
        units[f"{layer}.self_ms"] = "ms/req"
    units.update({
        "operators.solve_shifted_1d.share": "ratio",
        "operators.solve_shifted_2d.share": "ratio",
        "operators.nodes_solved": "nodes/req",
        "operators.solver_errors": "errors/req",
        "energy.steps_past_stop_ratio": "ratio",
        "experiments.csv_bytes": "B/req",
        "setup.startup_s": "s",
        "setup.import_s": "s",
        "setup.inputs_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    return units


def _cache_sizes() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}_{kind.lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
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


def environment(workload, seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "helmdeconv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pinned_threads": PINNED_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "working_set_bytes_computed": workload.working_set(),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> None:
    hd = import_package()
    from checks import CHECKS
    from workloads import WORKLOADS

    setup = measure_setup(name, seed)
    workload = WORKLOADS[name](hd, seed, OUT)
    check = CHECKS[name](workload)
    tracer = Tracer() if trace else None
    run = run_requests(hd, workload, check, seconds, tracer)
    printed = {}
    if trace:
        values, units = per_layer(run, setup, tracer), per_layer_units()
        tracer.write(OUT / f"spans-{name}-seed{seed}.csv.gz")
    else:
        values, units = end_to_end(run, setup), dict(END_TO_END)
        printed = {key: {"value": values[key], "unit": unit} for key, unit in PRINTED_ONLY}
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units}
    result = {"correct": run["failed"] == 0, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}

    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    for key, metric in {**metrics, **printed}.items():
        print(f"  {key:44s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'fail_ratio':44s} {run['failed'] / run['attempted']:14.6g} "
          f"({run['failed']} of {run['attempted']} attempted)")
    print(f"  timed samples {len(run['timed'])}; p90 has "
          f"{len(run['timed']) - int(0.9 * len(run['timed']))} beyond it")
    for problem in run["problems"]:
        print(f"  problem: {problem}")
    for note in NOTES:
        print(f"  note: {note}")
    env = environment(workload, seed)
    print("environment " + json.dumps(env))
    OUT.mkdir(parents=True, exist_ok=True)
    record = {**result, "printed_only": printed, "workload": name,
              "timed_s": run["timed"], "calibration_s": run["calibrations"],
              "fail_ratio": run["failed"] / run["attempted"], "problems": run["problems"],
              "setup_probes": setup, "notes": NOTES, "environment": env}
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))


def run_all(names, seed: int, seconds: float, trace: bool) -> None:
    """Run every workload in its own interpreter and print one table."""
    records = {}
    for name in names:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, check=True)
        path = OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"
        records[name] = json.loads(path.read_text(encoding="utf-8"))
    tables = {name: {**r["metrics"], **r["printed_only"]} for name, r in records.items()}
    print(f"{'metric':44s}{'unit':>10s}" + "".join(f"{n:>18s}" for n in names))
    for key, metric in tables[names[0]].items():
        values = "".join(f"{table[key]['value']:18.6g}" for table in tables.values())
        print(f"{key:44s}{metric['unit']:>10s}{values}")
    values = "".join(f"{r['fail_ratio']:18.6g}" for r in records.values())
    print(f"{'fail_ratio':44s}{'-':>10s}{values}")
    print(json.dumps({name: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
                      for name, r in records.items()}))


def main(argv=None) -> None:
    # numpy is imported only below this point, so its BLAS sees the pin;
    # probes and per-workload interpreters inherit it
    os.environ.update(PINNED_THREADS)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="summed wall time of the timed requests")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        import_package()
        run_all(list(WORKLOADS), args.seed, args.seconds, bool(args.trace))
    else:
        run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()

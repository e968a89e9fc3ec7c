#!/usr/bin/env python3
"""The spmrt benchmark: build spmrt from source and measure one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs only re-check the
build. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. Everything else goes
to stderr. The exit code is 0 only when every result was verified.

mem_dense and fleet_sweep run in the compiled harness
(perfbench/harness.cpp). paper_quick runs the 12 table/fig/abl programs of
bench/ in quick mode, one after another, as users do; it is timed here.
See perfbench/README.md for the metrics and how they relate.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_WORKLOADS = ("mem_dense", "fleet_sweep")
WORKLOADS = HARNESS_WORKLOADS + ("paper_quick",)
PAPER_PROGRAMS = (
    "fig05_remote_latency", "fig06_ro_duplication", "fig07_fib_variants",
    "table1_main", "fig09_speedup", "fig10_spawn_sync", "fig11_scaling",
    "abl_queue_addressing", "abl_grain_size", "abl_victim_policy",
    "abl_dealing", "robust_straggler",
)
RUN_DEADLINE_S = 170  # a measured run must end within 180 s
BUILD_DEADLINE_S = 850  # the first run, which builds, within 900 s
SETUP_REPEATS = 4  # before the pass, and as many again after it
MACHINE_BUILDS = 9  # paper-machine builds timed for the derived record


class BenchError(Exception):
    """A failure that ends the run without a result line."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def log(message):
    print(message, file=sys.stderr, flush=True)


def clean_env():
    """The caller's environment minus every SPMRT_* knob, with temporary
    files kept in the build directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPMRT_")}
    env["TMPDIR"] = os.path.join(build_dir(), "tmp")
    return env


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no spmrt sources next to perfbench/; run from a "
                         "checkout of the repository", 2)
    os.makedirs(os.path.join(out_dir, "tmp"), exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "spmrt_perfbench", *PAPER_PROGRAMS])
    log_path = os.path.join(out_dir, "build.log")
    with open(log_path, "a") as build_log:
        for argv in steps:
            try:
                rc = subprocess.run(argv, stdout=build_log,
                                    stderr=subprocess.STDOUT, env=clean_env(),
                                    timeout=BUILD_DEADLINE_S).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                raise BenchError(f"build step {argv[:2]} failed: {err}", 3)
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                raise BenchError(f"build failed (see {log_path}):\n{tail}", 3)
    with open(os.path.join(out_dir, "CMakeCache.txt")) as f:
        cache = dict(re.findall(r"^(CMAKE_BUILD_TYPE|SPMRT_CHECKER|"
                                r"SPMRT_TELEMETRY):\w+=(.*)$", f.read(), re.M))
    log("perfbench: build {CMAKE_BUILD_TYPE}, SPMRT_CHECKER={SPMRT_CHECKER}, "
        "SPMRT_TELEMETRY={SPMRT_TELEMETRY}, ".format(**cache) +
        f"nproc={os.cpu_count()}")


def run_program(argv, out_log, cwd, deadline):
    """Run argv to completion; return (exit code, peak RSS in KiB)."""
    proc = subprocess.Popen(argv, stdout=out_log, stderr=subprocess.STDOUT,
                            env={**clean_env(), "SPMRT_BENCH_QUICK": "1"},
                            cwd=cwd)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def paper_record(path):
    """Simulated cycles and result rows in one program's --out record."""
    with open(path) as f:
        rows = json.load(f)["rows"]
    cycles = 0.0
    for row in rows:
        for key, value in row.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if key == "cycles_k":
                cycles += value * 1000
            elif key == "cycles" or key.endswith("_cycles") or \
                    key.startswith("cycles_"):
                cycles += value
    return cycles, len(rows)


def paper_pass(bins, work, deadline):
    """Run the 12 programs once; return per-program times and totals."""
    out = {"programs": {}, "sims": 0, "prog_sims": {}, "cycles": 0.0,
           "rss_kib": 0, "failed": 0}
    start = time.perf_counter()
    for prog in PAPER_PROGRAMS:
        record = os.path.join(work, prog + ".json")
        if os.path.exists(record):
            os.remove(record)
        t0 = time.perf_counter()
        with open(os.path.join(work, prog + ".log"), "w") as out_log:
            rc, rss = run_program([os.path.join(bins, prog),
                                   "--out=" + record], out_log, work,
                                  deadline)
        t1 = time.perf_counter()
        out["programs"][prog] = (t0 - start, t1 - start)
        out["rss_kib"] = max(out["rss_kib"], rss)
        with open(os.path.join(work, prog + ".log")) as f:
            jobs = [int(n) for n in re.findall(r"^# fleet: (\d+) jobs",
                                               f.read(), re.M)]
        if rc != 0 or not os.path.isfile(record):
            log(f"paper_quick: {prog} exited {rc}; see "
                f"{os.path.join(work, prog + '.log')}")
            out["failed"] += 1
            continue
        cycles, rows = paper_record(record)
        out["cycles"] += cycles
        # Fleet-backed programs report their job count; the rest run one
        # simulation per result row.
        out["prog_sims"][prog] = sum(jobs) if jobs else rows
        out["sims"] += out["prog_sims"][prog]
    out["wall"] = time.perf_counter() - start
    return out


def machine_build_ms(out_dir, deadline):
    """Median ms to build and destroy one paper machine, timed by the
    harness."""
    argv = [os.path.join(out_dir, "spmrt_perfbench"),
            "--machine-builds", str(MACHINE_BUILDS)]
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              env=clean_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("machine-build probe exceeded the run deadline", 1)
    if proc.returncode != 0:
        raise BenchError(f"machine-build probe exited {proc.returncode}", 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])["machine_build_ms"]


def run_paper(args, out_dir):
    bins = os.path.join(out_dir, "spmrt_bench")
    work = os.path.join(out_dir, "paper_quick")
    os.makedirs(work, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S

    # Set-up: enumerate every program's cases (--list runs nothing),
    # several times before the pass and again after it, so the median
    # spans the run.
    setup = []

    def list_all():
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            with open(os.path.join(work, "list.log"), "w") as out_log:
                for prog in PAPER_PROGRAMS:
                    rc, _ = run_program([os.path.join(bins, prog), "--list"],
                                        out_log, work, deadline)
                    if rc != 0:
                        raise BenchError(f"{prog} --list exited {rc}", 1)
            setup.append(time.perf_counter() - t0)

    list_all()
    plain = paper_pass(bins, work, deadline)
    list_all()
    traced = paper_pass(bins, work, deadline) if args.trace else None
    failed = plain["failed"] + (traced["failed"] if traced else 0)
    attempted = len(PAPER_PROGRAMS) * (2 if traced else 1)
    correct = failed == 0
    if traced and (traced["cycles"], traced["sims"]) != \
            (plain["cycles"], plain["sims"]):
        log("paper_quick: simulated cycles differ between the two passes")
        correct = False

    if not args.trace:
        metrics = {
            "wall_s": (plain["wall"], "s"),
            "setup_s": (statistics.median(setup), "s"),
            "sims_per_s": (plain["sims"] / plain["wall"], "1/s"),
            "peak_rss_mb": (plain["rss_kib"] / 1024, "MB"),
            "sim_cycles": (plain["cycles"], "cycles"),
        }
        return correct, attempted, failed, metrics

    spans = [{"id": 0, "name": "round", "start": 0.0,
              "end": traced["wall"], "parent": -1, "thread": 0}]
    metrics = {}
    bench_s = 0.0
    for prog, (t0, t1) in traced["programs"].items():
        spans.append({"id": len(spans), "name": "paper." + prog,
                      "start": t0, "end": t1, "parent": 0, "thread": 0})
        metrics[f"paper.{prog}_s"] = (t1 - t0, "s")
        bench_s += t1 - t0
    if args.spans:
        with open(args.spans, "w") as f:
            json.dump({"schema": "spmrt-perfbench-spans-v1", "unit": "s",
                       "spans": spans}, f, indent=1)
    # The programs build their machines out of sight. table1_main builds
    # one paper machine per simulation, serially, so its build time is
    # derived as a measured paper-machine build times its simulations.
    # It is a lower bound: the other programs' builds are not counted.
    build_ms = machine_build_ms(out_dir, deadline) * \
        traced["prog_sims"].get("table1_main", 0)
    metrics.update({
        "sim.machine_build_ms": (build_ms, "ms"),
        "sim.machine_build_share": (build_ms / 1e3 / traced["wall"], "ratio"),
        "failed_frac": (failed / attempted, "ratio"),
        "layer.bench_s": (bench_s, "s"),
        "layer.unattributed_s": (traced["wall"] - bench_s, "s"),
        "obs.traced_wall_s": (traced["wall"], "s"),
        "obs.trace_overhead_frac":
            ((traced["wall"] - plain["wall"]) / plain["wall"], "ratio"),
    })
    return correct, attempted, failed, metrics


def run_harness(args, out_dir):
    argv = [os.path.join(out_dir, "spmrt_perfbench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.spans:
        argv += ["--spans", args.spans]
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              env=clean_env(), timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        raise BenchError("harness exceeded the run deadline", 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"harness exited {proc.returncode} without a "
                         "result", 1)
    result = json.loads(lines[-1])
    metrics = {k: (v["value"], v["unit"])
               for k, v in result["metrics"].items()}
    correct = result["correct"] and proc.returncode == 0
    return correct, result["attempted"], result["failed"], metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1; held-out seed: 7919)")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build(out_dir)
        args.spans = None
        if args.trace:
            spans_dir = os.path.join(out_dir, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            args.spans = os.path.join(
                spans_dir, f"{args.workload}-seed{args.seed}.json")
        if args.workload == "paper_quick":
            correct, attempted, failed, metrics = run_paper(args, out_dir)
        else:
            correct, attempted, failed, metrics = run_harness(args, out_dir)
    except BenchError as err:
        log(f"perfbench: {err}")
        return err.code
    except (OSError, ValueError, KeyError) as err:
        log(f"perfbench: {err}")
        return 4

    # Report exactly BENCHMARK.json's metrics for this mode. A per-layer
    # metric the workload does not measure reads 0: serve on a single
    # simulation, paper.* outside paper_quick, and on paper_quick the
    # counters and layer times the programs do not report (see
    # perfbench/README.md).
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in declared}
    unknown = sorted(set(metrics) - names)
    if unknown:
        log(f"perfbench: undeclared metrics {unknown}")
        return 4
    out = {}
    for m in declared:
        if m["name"] not in metrics and not args.trace:
            log(f"perfbench: end-to-end metric {m['name']} not measured")
            return 4
        value, unit = metrics.get(m["name"], (0, m["unit"]))
        if unit != m["unit"]:
            log(f"perfbench: {m['name']} in {unit}, declared {m['unit']}")
            return 4
        out[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": out}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the wall-clock key-establishment benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload gateway_lossless --seed 1 \
      --seconds 10 --trace 0
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the
library sources under src/) into .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. With --trace 1 the span trace of the
run is written to .bench_build/perfbench/traces/<workload>-seed<seed>.json.

--self-test runs every workload end to end at tiny sizes, checks that every
metric BENCHMARK.json names is emitted with its unit, that the timed and
traced runs of one seed produce the same outputs, that deliberately broken
keys and faithfulness comparisons are rejected, and that the benchmark
refuses to run without the library sources.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build") / "perfbench"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ("gateway_lossless", "gateway_lossy", "vehicle_pipeline")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; exit 2 if impossible."""
    root = Path.cwd()
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {root / 'src'}; run from the "
            "repository root")
        sys.exit(2)
    env = dict(os.environ, CCACHE_DISABLE="1")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR.relative_to(root)), "-B",
               str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            log("configure failed")
            sys.exit(2)
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
           "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        log("build failed")
        sys.exit(2)


def bench_args(workload, seed, seconds, trace, extra=()):
    args = [str(BINARY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace == 1:
        traces = BUILD_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    return args


# ----------------------------------------------------------------- self-test

def run_tiny(workload, trace, extra=()):
    """Run one tiny benchmark; return (exit code, stdout lines, result)."""
    proc = subprocess.run(
        bench_args(workload, 7, 1, trace, ("--tiny", *extra)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, lines, result


def digest_of(lines):
    return next((l.split(":", 1)[1].strip() for l in lines
                 if l.startswith("outputs digest:")), None)


def check_metrics(result, specs, where, problems):
    if result is None:
        problems.append(f"{where}: no JSON result on the last line")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
        return
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted = {result['attempted']}")
    names = {s["name"]: s["unit"] for s in specs}
    got = result["metrics"]
    for name, unit in names.items():
        m = got.get(name)
        if m is None:
            problems.append(f"{where}: metric {name} missing")
        elif m.get("unit") != unit:
            problems.append(f"{where}: {name} unit {m.get('unit')} != {unit}")
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} value {m.get('value')}")
    for name in set(got) - set(names):
        problems.append(f"{where}: metric {name} not in BENCHMARK.json")


def self_test():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        digests = {}
        for trace in (0, 1):
            where = f"{workload} trace={trace}"
            rc, lines, result = run_tiny(workload, trace)
            log(f"{where}: exit {rc}")
            if rc != 0 or not result or result.get("correct") is not True:
                problems.append(f"{where}: exit {rc}, result {result}")
            check_metrics(result, spec["end_to_end" if trace == 0
                                       else "per_layer"], where, problems)
            digests[trace] = digest_of(lines)
        if digests[0] is None or digests[0] != digests[1]:
            problems.append(f"{workload}: timed and traced outputs differ "
                            f"({digests[0]} vs {digests[1]})")
        # The correctness gate must reject a broken key and a broken
        # faithfulness comparison, in the timed and in the traced run.
        for inject in ("key", "faithfulness"):
            for trace in (0, 1):
                where = f"{workload} trace={trace} --inject {inject}"
                rc, _, result = run_tiny(workload, trace, ("--inject", inject))
                log(f"{where}: exit {rc}")
                if rc == 0 or not result or result.get("correct") is not False:
                    problems.append(f"{where}: not rejected (exit {rc})")

    # Without the library sources the benchmark must fail, printing no
    # result.
    bare = BUILD_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    log(f"bare checkout: exit {proc.returncode}")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("bare checkout: expected a failure without output")

    for p in problems:
        log(f"SELF-TEST FAILURE: {p}")
    log("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        build()
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    build()
    sys.stdout.flush()
    return subprocess.run(bench_args(args.workload, args.seed, args.seconds,
                                     args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the HyperTEE simulator benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]
    python3 perfbench/run.py --selftest

Run from anywhere; paths resolve against the repository root. The first
run builds perfbench/ (which compiles ../src) into .bench_build/perfbench
at the root; later runs only re-check it. Build output goes to stderr, so
the last stdout line of a single-workload run is the result object, with
the metrics BENCHMARK.json lists for the mode. `--workload all` runs every workload in its own process and
prints one table of the eleven end-to-end metrics. `--selftest` checks
the benchmark itself at a tiny size. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ["enclave_compute", "enclave_lifecycle", "ems_churn", "fleet_traffic"]
# The eleven end-to-end metrics, with the workloads each applies to.
ALL = set(WORKLOADS)
END_TO_END = {
    "setup_s": ALL,
    "ops_per_s": ALL,
    "op_us_p50": ALL,
    "op_us_p99": ALL,
    "peak_rss_mb": ALL,
    "fail_ratio": ALL,
    "sim_ipc": {"enclave_compute"},
    "sim_overhead_pct": {"enclave_compute"},
    "sim_prim_us_p50": {"enclave_lifecycle", "ems_churn", "fleet_traffic"},
    "sim_prim_us_p99": {"enclave_lifecycle", "ems_churn", "fleet_traffic"},
    "sim_knee_rps": {"fleet_traffic"},
}
RUN_TIMEOUT_S = 170
LINE = re.compile(r"^  (\S+)\s+(\S+)\s+(\S+)$")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # Serialize concurrent runs in one checkout around the build.
    with open(BUILD_DIR.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(cmd))


def contract(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for a mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload, seed, seconds, trace, extra=()):
    """Run one workload; returns (exit code, stdout).

    The binary's last line carries every metric it measures; this keeps
    exactly the ones BENCHMARK.json lists for the mode, in its order.
    """
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        cmd += ["--spans-out", str(ROOT / ".bench_build" / f"spans-{workload}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode:
        return proc.returncode, proc.stdout
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    metrics = {}
    for name, unit in contract(trace).items():
        m = result["metrics"].get(name)
        if m is None or m["unit"] != unit:
            fail(f"{workload}: metric {name} [{unit}] missing from the run's output")
        metrics[name] = m
    result["metrics"] = metrics
    lines[-1] = json.dumps(result)
    return 0, "\n".join(lines) + "\n"


def parse(stdout):
    """Split a run's stdout into (printed metric lines, digest, result)."""
    lines = stdout.strip().splitlines()
    printed = {}
    digest = None
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed[m.group(1)] = (m.group(2), m.group(3))
        elif line.startswith("digest "):
            digest = line.split()[1]
    return printed, digest, json.loads(lines[-1])


def table(seed, seconds):
    rows = {name: {} for name in END_TO_END}
    digests = {}
    for w in WORKLOADS:
        code, out = run(w, seed, seconds, 0)
        if code:
            fail(f"{w} exited with {code}")
        sys.stdout.write(out)
        printed, digests[w], _ = parse(out)
        for name in END_TO_END:
            rows[name][w] = printed[name]
    print()
    print(f"{'metric':18}" + "".join(f"{w:>22}" for w in WORKLOADS) + "  unit")
    for name, cells in rows.items():
        unit = next(u for _, u in cells.values())
        vals = "".join(f"{v if v == 'n/a' else f'{float(v):.6g}':>22}"
                       for v, _ in cells.values())
        print(f"{name:18}{vals}  {unit}")
    print(f"{'digest':18}" + "".join(f"{digests[w]:>22}" for w in WORKLOADS))


def selftest():
    """Tiny-size checks of the benchmark's own contract."""
    e2e, layers = contract(0), contract(1)
    problems = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    def units(result):
        return {k: v["unit"] for k, v in result["metrics"].items()}

    for w in WORKLOADS:
        runs = {}
        for seed, trace in [(1, 0), (1, 0), (2, 0), (1, 1)]:
            code, out = run(w, seed, 1, trace)
            check(code == 0, f"{w} seed {seed} trace {trace} exits 0")
            if code:
                return 1
            runs.setdefault((seed, trace), []).append(parse(out))
        (p1, d1, r1), (p1b, d1b, _) = runs[(1, 0)]
        p2, d2, r2 = runs[(2, 0)][0]
        pt, _, rt = runs[(1, 1)][0]
        check(units(r1) == e2e, f"{w}: --trace 0 reports every end-to-end metric with its unit")
        check(units(rt) == layers, f"{w}: --trace 1 reports every per-layer metric with its unit")
        check(all(r["correct"] and r["failed"] == 0 for r in (r1, r2, rt)),
              f"{w}: correct, no failed ops")
        printed_ok = all(
            name in p1 and (p1[name][0] != "n/a") == (w in applies)
            for name, applies in END_TO_END.items())
        check(printed_ok, f"{w}: prints all 11 end-to-end metrics, n/a exactly where they do not apply")
        sim = [n for n in END_TO_END if n.startswith("sim_")] + ["fail_ratio"]
        check(d1 == d1b and all(p1[n] == p1b[n] for n in sim),
              f"{w}: same seed gives identical sim_* metrics and digest")
        check(d2 != d1 and set(p2) == set(p1) and float(p2["fail_ratio"][0]) == 0,
              f"{w}: second seed gives the same names, fail_ratio 0, another digest")
        check(all(float(p1[n][0]) == float(pt[n][0]) for n in sim if p1[n][0] != "n/a"),
              f"{w}: tracing leaves the simulated metrics unchanged")

    code, out = run("enclave_lifecycle", 1, 1, 0, ["--negative-control"])
    printed, _, res = parse(out)
    check(code == 0 and not res["correct"] and res["failed"] > 0
          and float(printed["fail_ratio"][0]) > 0,
          "negative control (wrong expected measurement) raises fail_ratio above 0")
    print("selftest " + ("passed" if not problems else f"FAILED ({len(problems)})"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload or --selftest is required")
    build()
    if args.selftest:
        return selftest()
    if args.workload == "all":
        table(args.seed, args.seconds)
        return 0
    code, out = run(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())

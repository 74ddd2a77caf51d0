#!/usr/bin/env python3
"""Build and run the LMC benchmark (README.md beside this file).

Run from the repository root:

    python3 lmcbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 lmcbench/run.py --self-test

The first call configures and builds lmcbench (Release) under
$CARGO_TARGET_DIR/lmcbench, default .bench_build/lmcbench; later calls only
let CMake check that the build is current. The benchmark's last stdout line
is its result object. Exit codes: 0 verdicts correct, 1 a verdict mismatch,
2 a build, usage or set-up failure (no result printed).
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run measures for about --seconds; set-up, the pass that ends past it and
# the traced run's probes fit in the margin.
RUN_MARGIN_S = 150
BUILD_TIMEOUT_S = 850


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "lmcbench"


def sh(cmd, log, timeout):
    with open(log, "a") as f:
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, timeout=timeout).returncode


def build():
    """Build the lmcbench binary; exits 2 (printing the log tail) on failure."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = 0
    if not (bdir / "Makefile").exists():
        rc = sh(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"], log,
                BUILD_TIMEOUT_S)
    if rc == 0:
        rc = sh(["cmake", "--build", str(bdir), "--target", "lmcbench", "-j", jobs], log,
                BUILD_TIMEOUT_S)
    if rc != 0:
        sys.stderr.write("lmcbench: build failed; last lines of %s:\n" % log)
        sys.stderr.write("".join(log.read_text(errors="replace").splitlines(True)[-20:]))
        sys.exit(2)
    return bdir / "lmcbench"


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def bench_args(a, sha):
    return ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--git-sha", sha]


def run_bench(cmd, seconds, **kw):
    """Run the binary in its own process group and wait for it; on timeout
    kill the group (the binary forks one child per pass) and return None."""
    timeout = seconds + RUN_MARGIN_S
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        sys.stderr.write("lmcbench: timed out after %d s\n" % timeout)
        return None
    return subprocess.CompletedProcess(cmd, p.returncode, out, err)


def run(a):
    exe = build()
    cmd = [str(exe)] + bench_args(a, git_sha())
    if a.trace == 1:
        cmd += ["--spans-out", str(exe.parent / ("spans-%s-seed%d.jsonl" % (a.workload, a.seed)))]
    sys.stdout.flush()
    r = run_bench(cmd, a.seconds)
    return 2 if r is None else r.returncode


def self_test():
    """Reduced-size pass of every workload, traced and untraced: every metric
    BENCHMARK.json names is emitted with its unit, every record line is
    lmc-bench/1 (the binary validates each with validate_obs_line before
    printing it) and every verdict pin holds."""
    exe = build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            a = argparse.Namespace(workload=w["name"], seed=1, seconds=1, trace=trace)
            r = run_bench([str(exe), "--reduced"] + bench_args(a, git_sha()), a.seconds,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            tag = "%s --trace %d" % (w["name"], trace)
            if r is None:
                problems.append("%s: timed out" % tag)
                continue
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                problems.append("%s: exit %d\n%s" % (tag, r.returncode, r.stderr[-2000:]))
                continue
            for line in lines[:-1]:
                if not line.startswith('{"schema":"lmc-bench/1"'):
                    problems.append("%s: not an lmc-bench/1 record: %s" % (tag, line[:120]))
            res = json.loads(lines[-1])
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (tag, sorted(res)))
                continue
            if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s: verdicts %s/%s failed" % (tag, res["failed"], res["attempted"]))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace].items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(expected[trace].items()))
                problems.append("%s: metrics missing %s, unexpected %s" % (tag, missing, extra))
            for k, v in res["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    problems.append("%s: %s is not a number" % (tag, k))
            print("self-test %-24s ok: %d runs, %d metrics" % (tag, res["attempted"], len(got)))
    for p in problems:
        print("SELF-TEST FAILURE:", p)
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if a.self_test:
        return self_test()
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        p.print_usage(sys.stderr)
        return 2
    return run(a)


if __name__ == "__main__":
    sys.exit(main())

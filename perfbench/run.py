#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload table4|oracles|scheduled \\
        --seed N --seconds S --trace 0|1 [--dialect NAME[,NAME]] [--budget N]

The script builds the `perfbench` package (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the workload in fresh
processes:

- `--trace 0`: runs whole instances of the workload with the untraced
  binary while another instance still fits in `--seconds` (at least one),
  and reports the median over instances of each end-to-end metric. An
  instance is one process, except for `table4`, whose instance is one
  process per dialect.
- `--trace 1`: runs the untraced binary once as the reference, then the
  traced binary once, each with all of the workload's dialects in one
  process, and reports the per-layer metrics plus the tracing overhead on
  statements/sec.

Every process checks its own outputs; failed checks are summed into
`failed` against `attempted`. The last line of standard output is the
result object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run (build excluded) must end well inside 180 seconds.
RUN_DEADLINE_S = 170.0
# DialectId::ALL order.
DIALECTS = ["postgresql", "mysql", "mariadb", "clickhouse", "monetdb", "duckdb", "virtuoso"]
# Unique bugs of one default table4 sweep: the paper's Table 4.
TABLE4_BUGS = 132


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("library sources not found next to perfbench/ (crates/core is missing)")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed (exit {done.returncode})")


def run_child(binary, args, deadline):
    """Runs one fresh workload process. Returns (result, stdout lines before
    it, wall seconds); result is None when the process printed none."""
    t = time.monotonic()
    try:
        done = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: {os.path.basename(binary)} timed out", file=sys.stderr)
        return None, [], time.monotonic() - t
    wall = time.monotonic() - t
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: {os.path.basename(binary)} exited {done.returncode}",
              file=sys.stderr)
        return None, lines, wall
    try:
        return json.loads(lines[-1]), lines[:-1], wall
    except json.JSONDecodeError:
        return None, lines, wall


def value(result, name):
    return result["metrics"][name]["value"]


def instance_metrics(procs):
    """End-to-end metrics of one instance (its process results): rates are
    total work over total time, `table4`'s times and bugs sum over its
    dialect processes, and memory is the largest process's peak."""
    total = lambda name: sum(value(r, name) for r in procs)
    return {
        "stmts_per_s": (total("statements") / total("campaign_s"), "1/s"),
        "bugs_per_s": (total("unique_bugs") / total("workload_s"), "1/s"),
        "unique_bugs": (total("unique_bugs"), "count"),
        "first_bug_s": (total("first_bug_s"), "s"),
        "peak_rss_mb": (max(value(r, "peak_rss_mb") for r in procs), "MiB"),
        "setup_s": (total("setup_s"), "s"),
    }


def median_metrics(instances):
    """The median over the run's instances of each metric. Fresh processes
    differ in memory layout and the host drifts, so a run takes several
    instances; the median drops one that a slow spell hit."""
    per = [instance_metrics(inst) for inst in instances]
    return {
        name: {"value": statistics.median(m[name][0] for m in per), "unit": unit}
        for name, (_, unit) in per[0].items()
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["table4", "oracles", "scheduled"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--dialect", help="held-out dialect(s), comma-separated")
    ap.add_argument("--budget", type=int, help="held-out statement budget per campaign")
    opts = ap.parse_args()

    target_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build(target_dir)
    out_dir = os.path.join(target_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    args = ["--workload", opts.workload, "--seed", str(opts.seed), "--out", out_dir]
    if opts.budget is not None:
        args += ["--budget", str(opts.budget)]
    release = os.path.join(target_dir, "release")
    plain = os.path.join(release, "perfbench")
    traced = os.path.join(release, "perfbench-traced")

    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    # Checks run.py adds itself: [attempted, failed].
    extra = [0, 0]
    if opts.trace == 0:
        dialects = opts.dialect.split(",") if opts.dialect else None
        if opts.workload == "table4":
            per_process = [["--dialect", d] for d in dialects or DIALECTS]
        else:
            per_process = [["--dialect", opts.dialect] if dialects else []]
        instances = []
        crashed = 0
        last = 0.0
        # At least one instance; a run that keeps crashing gives up after 3.
        while time.monotonic() - start + last <= opts.seconds or (
                not instances and crashed < 3 and time.monotonic() + last < deadline):
            t = time.monotonic()
            instance = []
            for more in per_process:
                result, _, _ = run_child(plain, args + more, deadline)
                if result is None:
                    # A process that crashed or printed nothing is one failed
                    # operation; its instance is left out of the metrics.
                    extra[0] += 1
                    extra[1] += 1
                    crashed += 1
                    instance = None
                    break
                instance.append(result)
                print(f"perfbench: {opts.workload} {' '.join(more)}: "
                      f"{value(result, 'stmts_per_s'):.0f} stmts/s, "
                      f"first bug {value(result, 'first_bug_s'):.3f} s, "
                      f"setup {value(result, 'setup_s') * 1e3:.3f} ms", file=sys.stderr)
            last = time.monotonic() - t
            if instance is None:
                continue
            instances.append(instance)
            if opts.workload == "table4" and not opts.dialect and opts.budget is None:
                bugs = sum(value(r, "unique_bugs") for r in instance)
                extra[0] += 1
                if bugs != TABLE4_BUGS:
                    extra[1] += 1
                    print(f"perfbench: check failed: table4 total: {bugs:.0f} unique faults, "
                          f"expected {TABLE4_BUGS}", file=sys.stderr)
        if not instances:
            fail("no instance of the workload produced a result")
        results = [r for inst in instances for r in inst]
        metrics = median_metrics(instances)
    else:
        if opts.dialect:
            args += ["--dialect", opts.dialect]
        reference, _, _ = run_child(plain, args, deadline)
        result, lines, _ = run_child(traced, args, deadline)
        if reference is None or result is None:
            fail("the traced run or its untraced reference produced no result")
        for line in lines:
            print(line)
        results = [reference, result]
        metrics = dict(result["metrics"])
        plain_rate = value(reference, "stmts_per_s")
        traced_rate = metrics["trace.stmts_per_s"]["value"]
        overhead = 1.0 - traced_rate / plain_rate
        metrics["trace.untraced_stmts_per_s"] = {"value": plain_rate, "unit": "1/s"}
        metrics["trace.overhead_share"] = {"value": overhead, "unit": "ratio"}
        print(f"tracing overhead: {traced_rate:.0f} vs {plain_rate:.0f} statements/sec "
              f"untraced ({100.0 * overhead:.1f}%)")

    attempted = sum(r["attempted"] for r in results) + extra[0]
    failed = sum(r["failed"] for r in results) + extra[1]
    print(json.dumps({
        "correct": failed == 0 and all(r["correct"] for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

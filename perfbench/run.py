#!/usr/bin/env python3
"""Runs one workload of the logit-dynamics benchmark.

    python3 perfbench/run.py --workload serve-short --seed 1 --seconds 10 --trace 0

Run it from the repository root. It builds the benchmark package
(perfbench/Cargo.toml) from source into $CARGO_TARGET_DIR (default
.bench_build), once without and once with the `telemetry` feature, then:

  --trace 0  samples the set-up twice in fresh processes, runs the workload
             once more in full, and prints the end-to-end metrics, with
             `setup_s` the median of the three set-ups;
  --trace 1  runs the workload untraced and then traced (recording on) and
             prints the per-layer metrics, with `telemetry.overhead_frac`
             comparing the two runs' throughput.

Every line before the last is a JSON record of the run (workload properties
and host); the last line is the result. Exits non-zero without a result if
the build or a run fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170
SETUP_SAMPLES = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(traced):
    """Builds one flavour and returns the path of its binary."""
    target = os.path.join(
        ROOT,
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "traced" if traced else "plain",
    )
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", MANIFEST, "--target-dir", target]
    if traced:
        command += ["--features", "telemetry"]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def source_id():
    """The git commit, or a hash of the sources when this is no git checkout."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return "git:" + head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
        if os.path.isfile(os.path.join(ROOT, top)):
            with open(os.path.join(ROOT, top), "rb") as f:
                digest.update(top.encode() + f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run(binary, args, deadline):
    """Runs the benchmark binary; returns its stdout lines as JSON values."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time")
    try:
        done = subprocess.run([binary] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} timed out")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"{' '.join(args)} exited with code {done.returncode}")
    return [json.loads(line) for line in done.stdout.splitlines() if line.strip()]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    plain = build(False)
    traced = build(True) if args.trace else None
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--source", source_id()]
    deadline = time.monotonic() + RUN_BUDGET_S

    records = []
    if args.trace:
        *untraced_records, base = run(plain, common, deadline)
        *records, result = run(traced, common + ["--layers"], deadline)
        records = untraced_records + records
        metrics = result["metrics"]
        for name in ["updates_per_s", "jobs_per_s"]:
            suffix = "" if name == "updates_per_s" else ".jobs_per_s"
            metrics["telemetry.overhead_frac" + suffix] = {
                "value": 1 - metrics[name]["value"] / base["metrics"][name]["value"],
                "unit": "ratio",
            }
        result["correct"] = result["correct"] and base["correct"]
        result["attempted"] += base["attempted"]
        result["failed"] += base["failed"]
    else:
        # Set-up is sampled in fresh processes: each one counts from its
        # own process start, and the artifact memory of one set-up never
        # inflates the next one's, or the measured run's, peak RSS.
        setups = [run(plain, common + ["--setup-only"], deadline)[-1]["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        *records, result = run(plain, common, deadline)
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        records[-1]["setup_s_samples"] = setups

    missing = [m["name"] for m in wanted
               if not isinstance(result["metrics"].get(m["name"], {}).get("value"), (int, float))]
    if missing:
        fail(f"metrics missing or not numbers: {', '.join(missing)}")
    result["metrics"] = {m["name"]: result["metrics"][m["name"]] for m in wanted}
    for record in records:
        print(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

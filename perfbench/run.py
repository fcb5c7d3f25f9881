#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root (any checkout of it). The first run configures
and builds perfbench/bench.cc plus every source under src/ into
.bench_build/perfbench; later runs rebuild incrementally. The human-readable
report goes to stdout, and the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json for --trace 0, its per-layer metrics for --trace 1. A run
record (meta, every named metric, the result) and, for traced runs, the
spans are written under .bench_build/records.

--self-test builds the benchmark and runs every workload in quick mode: it
checks that BENCHMARK.json and perfbench/catalog.json name the same metrics,
that every metric is emitted with its unit, and that a deliberately wrong
expected value (digest, alert count, ...) raises error_rate above 0.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RECORDS = ROOT / ".bench_build" / "records"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    if not (ROOT / "src").is_dir():
        fail(f"no src/ directory under {ROOT}: nothing to benchmark", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr; stdout is reserved for the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 2)
    return BUILD / "perfbench"


def source_commit():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns the binary's result object."""
    RECORDS.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        cmd += ["--spans", str(RECORDS / f"{workload}-seed{seed}.spans.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def compose(raw, workload, trace, bench, catalog):
    """Maps the binary's figures onto BENCHMARK.json's metric names."""
    aliases = catalog["workloads"][workload]
    figures = dict(raw["metrics"])
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    missing = []
    for m in wanted:
        name = m["name"]
        value = figures.get(name, figures.get(aliases.get(name, "")))
        if value is None:
            missing.append(name)
        else:
            metrics[name] = {"value": value, "unit": m["unit"]}
    if missing:
        print(f"perfbench: {workload} emitted no {', '.join(missing)}",
              file=sys.stderr)
    return {"correct": bool(raw["correct"]) and not missing,
            "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]) + (1 if missing else 0),
            "metrics": metrics}


def report(raw, result, workload, seed, trace, commit, catalog):
    meta = raw["meta"]
    figures = raw["metrics"]
    ops = int(figures.get("operations", result["attempted"]))
    print(f"perfbench {workload} seed={seed} trace={trace} cores={meta['cores']}"
          f" jobs={meta['jobs']} build_type={meta['build_type']}"
          f" commit={commit} operations={ops}")
    rows = []
    if trace:
        for name, m in result["metrics"].items():
            info = catalog["per_layer"][name]
            rows.append((name, m["value"], m["unit"],
                         f"{info['workload']} -> {info['moves']}"))
    else:
        error_rate = result["failed"] / max(1, result["attempted"])
        rows.append(("error_rate", error_rate, "ratio",
                     f"{result['failed']}/{result['attempted']}"))
        aliases = catalog["workloads"][workload]
        for name, m in result["metrics"].items():
            named = aliases.get(name)
            if named:
                rows.append((named, m["value"],
                             catalog["named"][named]["unit"], name))
            else:
                rows.append((name, m["value"], m["unit"], ""))
        # Named figures no bounded metric stands for.
        for named, info in catalog["named"].items():
            if named in figures and named not in aliases.values():
                rows.append((named, figures[named], info["unit"], ""))
    for name, value, unit, note in rows:
        print(f"  {name:36s} {value:>16.6g} {unit:10s} {note}")


def run(args):
    bench = load_json(ROOT / "BENCHMARK.json")
    catalog = load_json(HERE / "catalog.json")
    if args.workload not in catalog["workloads"]:
        fail(f"unknown workload {args.workload!r}", 2)
    binary = build()
    commit = source_commit()
    raw = run_binary(binary, args.workload, args.seed, args.seconds,
                     args.trace)
    result = compose(raw, args.workload, args.trace, bench, catalog)
    report(raw, result, args.workload, args.seed, args.trace, commit, catalog)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "commit": commit,
              "meta": raw["meta"], "figures": raw["metrics"],
              "result": result}
    path = RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def self_test():
    bench = load_json(ROOT / "BENCHMARK.json")
    catalog = load_json(HERE / "catalog.json")
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")

    per_layer = [m["name"] for m in bench["per_layer"]]
    expect(per_layer == list(catalog["per_layer"]),
           "BENCHMARK.json and catalog.json list the same per-layer metrics")
    e2e = {m["name"] for m in bench["end_to_end"]}
    expect(e2e == set(catalog["end_to_end"]),
           "BENCHMARK.json and catalog.json list the same end-to-end metrics")
    expect(all(info["moves"] in catalog["named"] or info["moves"] in e2e
               for info in catalog["per_layer"].values()),
           "every per-layer metric moves a named end-to-end metric")
    binary = build()
    for name in catalog["workloads"]:
        for trace in (0, 1):
            raw = run_binary(binary, name, 1, 1, trace, ["--quick"])
            result = compose(raw, name, trace, bench, catalog)
            wanted = bench["per_layer"] if trace else bench["end_to_end"]
            expect(all(result["metrics"].get(m["name"], {}).get("unit")
                       == m["unit"] for m in wanted),
                   f"{name} trace={trace}: every metric emitted with its unit")
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace}: error_rate is 0")
            if not trace:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{name}: every end-to-end metric is above 0")
        raw = run_binary(binary, name, 1, 1, 0, ["--quick", "--expect-wrong"])
        expect(raw["failed"] > 0 and not raw["correct"],
               f"{name}: a wrong expected value raises error_rate above 0")
    print(f"self-test: {len(problems)} problem(s)")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

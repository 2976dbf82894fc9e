#!/usr/bin/env python3
"""End-to-end benchmark of the anytime-anywhere engine.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload grow|churn|serve --seed N \
        --seconds S --trace 0|1
    python3 e2ebench/run.py --selfcheck

The script builds the library and the e2e driver (e2ebench/e2e.cpp) in
Release into $CARGO_TARGET_DIR (default .bench_build), runs one workload and
prints a human-readable report followed, as the last line of standard
output, by one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end_to_end list of
BENCHMARK.json; with --trace 1 they are its per_layer list.

--selfcheck runs every workload at a tiny size on two seeds, plain and
traced, and fails unless every correctness gate passes and every metric of
BENCHMARK.json prints with its unit.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("grow", "churn", "serve")
RUN_TIMEOUT_S = 170

# Which end-to-end metric each per-layer metric should move, and on which
# workload. Printed with every traced run.
LAYER_MAP = [
    ("partition.*", "setup_s, sim_s", "all; cut edges on grow"),
    ("init.wall_s, ia.*", "setup_s", "all"),
    ("rc.steps, rc.step_ms.p50, rc.ops/bytes/messages", "converge_s, update_p50_ms, sim_s",
     "grow most, churn little"),
    ("rc.post/exchange/ingest/propagate_s", "converge_s", "grow"),
    ("rc.useful_frac", "converge_s, update_p50_ms", "grow"),
    ("add.*", "update_p50_ms, changes_per_s", "grow"),
    ("delete.*", "update_p50_ms, changes_per_s, sim_s", "churn"),
    ("migrate.*", "changes_per_s", "churn"),
    ("checkpoint.*", "recover_s", "churn (every workload recovers its final state)"),
    ("serve.publish_ms.*, serve.rows/bytes/publications, serve.topk_*", "update_p50_ms", "serve"),
    ("serve.point/batch/topk_us.*, query_fail_frac", "query_p50_us, query_p99_us, query_per_s",
     "serve (quiescent reads on grow, churn)"),
    ("mem.store_bytes", "peak_rss_mb", "all"),
]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure and build the e2e driver in Release. Returns its path."""
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "e2e", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("build failed: " + " ".join(cmd))
    return out / "e2e"


def cache_value(key):
    cache = build_dir() / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def source_digest():
    """sha256 over the library sources and this benchmark: identifies the
    code measured even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR):
        files += sorted(p for p in top.rglob("*") if p.is_file()
                        and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def run_driver(binary, workload, seed, seconds, trace, scale="full"):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scale", scale]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0 or not done.stdout.strip():
        log(done.stderr)
        raise SystemExit(f"e2e exited with {done.returncode}: {' '.join(cmd)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def validate(result, spec, trace, nonzero=True):
    """Problems with one driver result: failed gates, a debug build, and any
    BENCHMARK.json metric that is missing, has the wrong unit, or (end to
    end, when `nonzero`) is zero or not finite."""
    problems = list(result["gates"])
    if not result["build"]["ndebug"]:
        problems.append("refusing timings from a build without NDEBUG")
    produced = result["per_layer"] if trace else result["end_to_end"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in wanted:
        got = produced.get(metric["name"])
        if got is None:
            problems.append(f"metric {metric['name']} not printed")
        elif got["unit"] != metric["unit"]:
            problems.append(f"metric {metric['name']} has unit {got['unit']}, "
                            f"expected {metric['unit']}")
        elif nonzero and not trace and not 0 < got["value"] < float("inf"):
            problems.append(f"metric {metric['name']} is {got['value']}")
    return problems


def print_table(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")


def report(result, trace, meta):
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(f"workload {result['workload']}  seed {result['seed']}  rounds {result['rounds']}"
          f"  set-ups {result['setups']}  gates "
          + ("passed" if not result["gates"] else "FAILED: " + "; ".join(result["gates"])))
    print_table("end to end" + (" (plain round)" if trace else ""), result["end_to_end"])
    print("samples behind the medians: " + json.dumps(result["samples"]))
    if not trace:
        return
    print_table("end to end (traced round)", result["traced_end_to_end"])
    layers = result["per_layer"]
    busy = layers["driver.busy_s"]["value"]
    print(f"attribution of the traced driver wall time ({busy:.4f} s busy):")
    rows = [("partition", layers["partition.wall_s"]["value"])]
    rows += [(name, layers[f"layer.{name}_s"]["value"])
             for name in ("ia", "rc", "add", "delete", "migrate", "checkpoint", "serve")]
    rows.append(("unattributed", layers["unattributed_s"]["value"]))
    for name, seconds in rows:
        share = seconds / busy if busy > 0 else 0.0
        print(f"  {name:<14} {seconds:>10.4f} s  {100 * share:6.2f}%")
    print(f"tracing overhead: {100 * layers['trace.overhead_frac']['value']:.2f}% "
          "of the plain round's driver time")
    print_table("per layer", layers)
    print("per-layer metric -> end-to-end metric it should move (workload):")
    for layer, e2e, where in LAYER_MAP:
        print(f"  {layer:<58} -> {e2e} ({where})")


def metadata(binary_result, seed):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "compiler": binary_result["build"]["compiler"],
        "ndebug": binary_result["build"]["ndebug"],
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def selfcheck(binary, spec):
    failures = []
    for workload in WORKLOADS:
        for seed in (1, 2):
            for trace in (False, True):
                result = run_driver(binary, workload, seed, 0.1, trace, scale="tiny")
                # A tiny run may read zero where a full-size one cannot.
                problems = validate(result, spec, trace, nonzero=False)
                status = "ok" if not problems else "; ".join(problems)
                print(f"selfcheck {workload:<6} seed {seed} trace {int(trace)}: {status}")
                failures += problems
    print(json.dumps({"selfcheck": "passed" if not failures else "failed",
                      "problems": failures}))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    if cache_value("CMAKE_BUILD_TYPE") != "Release":
        raise SystemExit("refusing timings from a non-Release build")
    if args.selfcheck:
        return selfcheck(binary, spec)
    if args.workload is None:
        parser.error("--workload is required")

    trace = args.trace == 1
    result = run_driver(binary, args.workload, args.seed, args.seconds, trace)
    problems = validate(result, spec, trace)
    report(result, trace, metadata(result, args.seed))
    for problem in problems:
        print("problem: " + problem)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    produced = result["per_layer" if trace else "end_to_end"]
    print(json.dumps({
        "correct": not problems,
        "attempted": max(1, int(result["attempted"])),
        "failed": int(result["failed"]),
        "metrics": {name: produced[name] for name in names if name in produced},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark in alternating base/change pairs and record a summary.

    python3 tools/bench_pairs.py --base ../parent --change . \\
        --workload pretrain-default --seeds 101-110 --out BENCH_11.json

Each seed runs ``bench/run.py --trace 0`` once in each checkout, the base
first on even pair indices and the change first on odd ones, so drift in
the machine's speed falls on both sides. The seeds must be at least two and
distinct: quartiles need two pairs, and a seed names its pair. Every run
must exit 0 and be correct with no failed operation; a failing run stops
the tool with its exit code and the tail of its stderr. The record holds,
per workload and end-to-end metric, each pair's two values, both sides'
median and quartiles, the pair count and the pairs the change won in the
metric's direction (BENCHMARK.json); per side, the commit id, whether src/
or bench/ differ from it, a digest of src/, and nproc. A later call with
another workload adds to the same file.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    """'101-103,201' -> [101, 102, 103, 201]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def describe(checkout):
    def git(*args):
        proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    digest = hashlib.sha256()
    src = os.path.join(checkout, "src")
    for root, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    status = git("status", "--porcelain", "--", "src", "bench")
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(status),
            "src_sha256": digest.hexdigest()}


# Lines of a failing run's stderr that the error message repeats.
STDERR_TAIL = 20


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL:])
        raise SystemExit(
            f"{checkout} {workload} seed {seed}: exit {proc.returncode}; stderr ends:\n{tail}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout} {workload} seed {seed}: {result['failed']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs, better):
    """Per metric: both sides' median and quartiles, the pair count and the
    change's wins; pairs is a list of {"seed", "base", "change"} values."""
    out = {}
    for name, direction in better.items():
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c < b) if direction == "lower" else (c > b) for b, c in zip(base, change))
        out[name] = {"base": spread(base), "change": spread(change),
                     "pairs": len(pairs), "wins": wins, "better": direction}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    if len(args.seeds) < 2 or len(set(args.seeds)) != len(args.seeds):
        p.error(f"--seeds needs at least two distinct seeds, got {args.seeds}")
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    setting = {"base": describe(args.base), "change": describe(args.change),
               "nproc": os.cpu_count(), "seconds": args.seconds}
    record = {"workloads": {}, **setting}
    if os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
        if any(record[k] != v for k, v in setting.items()):
            raise SystemExit(f"{args.out} records other checkouts or settings")

    pairs = []
    for i, seed in enumerate(args.seeds):
        pair = {"seed": seed}
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            pair[side] = run_once(getattr(args, side), args.workload, seed, args.seconds)
        pairs.append(pair)
        print(f"{args.workload} seed {seed}: done ({i + 1}/{len(args.seeds)})", file=sys.stderr)
    record["workloads"][args.workload] = {
        "pairs": pairs, "metrics": summarise(pairs, better),
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

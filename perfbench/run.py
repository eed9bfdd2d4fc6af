#!/usr/bin/env python3
"""Session-level serving benchmark for qdcbir.

Builds the repository's `qdcbir_tool` and `trace_check` from source, builds
the native load generator in this directory against that build, makes the
corpus fixtures, and runs one workload:

  python3 perfbench/run.py --workload paper_serial --seed 1 --seconds 40 --trace 0

The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; the line before it stamps the
run (git SHA, build type, QDCBIR_OBS, SIMD level, nproc, lanes, connections,
workload seed). --trace 1 reports the per-layer metrics instead of the
end-to-end ones and writes a Chrome trace of the benchmark's spans.

Other modes:
  --steady N        run the workload N times (seeds seed..seed+N-1) and print
                    each end-to-end metric's median, quartiles and spread
                    against its bound in BENCHMARK.json
  --compare A B     compare two result or steadiness files; refuses pairs
                    whose build type, QDCBIR_OBS setting or SIMD level differ
  --smoke           every workload on a tiny corpus for a few seconds, traced
                    and untraced; the benchmark's own test

See perfbench/README.md for the workloads and the metric-to-layer map.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_IMAGES = {"paper_serial": 15000, "gui_concurrent": 15000, "open_arrivals": 3000}
SMOKE_IMAGES = 1500
SYNTH_SEED = 7  # qdcbir_tool synth's default corpus seed
FIXTURES = HERE / "fixtures"
OUT = HERE / "out"


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def run_logged(cmd, logfile):
    with open(logfile, "a") as out:
        out.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build():
    """Builds the measured program and the load generator; returns paths."""
    bdir = build_dir()
    repo_build = bdir / "qdcbir"
    gen_build = bdir / "perfbench"
    bdir.mkdir(parents=True, exist_ok=True)
    logfile = bdir / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (repo_build / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(repo_build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(repo_build), "-j", jobs,
                  "--target", "qdcbir_tool", "trace_check"])
    if not (gen_build / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(gen_build),
                      f"-DQDCBIR_SOURCE_DIR={ROOT}",
                      f"-DQDCBIR_BUILD_DIR={repo_build}"])
    steps.append(["cmake", "--build", str(gen_build), "-j", jobs])
    start = time.monotonic()
    for cmd in steps:
        if run_logged(cmd, logfile) != 0:
            with open(logfile) as f:
                sys.stderr.write("".join(f.readlines()[-40:]))
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(1)
    log(f"build ok in {time.monotonic() - start:.1f} s")
    return {
        "tool": repo_build / "tools" / "qdcbir_tool",
        "trace_check": repo_build / "tools" / "trace_check",
        "loadgen": gen_build / "qdcbir_loadgen",
    }


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def fixture(tool, images):
    """The corpus snapshot and RFS for `images`, built once and checked with
    `qdcbir_tool snapshot --verify=1` before every use. A fixture made by
    another build of the tool, or one that fails the check, is rebuilt."""
    fdir = FIXTURES / str(images)
    db, rfs, manifest = fdir / "db.bin", fdir / "rfs.bin", fdir / "manifest.json"
    want = {"images": images, "synth_seed": SYNTH_SEED, "tool_sha256": sha256(tool)}
    logfile = fdir / "fixture.log"
    reason = None
    if not manifest.exists():
        reason = "missing"
    elif json.loads(manifest.read_text()) != want:
        reason = "made by another build of qdcbir_tool"
    elif run_logged([tool, "snapshot", f"--db={db}", "--verify=1"], logfile) != 0:
        reason = "snapshot --verify=1 failed"
    elif run_logged([tool, "info", f"--rfs={rfs}"], logfile) != 0:
        reason = "RFS does not load"
    if reason is None:
        return db, rfs
    log(f"fixture {images}: rebuilding ({reason})")
    shutil.rmtree(fdir, ignore_errors=True)
    fdir.mkdir(parents=True)
    start = time.monotonic()
    steps = [
        [tool, "synth", f"--images={images}", f"--seed={SYNTH_SEED}", f"--out={db}"],
        [tool, "rfs", f"--db={db}", f"--out={rfs}"],
        [tool, "snapshot", f"--db={db}", "--verify=1"],
        [tool, "info", f"--rfs={rfs}"],
    ]
    for cmd in steps:
        if run_logged(cmd, logfile) != 0:
            log(f"fixture {images}: {' '.join(map(str, cmd))} failed; see {logfile}")
            sys.exit(1)
    manifest.write_text(json.dumps(want) + "\n")
    log(f"fixture {images}: built in {time.monotonic() - start:.1f} s (not part of setup_s)")
    return db, rfs


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(bins, workload, seed, seconds, trace, smoke=False, echo=True):
    """One load-generator run; returns (exit code, stamp, result)."""
    images = SMOKE_IMAGES if smoke else WORKLOAD_IMAGES[workload]
    db, rfs = fixture(bins["tool"], images)
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [bins["loadgen"], f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--tool={bins['tool']}",
           f"--trace-check={bins['trace_check']}", f"--db={db}", f"--rfs={rfs}",
           f"--out-dir={OUT}", f"--git-sha={git_sha()}"]
    if smoke:
        cmd.append("--smoke=1")
    proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if echo:
        for line in lines:
            print(line, flush=True)
    stamp = result = None
    if len(lines) >= 2:
        stamp = json.loads(lines[-2]).get("stamp")
        result = json.loads(lines[-1])
    return proc.returncode, stamp, result


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def steady(bins, args):
    """Runs one workload `args.steady` times and prints the spread per metric."""
    values, stamp = {}, None
    for i in range(args.steady):
        seed = args.seed + i
        rc, stamp, result = run_workload(bins, args.workload, seed, args.seconds,
                                         0, echo=False)
        if rc != 0 or not result or not result["correct"]:
            log(f"run with seed {seed} failed (exit {rc})")
            sys.exit(1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items())
            + f", steal_share={stamp.get('steal_share', 0):.3f}")
    spec = bounds()
    summary = {"stamp": stamp, "medians": {}}
    print(f"{'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = spec.get(name, {}).get("bound")
        verdict = "-" if bound is None else ("steady" if spread < bound / 3 else
                                              "within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:18} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound if bound is not None else '-':>6}  {verdict}")
        summary["medians"][name] = statistics.median(vals)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"steady-{args.workload}-seed{args.seed}x{args.steady}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary written to {path}")


def compare(a_path, b_path):
    """Per-metric change from A to B against the bounds; exit 1 on a refused
    pair or a regression beyond a bound."""
    def load(path):
        doc = json.loads(Path(path).read_text())
        if "medians" in doc:
            return doc["stamp"], doc["medians"]
        return doc["stamp"], {k: m["value"] for k, m in doc["result"]["metrics"].items()}
    (sa, va), (sb, vb) = load(a_path), load(b_path)
    for key in ("build_type", "obs", "simd"):
        if sa["build"].get(key) != sb["build"].get(key):
            print(f"refused: {key} differs ({sa['build'].get(key)} vs {sb['build'].get(key)})")
            sys.exit(1)
    for key in ("workload", "images"):
        if sa[key] != sb[key]:
            print(f"refused: {key} differs ({sa[key]} vs {sb[key]})")
            sys.exit(1)
    spec = bounds()
    regressed = False
    print(f"{'metric':18} {'A':>12} {'B':>12} {'change':>8} {'bound':>6}")
    for name in va:
        if name not in vb:
            continue
        a, b = va[name], vb[name]
        change = (b - a) / a if a else 0.0
        m = spec.get(name)
        worse = m is not None and (change if m["better"] == "lower" else -change) > m["bound"]
        regressed |= worse
        print(f"{name:18} {a:12.6g} {b:12.6g} {change:+8.3f} "
              f"{m['bound'] if m else '-':>6}{'  WORSE' if worse else ''}")
    sys.exit(1 if regressed else 0)


def smoke(bins):
    """Every workload on a tiny corpus, traced and untraced."""
    failures = 0
    for workload in WORKLOAD_IMAGES:
        for trace in (0, 1):
            rc, _, result = run_workload(bins, workload, 1, 1.5, trace, smoke=True,
                                         echo=False)
            ok = rc == 0 and result and result["correct"] and result["failed"] == 0
            failures += not ok
            log(f"smoke {workload} trace={trace}: {'ok' if ok else 'FAILED'}")
    sys.exit(1 if failures else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_IMAGES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if args.compare:
        compare(*args.compare)
    bins = build()
    if args.smoke:
        smoke(bins)
    if not args.workload:
        parser.error("--workload is required")
    if args.steady:
        steady(bins, args)
        return
    rc, _, result = run_workload(bins, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        log("the load generator printed no result")
        sys.exit(rc or 1)
    sys.exit(rc)


if __name__ == "__main__":
    main()

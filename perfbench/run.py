#!/usr/bin/env python3
"""Runs one benchmark workload in a fresh JVM and prints its metrics.

    python3 perfbench/run.py --workload sse-table2 --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout. The first run compiles the program and
the benchmark with sbt (perfbench/build.sbt) and writes the runtime
classpath; later runs reuse it until a source or build file changes.

With --trace 0 a run starts COLD_LAUNCHES JVMs that stop after their cold
pass, then the measuring JVM, which gets what is left of --seconds;
setup_s and cold_pass_s are medians over all of these JVMs. With --trace 1
only the measuring JVM runs, and reports the per-layer metrics. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sse-table2", "micro-fig6")
# Fixed heap (initial = maximum), a fixed single-threaded collector and the
# C2 compiler alone, so every JVM is the same whatever the build's settings.
# With tiered compilation the bytes a warm pass allocates fell into one of
# two modes per JVM (2.8 or 3.25 GB on sse-table2); with C2 alone they repeat.
JVM_FLAGS = ["-Xms512m", "-Xmx512m", "-XX:+UseSerialGC", "-XX:+AlwaysPreTouch",
             "-XX:-TieredCompilation"]
COLD_LAUNCHES = 1
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 840
CLASSPATH = HERE / "target" / "runtime.classpath"
STAMP = HERE / "target" / "build.stamp"


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_inputs():
    """Every file whose change calls for a rebuild, in a stable order."""
    files = [ROOT / "build.sbt", HERE / "build.sbt"]
    for proj in (ROOT / "project", HERE / "project"):
        files += [p for p in proj.glob("*") if p.suffix in (".sbt", ".scala", ".properties")]
    for tree in (ROOT / "src" / "main", ROOT / "jobs", HERE / "src" / "main"):
        files += [p for p in tree.rglob("*") if p.is_file()]
    return sorted(p for p in files if p.is_file())


def stamp_of(files):
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def classpath():
    """The benchmark's runtime classpath, building first if it is stale."""
    stamp = stamp_of(build_inputs())
    if CLASSPATH.is_file() and STAMP.is_file() and STAMP.read_text() == stamp:
        cp = CLASSPATH.read_text().strip()
        if all(Path(e).exists() for e in cp.split(os.pathsep)):
            return cp
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH", 2)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true")
    CLASSPATH.parent.mkdir(parents=True, exist_ok=True)
    log = HERE / "target" / "build.log"
    with open(log, "w") as out:
        try:
            code = subprocess.run(
                ["sbt", "--batch", "-Dsbt.log.noformat=true", "benchClasspath"],
                cwd=HERE, env=env, stdout=out, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, timeout=BUILD_LIMIT_S).returncode
        except subprocess.TimeoutExpired:
            code = -1
    if code != 0 or not CLASSPATH.is_file():
        sys.stderr.write("".join(log.read_text().splitlines(keepends=True)[-40:]))
        fail(f"build failed (exit {code}); full log in {log}", 3)
    STAMP.write_text(stamp)
    return CLASSPATH.read_text().strip()


def launch(cp, args, deadline, echo):
    """Runs one JVM. Returns (set-up seconds, RESULT object or None)."""
    java = str(Path(os.environ["JAVA_HOME"]) / "bin" / "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, *JVM_FLAGS, "-cp", cp, "repro.perfbench.Main", *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    setup, result = None, None
    try:
        for line in proc.stdout:
            if setup is None and line.strip() == "PASS_START":
                setup = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            elif echo:
                sys.stdout.write(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup is None:
        fail(f"JVM exited with code {code}" + (" before set-up ended" if setup is None else ""))
    return setup, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no program sources under {ROOT}; run from the root of a full checkout", 2)
    cp = classpath()
    # A first run in a checkout pays for the build; the measurement gets
    # its own time budget after it.
    deadline = max(deadline, time.monotonic() + RUN_LIMIT_S - 20)
    start = time.monotonic()
    args = ["--workload", a.workload, "--seed", str(a.seed), "--trace", str(a.trace)]
    runs = []
    for _ in range(0 if a.trace else COLD_LAUNCHES):
        runs.append(launch(cp, args + ["--seconds", str(a.seconds), "--cold-only"], deadline, False))
    left = max(1.0, a.seconds - (time.monotonic() - start))
    runs.append(launch(cp, args + ["--seconds", f"{left:.3f}"], deadline, True))
    if any(r is None for _, r in runs):
        fail("a JVM printed no result")
    result = runs[-1][1]
    result["correct"] = all(r["correct"] for _, r in runs)
    result["attempted"] = sum(r["attempted"] for _, r in runs)
    result["failed"] = sum(r["failed"] for _, r in runs)
    if not a.trace:
        colds = [r["metrics"]["cold_pass_s"]["value"] for _, r in runs]
        setups = [s for s, _ in runs]
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                             **result["metrics"],
                             "cold_pass_s": {"value": statistics.median(colds), "unit": "s"}}
        print(f"# set-up seconds per JVM: {' '.join(f'{s:.3f}' for s in setups)}")
        print(f"# cold pass seconds per JVM: {' '.join(f'{c:.3f}' for c in colds)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload filter --seed 1 --seconds 7 --trace 0

Builds the engine with the harness once (sbt, offline), launches one JVM
running Spark in local mode on every core, and prints a report followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. The full record, with provenance and sample counts, is written to
perfbench/results/. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import zipfile

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENGINE_SRC = os.path.join(ROOT, "src", "main", "scala")
BUILD_DIR = os.path.join(HERE, "target")
CLASSPATH_FILE = os.path.join(BUILD_DIR, "bench-classpath.txt")
STAMP_FILE = os.path.join(BUILD_DIR, "bench-stamp.txt")
CDS_ARCHIVE = os.path.join(BUILD_DIR, "bench-classes.jsa")
WORK_ROOT = os.path.join(HERE, "work")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("filter", "group", "let-where", "sort")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HEAP = "3g"

# JDK module opens that Spark's launcher adds; the JVM started here needs them too.
JVM_OPENS = [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark installation: set SPARK_HOME or put spark-submit on PATH")
    return home


def sources():
    """Every file the build reads, in a stable order."""
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (ENGINE_SRC, os.path.join(HERE, "src")):
        for d, _, names in sorted(os.walk(top)):
            files += [os.path.join(d, n) for n in sorted(names) if n.endswith(".scala")]
    return files


def source_digest():
    h = hashlib.sha256()
    for f in sources():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build(env, digest):
    """Compile once per source digest; returns the runtime classpath."""
    if os.path.exists(STAMP_FILE) and os.path.exists(CLASSPATH_FILE):
        with open(STAMP_FILE) as fh:
            if fh.read().strip() == digest:
                with open(CLASSPATH_FILE) as fh:
                    return fh.read().strip()
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "-Dsbt.global.base=" + os.path.join(BUILD_DIR, "sbt-global"),
           "-Djava.io.tmpdir=" + tmp, "-J-XX:-UsePerfData",
           "compile", "export Runtime/fullClasspath"]
    try:
        p = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout[-4000:])
        fail("build failed")
    classpath = jar_classpath(lines[-1].strip())
    if os.path.exists(CDS_ARCHIVE):
        os.remove(CDS_ARCHIVE)
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(CLASSPATH_FILE, "w") as fh:
        fh.write(classpath)
    with open(STAMP_FILE, "w") as fh:
        fh.write(digest)
    return classpath


def jar_classpath(classpath):
    """The classpath with each class directory packed into a jar, because the
    JVM's class-data archive (see run_jvm) only covers classes from jars."""
    entries = []
    for i, entry in enumerate(classpath.split(os.pathsep)):
        if os.path.isdir(entry):
            jar = os.path.join(BUILD_DIR, "classes-%d.jar" % i)
            with zipfile.ZipFile(jar, "w") as z:
                for d, _, names in sorted(os.walk(entry)):
                    for n in sorted(names):
                        f = os.path.join(d, n)
                        z.write(f, os.path.relpath(f, entry))
            entry = jar
        entries.append(entry)
    return os.pathsep.join(entries)


def git_sha():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def run_jvm(classpath, env, args, work, raw_path, deadline):
    # The first run after a build records the classes it loads in a class-data
    # archive; later runs map it, which takes seconds off JVM and Spark start.
    dump = not os.path.exists(CDS_ARCHIVE)
    cds = ("-XX:ArchiveClassesAtExit=" + CDS_ARCHIVE + ".tmp" if dump
           else "-XX:SharedArchiveFile=" + CDS_ARCHIVE)
    cmd = ["java", "-Xms" + HEAP, "-Xmx" + HEAP, "-XX:-UsePerfData", cds, *JVM_OPENS,
           "-Djava.io.tmpdir=" + os.path.join(work, "tmp"),
           "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
           "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--out", raw_path]
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail("the benchmark JVM did not finish in time")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        fail("the benchmark JVM exited with code %d" % code)
    if dump and os.path.exists(CDS_ARCHIVE + ".tmp"):
        os.replace(CDS_ARCHIVE + ".tmp", CDS_ARCHIVE)


def main():
    # Terminated, the script still stops the JVM and removes its work files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(ENGINE_SRC):
        fail("engine sources not found at " + os.path.relpath(ENGINE_SRC, os.getcwd()))

    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    env["COURSIER_MODE"] = "offline"
    env.pop("SPARK_LOCAL_DIRS", None)  # Spark's local dirs are then java.io.tmpdir
    if "-Dsbt.offline=true" not in env.get("SBT_OPTS", ""):
        env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " -Dsbt.offline=true").strip()

    digest = source_digest()
    classpath = build(env, digest)
    deadline = time.time() + RUN_TIMEOUT_S

    work = os.path.join(WORK_ROOT, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    raw_path = os.path.join(work, "raw.json")
    try:
        run_jvm(classpath, env, args, work, raw_path, deadline)
        with open(raw_path) as fh:
            raw = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    raw["provenance"].update(git_sha=git_sha(), source_sha256=digest)
    report = stats.report(raw)
    os.makedirs(RESULTS, exist_ok=True)
    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RESULTS, name + ".json"), "w") as fh:
        json.dump(report, fh, indent=1)
    if args.trace:
        with open(os.path.join(RESULTS, name + "-spans.json"), "w") as fh:
            json.dump(raw["spans"], fh)
    print(stats.render(report))
    metrics = report["end_to_end"] if args.trace == 0 else report["per_layer"]
    missing = set(stats.END_TO_END if args.trace == 0 else stats.PER_LAYER) - set(metrics)
    if missing:
        fail("metrics not measured: " + ", ".join(sorted(missing)))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))


if __name__ == "__main__":
    main()

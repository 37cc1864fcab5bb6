#!/usr/bin/env python3
"""SSPPR query benchmark: build once, then run one workload in a fresh JVM.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run compiles the repository's
sources and perfbench's with the Scala compiler that the repository's
build.sbt names (scalaVersion) from the jar directory it names
(unmanagedBase), into .bench_build/perfbench/classes. It runs no sbt and
fetches nothing, so it writes nothing outside the checkout. Later runs
reuse that build while the sources are unchanged. The last line of stdout
is the result object. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
ROOT_BUILD = ROOT / "build.sbt"
# The source directories the root build compiles, plus perfbench's own.
SOURCES = [ROOT / "src/main/scala", ROOT / "jobs", HERE / "src/main/scala"]
JAVA_OPTS = ["-Xms1g", "-Xmx1g", "-XX:+UseG1GC", "-XX:-UsePerfData"]
COMPILE_TIMEOUT_S = 600
RUN_TIMEOUT_S = 175


def source_files():
    return [p for d in SOURCES if d.is_dir() for p in sorted(d.rglob("*"))
            if p.is_file() and p.suffix == ".scala"]


def source_digest():
    """sha256 over the root build file and every source compiled."""
    h = hashlib.sha256()
    for p in [ROOT_BUILD, *source_files()]:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def toolchain():
    """The Scala version and the jar directory the root build.sbt declares,
    and the compiler, library and reflect jars of that version there."""
    text = ROOT_BUILD.read_text()
    version = re.search(r'scalaVersion\s*:=\s*"([^"]+)"', text)
    jars = re.search(r'Compile\s*/\s*unmanagedBase\s*:=\s*file\("([^"]+)"\)', text)
    if not version or not jars:
        sys.exit("perfbench: build.sbt names no scalaVersion or Compile / unmanagedBase")
    version, jars = version.group(1), Path(jars.group(1))
    scala = {k: jars / f"scala-{k}-{version}.jar" for k in ("compiler", "library", "reflect")}
    missing = [str(j) for j in scala.values() if not j.is_file()]
    if missing:
        sys.exit(f"perfbench: Scala {version} jars not found: {', '.join(missing)}")
    return scala, sorted(jars.glob("*.jar"))


def compile_scala(scala, libs, dest, args, tmp):
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           "-cp", os.pathsep.join(map(str, scala.values())), "scala.tools.nsc.Main",
           "-classpath", os.pathsep.join(map(str, libs)), "-d", str(dest), f"@{args}"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=COMPILE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: build exceeded {COMPILE_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: build failed")


def build(digest):
    """Compile unless a build of these exact sources exists; returns the
    runtime classpath. Spark's jars are on the compile classpath only: the
    layers timed here need them just to compile CSRGraph's DataFrame helpers,
    and leaving them off the run keeps their class metadata out of resident_mb."""
    stamp, classes = OUT / "build.sha256", OUT / "classes"
    scala, libs = toolchain()
    cp = os.pathsep.join(map(str, (classes, scala["library"], scala["reflect"])))
    if stamp.is_file() and classes.is_dir() and stamp.read_text() == digest:
        return cp
    stamp.unlink(missing_ok=True)
    fresh, tmp = OUT / "classes.new", OUT / "tmp"
    shutil.rmtree(fresh, ignore_errors=True)
    fresh.mkdir(parents=True)
    tmp.mkdir(parents=True, exist_ok=True)
    args = OUT / "scalac.args"
    args.write_text("\n".join(f'"{p}"' for p in source_files()) + "\n")
    compile_scala(scala, libs, fresh, args, tmp)
    shutil.rmtree(classes, ignore_errors=True)
    fresh.rename(classes)
    stamp.write_text(digest)
    return cp


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    a = ap.parse_args()
    missing = [str(p.relative_to(ROOT)) for p in (ROOT_BUILD, ROOT / "src/main") if not p.exists()]
    if missing:
        sys.exit(f"perfbench: run from the root of a checkout; missing {', '.join(missing)}")
    OUT.mkdir(parents=True, exist_ok=True)
    digest = source_digest()
    cp = build(digest)
    cmd = ["java", *JAVA_OPTS, f"-Djava.io.tmpdir={OUT / 'tmp'}",
           f"-Dperfbench.gitSha={git_sha()}", f"-Dperfbench.sourceSha={digest}",
           f"-Dperfbench.out={OUT}", "-cp", cp, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    try:
        sys.exit(subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds ziggy_daemon and the zbench load generator, then runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload crime-refine --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental, so only the first run pays for compilation. Build output
goes to stderr; stdout carries only zbench's report, whose last line is
the JSON result. Everything after the build is zbench (perfbench/src).
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def cached_value(cache, key):
    prefix = key + ":"
    with open(cache) as f:
        for line in f:
            if line.startswith(prefix):
                return line.split("=", 1)[1].strip()
    return ""


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache) and cached_value(cache, "CMAKE_HOME_DIRECTORY") != HERE:
        shutil.rmtree(build_dir)  # configured for another checkout
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "zbench", "ziggy_daemon",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-1 over the daemon's sources, identifying the code under test
    when the checkout carries no git metadata."""
    h = hashlib.sha1()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("repository sources not found next to perfbench/ (missing %s)" % needed)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    build(build_dir)
    zbench = os.path.join(build_dir, "zbench")
    daemon = os.path.join(build_dir, "ziggy", "ziggy_daemon")
    args = [zbench] + sys.argv[1:] + [
        "--daemon", daemon,
        "--work-root", os.path.join(build_dir, "runs"),
        "--git-sha", git_sha(),
        "--source-digest", source_digest(),
    ]
    sys.stdout.flush()
    os.execv(zbench, args)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload fleet_day --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout. The simulator libraries and the
`perfbench` binary are built from source with CMake (Release) into
`.bench_build/` (or the relative directory named by CARGO_TARGET_DIR);
build output goes to stderr. The binary's standard output is passed
through after its metric names are checked against BENCHMARK.json, so the
last line is the result JSON. Per-run result files, with provenance, and
trace spans land in `<build dir>/results/`.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    rel = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if os.path.isabs(rel) or ".." in rel.split(os.sep):
        rel = ".bench_build"
    return os.path.join(ROOT, rel)


def build(out_dir):
    cmake_dir = os.path.join(out_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(3, "build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "perfbench")


def provenance():
    """`git describe` when the checkout is a git repository, plus a digest
    of the sources the binary is built from (valid without git)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    describe = "no-git"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ,
                   GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        res = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                              "--dirty"], capture_output=True, text=True,
                             env=env)
        if res.returncode == 0:
            describe = res.stdout.strip()
    return f"{describe} src-sha256:{digest.hexdigest()[:16]}"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, f"no simulator sources under {ROOT}/src; run from a full "
                "checkout")
    out_dir = build_dir()
    binary = build(out_dir)
    if "--selfcheck" in argv:
        sys.exit(subprocess.run([binary, "--selfcheck"]).returncode)

    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary] + argv + ["--out", results,
                             "--git-describe", provenance()]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"run exceeded {RUN_TIMEOUT_S}s")
    lines = res.stdout.rstrip("\n").split("\n")
    if res.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(res.stdout)
        fail(res.returncode or 5, "run printed no result")

    result = json.loads(lines[-1])
    trace = argv[argv.index("--trace") + 1:][:1] if "--trace" in argv else []
    expected = expected_metrics(trace not in ([], ["0"]))
    if expected is not None and set(result["metrics"]) != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(5, "metrics differ from BENCHMARK.json: missing "
                f"{sorted(expected - set(result['metrics']))}, extra "
                f"{sorted(set(result['metrics']) - expected)}")
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    sys.exit(res.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])

#!/usr/bin/env python3
"""Build and run the hotpath repository benchmark.

    python3 perfbench/run.py --workload ingest|serve|cluster --seed N \
        --seconds S --trace 0|1 [--tamper-reference 1]

Run from the repository root. The first run configures and builds the
benchmark (Release) and the hotpath libraries it links from ../src
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later runs rebuild only what changed. Build output goes to build.log
in that directory, so the benchmark's own output, whose last line is
the JSON result, is all that reaches stdout. Exits non-zero without a
result when the sources are missing, the build fails or the run does
not finish within RUN_TIMEOUT_S.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def source_digest():
    """sha256 over every file under src/: identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "hotpath_bench", "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log,
                                      stderr=subprocess.STDOUT).returncode
            except OSError as err:
                print(f"perfbench: cannot run {cmd[0]}: {err}",
                      file=sys.stderr)
                return False
            if code != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-4000:]
                print(f"perfbench: build failed:\n{tail}", file=sys.stderr)
                return False
    return True


def main():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no hotpath sources under src/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                         ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    if not build(build_dir):
        return 2
    env = dict(os.environ, HOTPATH_BENCH_SOURCE_DIGEST=source_digest())
    cmd = [str(build_dir / "hotpath_bench"), *sys.argv[1:]]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())

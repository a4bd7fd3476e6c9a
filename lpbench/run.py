#!/usr/bin/env python3
"""Builds the lpmem benchmark from source and runs it.

    python3 lpbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark package builds offline into
$CARGO_TARGET_DIR (default: .bench_build). The lint workload's pinned
sources are extracted from lpbench/corpus/ into that directory before the
run. Build output goes to stderr; the benchmark's report goes to stdout and
ends with one JSON line. Any failure before the run exits non-zero without
a result.
"""

import hashlib
import os
import subprocess
import sys
import tarfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORPUS = os.path.join(HERE, "corpus", "lint-b900095.tar.gz")


def flag(argv, name):
    """The value after `name` in argv, or None."""
    for i, a in enumerate(argv[:-1]):
        if a == name:
            return argv[i + 1]
    return None


def extract_corpus(target):
    """Extracts the pinned lint sources once per archive digest."""
    with open(CORPUS, "rb") as f:
        sha = hashlib.sha256(f.read()).hexdigest()
    out = os.path.join(target, "lint-corpus-" + sha[:16])
    marker = os.path.join(out, ".extracted")
    if not os.path.exists(marker):
        tmp = out + ".tmp"
        if os.path.exists(tmp):
            subprocess.run(["rm", "-rf", tmp], check=True)
        with tarfile.open(CORPUS, "r:gz") as tar:
            tar.extractall(tmp, filter="data")
        if os.path.exists(out):
            subprocess.run(["rm", "-rf", out], check=True)
        os.rename(tmp, out)
        with open(marker, "w") as f:
            f.write(sha + "\n")
    return out


def commit():
    """The checkout's commit, when it is a git work tree of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True, env=env, check=False)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown (not a git checkout)"


def main():
    argv = sys.argv[1:]
    workload, seed = flag(argv, "--workload"), flag(argv, "--seed")
    if workload is None or seed is None:
        print("usage: run.py --workload <name|all> --seed N --seconds S --trace 0|1", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    try:
        corpus = extract_corpus(target)
    except (OSError, tarfile.TarError) as e:
        print(f"run.py: extracting the lint sources failed: {e}", file=sys.stderr)
        return 1
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=False).stdout.strip()
    env.update(LPBENCH_RUSTC=rustc or "unknown", LPBENCH_COMMIT=commit())
    trace_out = os.path.join(target, "lpbench-traces", f"{workload}-seed{seed}.jsonl")
    binary = os.path.join(target, "release", "lpbench")
    run = subprocess.run([binary, *argv, "--corpus", corpus, "--trace-out", trace_out], env=env, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

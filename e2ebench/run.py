#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 e2ebench/run.py --workload mixed --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The Go build cache, the binary and
the traced run's span log all go under the build directory: the
directory CARGO_TARGET_DIR names, relative to the checkout, or
.bench_build when it is unset. Every argument is passed on to the
benchmark binary (see main.go); the binary's exit code is this script's.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def source_id():
    """The git commit when the checkout is a repository, else a hash of
    every Go source and module file, so runs of different code never
    share an identity."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                p = pathlib.Path(dirpath, name)
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def arg(args, name):
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return None


def main():
    build = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = ROOT / build
    env = dict(os.environ)
    env.update(
        GOCACHE=str(build / "go-cache"),
        GOPATH=str(build / "go-path"),
        GOTOOLCHAIN="local",
        XDG_CONFIG_HOME=str(build / "config"),
        XDG_CACHE_HOME=str(build / "cache"),
    )
    binary = build / "e2ebench"
    built = subprocess.run(["go", "build", "-o", str(binary), "."], cwd=HERE, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return built.returncode or 1
    args = sys.argv[1:]
    if arg(args, "--trace") == "1" and arg(args, "--spans") is None:
        args += ["--spans", str(build / "spans-{}.jsonl".format(arg(args, "--workload")))]
    env["E2EBENCH_COMMIT"] = source_id()
    sys.stdout.flush()
    return subprocess.run([str(binary)] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

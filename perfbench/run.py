#!/usr/bin/env python3
"""Build the benchmark and the real rbb-serve daemon from source, then run
one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Both executables are built by one
`cargo build --release` of the package in this directory, into
$CARGO_TARGET_DIR (default: perfbench/target). The workload process then
replaces this one, so the last line on standard output is its result.
Generated inputs, the daemon's socket and the traced run's spans go under
<target>/perfbench-work.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """Digest of every file the build reads, so a run names its code even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    roots = ["crates", "vendor", "perfbench/src"]
    files = ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, root)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.relpath(os.path.join(dirpath, f), ROOT)
                      for f in sorted(filenames)]
    for rel in files:
        path = os.path.join(ROOT, rel)
        if os.path.isfile(path):
            h.update(rel.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main(argv):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(HERE, "target"))
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml"),
             "-p", "perfbench", "-p", "rbb-serve"]
    # Cargo's own output goes to stderr: stdout carries only the result.
    status = subprocess.run(build, stdout=sys.stderr).returncode
    if status != 0:
        print(f"run.py: build failed ({status})", file=sys.stderr)
        return status or 1
    exe = os.path.join(target, "release", "perfbench")
    # Relative, so the daemon's socket path stays short.
    work = os.path.relpath(os.path.join(target, "perfbench-work"))
    provenance = (f"commit={git_commit()} source={source_digest()} "
                  "profile=release(debug=true)")
    args = [exe] + argv + ["--work-dir", work,
                           "--serve-bin", os.path.join(target, "release", "rbb-serve"),
                           "--build", provenance]
    sys.stdout.flush()
    os.execv(exe, args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

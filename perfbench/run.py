#!/usr/bin/env python3
"""Build the benchmark and `bq-serve` from source, then run one benchmark run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout of the repository. Both binaries are built
in release mode into $CARGO_TARGET_DIR (default `.bench_build`); build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. Artifacts (host conditions, spans) go to
`.bench_out/`.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        print("perfbench: no repository checkout around %s (crates/ not found)" % HERE,
              file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "bq-wire", "--bin", "bq-serve"],
    ]
    for command in builds:
        built = subprocess.run(command, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print("perfbench: build failed: %s" % " ".join(command), file=sys.stderr)
            return built.returncode or 1
    release = os.path.join(target, "release")
    command = [os.path.join(release, "perfbench"), *sys.argv[1:],
               "--serve-bin", os.path.join(release, "bq-serve"),
               "--out", os.path.join(ROOT, ".bench_out")]
    # The benchmark and every bq-serve it spawns share one process group,
    # so no server outlives the run, however the run ends.
    child = subprocess.Popen(command, env=env, start_new_session=True)

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait()
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()


if __name__ == "__main__":
    sys.exit(main())

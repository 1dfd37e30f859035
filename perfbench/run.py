#!/usr/bin/env python3
"""Build and run the PEACE benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/peacebench.exe from the repository sources with dune,
then runs it with the same arguments. The last line of standard output is
the run's JSON result; the exit code is the benchmark's (non-zero when a
correctness check failed or the build was impossible).
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "peacebench.exe")
RUN_TIMEOUT_S = 170


def main():
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} not found under {ROOT}: the benchmark needs "
                  "the repository sources next to it", file=sys.stderr)
            return 2
    env = dict(os.environ)
    # keep every build artefact inside the checkout
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/peacebench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    # its own process group, so a timeout also stops the server child
    proc = subprocess.Popen([EXE] + sys.argv[1:], cwd=ROOT, env=env,
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

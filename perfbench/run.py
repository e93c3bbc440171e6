#!/usr/bin/env python3
"""Build the vmor benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload reduce|transient --seed N \
        --seconds S --trace 0|1

Run from the repository root. The harness (perfbench/main.exe) is built
with dune, runs the workload and prints a human report on stderr and a
JSON result as the last line of stdout. This wrapper checks that the
result names exactly the metrics BENCHMARK.json declares before passing
it on.
"""

import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    args = sys.argv[1:]
    try:
        trace = args[args.index("--trace") + 1]
    except (ValueError, IndexError):
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the repository root: %s is missing" % needed)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    # The shared dune cache lives outside the checkout; keep every write
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")
    # One core for the whole run: on a shared two-core host the
    # lowest-numbered core also serves interrupts and the rest of the
    # container, and a request's time there wanders by a third from one
    # second to the next.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True,
                         env=env, timeout=RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("harness exited with code %d" % run.returncode)
    result = json.loads(lines[-1])
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared_metrics(trace):
        fail("printed metrics differ from BENCHMARK.json")
    print(run.stdout, end="", flush=True)


if __name__ == "__main__":
    main()

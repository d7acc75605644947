#!/usr/bin/env python3
"""The repository benchmark: the paper protocol end to end, split by layer.

    python3 repobench/run.py --workload protocol|materialize|distributed|service
                             --seed N --seconds S --trace 0|1

Builds the kronotri library, CLI and the repobench binary from the sources
of this checkout into .bench_build/ (CMake, Release), then runs one workload
for S seconds. Every process the benchmark starts gets OMP_NUM_THREADS =
min(nproc, 4). With --trace 0 the last stdout line holds the end-to-end
metrics, with --trace 1 the per-layer metrics and a Chrome trace in
.bench_run/. The line before it is !!PASSED!! or FAILED.

Workload seeds: 0 is the default (the generator seed of
examples/plans/paper_table6.json); 7 is held out for confirming a claim.
--smoke shrinks every product for the benchmark's own tests
(repobench/test_repobench.py); --perturb CHECK makes one correctness check
compare against a wrong expectation, to show that it trips.
"""
import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
DEFAULT_SEED = 0
HELDOUT_SEED = 7
RUN_LIMIT_S = 170  # the benchmark run itself, after any build


def log(*parts):
    print("repobench:", *parts, file=sys.stderr, flush=True)


def build():
    """Configures once and builds the benchmark target; True on success."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "repobench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "repobench", "-j",
                  jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("build step failed:", " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["protocol", "materialize", "distributed",
                                 "service"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--perturb", default="")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no kronotri sources next to", os.path.join(ROOT, "repobench"))
        return 2
    if not build():
        return 2

    cmd = [os.path.join(BUILD, "repobench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    sys.stdout.flush()
    # Own process group, so a run past its limit takes its daemons,
    # agents and workers down with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded", RUN_LIMIT_S, "s; stopping it")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3
    finally:
        # Anything left in the group (a daemon whose parent died) goes too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


if __name__ == "__main__":
    sys.exit(main())

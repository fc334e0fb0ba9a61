"""One cold start for setup_s: import hydroham in a fresh interpreter, build a
workload's inputs, and print time.monotonic() (system-wide on Linux, so the
parent can subtract the moment it spawned this process).  Then time the
calibration kernel in this process, on whichever core it ran, and print that
too, so the parent can normalize the cold start."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    import workloads

    workloads.build_inputs(args.workload, args.seed, args.workdir)
    done = time.monotonic()
    import calibrate

    kernel = statistics.median(calibrate.kernel_seconds() for _ in range(3))
    print(done, kernel)


if __name__ == "__main__":
    main()

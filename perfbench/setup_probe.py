"""One set-up measurement in a fresh process.

Times what a new ``helly-topo sweep`` process pays before its first trial
is warm: the package import (numpy is most of it), the ambient build that
the first family triggers, and one untimed warm-up trial.  Reference-kernel
runs before and after it calibrate the time (see calibration.py).  Prints
``{"calibrated_s": ..., "raw_s": ...}`` as the last line of stdout.

    python3 perfbench/setup_probe.py --workload breen-union
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import calibration  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    try:
        workloads.import_package()
    except workloads.SourceMissing as exc:
        print(f"setup_probe: {exc}", file=sys.stderr)
        return 2
    run = workloads.trial_runner(workloads.WORKLOADS[args.workload])
    run(workloads.WARMUP_SEED)
    raw = time.perf_counter() - START
    # After the set-up, so that the kernel's own time is not counted in it.
    reference = statistics.median(calibration.reference_seconds() for _ in range(5))
    print(json.dumps({"calibrated_s": raw * calibration.NOMINAL_S / reference, "raw_s": raw}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

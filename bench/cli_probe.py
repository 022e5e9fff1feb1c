"""Run the package's CLI as `python -m untangling.cli ARGS...` would, with
the speed meter's timer on, for the `cli_cold_ms` metric.

    python3 bench/cli_probe.py REPORT ARGS...

The CLI's output and exit code are its own.  REPORT receives, as JSON, the
kernel samples taken while the process ran and the time spent in the meter,
so that the caller can take that time out of the process's wall time and
scale the rest to reference speed (see speed.py).
"""

import json
import runpy
import sys
import time

import speed


def main() -> None:
    t0 = time.perf_counter()
    meter = speed.SpeedMeter()
    warm_s = time.perf_counter() - t0
    report, sys.argv = sys.argv[1], [sys.argv[0]] + sys.argv[2:]
    meter.start()
    try:
        runpy.run_module("untangling.cli", run_name="__main__", alter_sys=True)
    finally:
        meter.stop()
        with open(report, "w", encoding="utf-8") as fh:
            json.dump({"samples": meter.samples, "meter_s": warm_s + sum(meter.samples)}, fh)


if __name__ == "__main__":
    main()

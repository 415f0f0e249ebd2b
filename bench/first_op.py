"""Time one fresh interpreter from before ``import bhqc`` to the end of one operation.

Usage: ``python3 first_op.py SRC_DIR ARG...`` runs ``bhqc.cli.main([ARG...])``
with bhqc imported from SRC_DIR, and prints ``{"seconds", "calibration", "rc",
"out"}`` as JSON, where ``calibration`` is the time of the speed kernel around
the measurement.  Work that bhqc moves from import into its first call still
counts.
"""

import contextlib
import io
import json
import statistics
import sys
import time

from speed import calibrate


def main() -> None:
    src, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    out = io.StringIO()
    before = statistics.median(calibrate() for _ in range(9))
    t0 = time.perf_counter()
    import bhqc.cli
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = bhqc.cli.main(argv)
    seconds = time.perf_counter() - t0
    calibration = (before + statistics.median(calibrate() for _ in range(9))) / 2
    json.dump({"seconds": seconds, "calibration": calibration, "rc": rc,
               "out": out.getvalue()}, sys.stdout)


if __name__ == "__main__":
    main()

"""Time the stages of one CLI process: numpy import, entrokit import, main().

Run as `python3 bench/cli_probe.py <entrokit cli arguments>` with `src` on
PYTHONPATH.  Prints one JSON object with the three timings and the CLI's
exit code and stdout.
"""

import contextlib
import io
import json
import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
from entrokit import cli  # noqa: E402

t2 = time.perf_counter()
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = cli.main(sys.argv[1:])
t3 = time.perf_counter()
print(json.dumps({"import_numpy_s": t1 - t0, "import_entrokit_s": t2 - t1,
                  "main_us": (t3 - t2) * 1e6, "code": code, "stdout": buf.getvalue()}))

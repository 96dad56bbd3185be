"""Set-up probe: times `import potts1d` and the first request in a fresh
interpreter, so interpreter start-up itself is left out.

    python3 benchmarks/coldstart.py '<argv as a JSON list>'

Prints one JSON object: import_s, request_s, rc and the request's stdout.
The potts1d package must be importable (run.py puts src/ on PYTHONPATH).
"""

import contextlib
import io
import json
import sys
import time

argv = json.loads(sys.argv[1])
t0 = time.perf_counter()
import potts1d.cli  # noqa: E402  (the import is what is being timed)

t1 = time.perf_counter()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = potts1d.cli.main(argv)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "request_s": t2 - t1, "rc": rc, "stdout": out.getvalue()}))

"""One untraced CLI invocation in a fresh interpreter.

Usage: python3 child.py REPORT_PATH ARGV_JSON

``import postselect.cli`` comes first, so the load generator can take the
set-up time from its own clock at spawn to the ``ready`` stamp written here
(``time.perf_counter`` is system-wide monotonic on Linux).  ``wall`` covers
``postselect.cli.main`` up to all output written and stdout flushed.
With ARGV_JSON empty the child only imports, to sample set-up time.

``peak_rss_mb`` is the larger of this process's own high-water mark
(``VmHWM``) and its reaped pool workers' maximum RSS.  The rusage that
``os.wait4`` returns would not do: Linux carries the RSS of the process that
spawned the child into the child's ``ru_maxrss`` at exec.
"""

import sys
import time

import postselect.cli

ready = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        own_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, workers_kb) / 1024.0


report_path, argv_json = sys.argv[1], sys.argv[2]
code, wall = 0, 0.0
if argv_json:
    t0 = time.perf_counter()
    code = postselect.cli.main(json.loads(argv_json))
    sys.stdout.flush()
    wall = time.perf_counter() - t0
with open(report_path, "w", encoding="utf-8") as fh:
    json.dump({"ready": ready, "wall": wall, "code": code, "peak_rss_mb": peak_rss_mb()}, fh)
sys.exit(code)

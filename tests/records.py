"""The output of the record scripts, written once.

Each record script (classify_scaling.py, route_agreement.py,
in_slice_record.py, module_counts.py, approx_record.py, corner_record.py)
builds one record per size, whose "times" field is its only
host-dependent part, and hands the records to emit.  --deterministic prints one sort-keyed JSON line per
record, the record without its times: what CI diffs against a golden
file.  Otherwise emit prints the full record, whose "command" is the
command line it was run with.  Standard library only, and not collected
by pytest.
"""

import json
import os
import platform
import shlex
import sys

NOTE = "every field but times is independent of the host"


def command():
    """The command line this run was started with, its PYTHONPATH and
    warning options included."""
    path = os.environ.get("PYTHONPATH")
    prefix = ["PYTHONPATH=" + path] if path else []
    warn = [a for w in sys.warnoptions for a in ("-W", w)]
    return shlex.join(prefix + ["python"] + warn + sys.argv)


def emit(records, deterministic, failed=False, note=NOTE):
    """Print the records, one line each without their times when
    deterministic, else in full; then exit with status failed."""
    if deterministic:
        for r in records:
            del r["times"]
            print(json.dumps(r, sort_keys=True))
    else:
        print(json.dumps({
            "command": command(),
            "host": {"python": platform.python_version(),
                     "nproc": os.cpu_count()},
            "note": note,
            "records": records,
        }, indent=1))
    sys.exit(failed)

#!/usr/bin/env python3
"""The benchmark's own tests: its output checks pass on working code and
the version checks fail when the program is broken on purpose.

    python3 leasebench/selftest.py

Builds the harness like run.py, then runs write_fanout and
tcp_invalidate twice for a short while: once as they are (every check
must pass) and once with ProtocolConfig::faultInjectIgnoreInvalidations
set, so clients acknowledge invalidations but keep serving the old copy
(the harness's version checks must fail). Exits 0 when every
expectation holds.
"""
import subprocess
import sys

import run

SECONDS = 1
CONTROLS = ("write_fanout", "tcp_invalidate")
# Substrings of the harness's version-check failures (one per workload).
VERSION_CHECKS = ("older than one committed", "saw a version other than")


def main():
    harness = run.build()
    ok = True
    for workload in CONTROLS:
        for broken in (False, True):
            label = "ignore-invalidations" if broken else "as built"
            extra = ["--ignore-invalidations"] if broken else []
            result, proc = run.run_harness(harness, workload, seed=1,
                                           seconds=SECONDS, trace=0,
                                           extra=extra, timeout=170,
                                           stderr=subprocess.PIPE)
            if proc.returncode != 0 or result is None:
                print(f"FAIL {workload} ({label}): exit {proc.returncode},"
                      " no result")
                ok = False
                continue
            version_failed = any(s in proc.stderr for s in VERSION_CHECKS)
            if broken:
                passed = not result["correct"] and version_failed
            else:
                passed = result["correct"] and result["failed"] == 0
            print(f"{'ok  ' if passed else 'FAIL'} {workload} ({label}): "
                  f"correct={result['correct']}, "
                  f"version check failed={version_failed}")
            if not passed:
                print(proc.stderr, end="")
            ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

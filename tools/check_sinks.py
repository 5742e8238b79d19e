#!/usr/bin/env python3
"""Run a binary with all three exit sinks armed and check their documents.

TILUS_TRACE, TILUS_METRICS and TILUS_PROFILE each name a file that the
process writes once at exit through the shared sink in src/obs/sink.h.
This runs BINARY with all three armed at once, requires every file to
exist and parse as JSON, and checks one fact per document:

  * metrics: counters.compiler_compiles_total >= 1;
  * profile: schema == "tilus-profile-v1";
  * trace:   a non-empty traceEvents array.

Usage:
  check_sinks.py --run BINARY    # e.g. ./build/bench_profile
"""

import json
import os
import subprocess
import sys
import tempfile


def fail(msg):
    print(f"check_sinks: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(var, path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{var} document {path} is not readable as JSON: {e}")


def run_and_check(binary):
    with tempfile.TemporaryDirectory(prefix="tilus_check_sinks_") as tmp:
        paths = {var: os.path.join(tmp, name) for var, name in (
            ("TILUS_TRACE", "trace.json"),
            ("TILUS_METRICS", "metrics.json"),
            ("TILUS_PROFILE", "profile.json"))}
        env = dict(os.environ)
        env.update(paths)
        proc = subprocess.run([binary], env=env,
                              stdout=subprocess.DEVNULL, timeout=540)
        if proc.returncode != 0:
            fail(f"{binary} exited with {proc.returncode}")
        docs = {var: load(var, path) for var, path in paths.items()}

    compiles = docs["TILUS_METRICS"].get("counters", {}).get(
        "compiler_compiles_total", 0)
    if not isinstance(compiles, int) or compiles < 1:
        fail(f"metrics counters.compiler_compiles_total is {compiles!r}, "
             "want >= 1")
    schema = docs["TILUS_PROFILE"].get("schema")
    if schema != "tilus-profile-v1":
        fail(f"profile schema is {schema!r}, want 'tilus-profile-v1'")
    events = docs["TILUS_TRACE"].get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("trace traceEvents is missing or empty")
    print(f"check_sinks: OK: {compiles} compiles, "
          f"{len(docs['TILUS_PROFILE'].get('profiles', []))} profile(s), "
          f"{len(events)} trace events")


def main(argv):
    if len(argv) == 3 and argv[1] == "--run":
        run_and_check(argv[2])
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main(sys.argv)

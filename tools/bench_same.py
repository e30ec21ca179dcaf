#!/usr/bin/env python3
"""Check that two BENCH.json files agree apart from their wall-clock fields.

    python3 tools/bench_same.py A.json B.json

Drops `total_seconds`, `domains`, `sections[].seconds` and
`attrib_overhead[].seconds_*` from both records; everything left (the
section list, the FS counts, the model-vs-simulator numbers, the exact
and schedule statistics) must be equal.  `make bench-smoke` runs the
quick harness at two job counts and compares them with this script.
Exit status: 0 when the records agree, 1 otherwise (each differing key
is named).  Only the Python standard library is used.
"""

import json
import sys


def counts(path):
    with open(path) as f:
        record = json.load(f)
    record.pop("total_seconds", None)
    record.pop("domains", None)
    for section in record.get("sections", []):
        section.pop("seconds", None)
    for row in record.get("attrib_overhead", []):
        for key in [k for k in row if k.startswith("seconds_")]:
            del row[key]
    return record


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = (counts(p) for p in sys.argv[1:])
    differ = [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
    for key in differ:
        print(f"BENCH.json records differ in {key!r}", file=sys.stderr)
    if differ:
        sys.exit(1)
    print("BENCH.json records agree apart from wall-clock fields")


if __name__ == "__main__":
    main()

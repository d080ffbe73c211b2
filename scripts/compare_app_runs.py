#!/usr/bin/env python3
"""Compare the app binaries of two builds on every app invocation in ci.sh.

    scripts/compare_app_runs.py <base-bin-dir> <new-bin-dir>

Run from the repo root (the invocations read configs/). Each invocation
runs once per build. They must agree on the exit code and on stdout,
apart from timing: `MainLoop TotalTime` and the breakdown's seconds, %,
GB/s and GFLOP/s (kernel rows are ordered by time, so they are compared
as a set of (name, calls)). A `--telemetry` stream must carry the same
header fields, the same multiset of (type, name, path, depth) events,
footer kernels equal in (name, class, calls, bytes, flops), and the
same key orders for each record type (and for kernel rows and footer
histograms), so a writer that reorders a record's fields shows. A
`--record-schedule` trace must be byte-identical. Exits 1 on any
difference.
"""
import collections
import json
import os
import re
import subprocess
import sys
import tempfile

INVOCATIONS = [
    ["fempic", "--validate"],
    ["fempic", "configs/fempic_small.cfg", "--validate"],
    ["cabana", "--validate"],
    ["cabana", "configs/cabana_two_stream.cfg", "--validate"],
    ["fempic", "configs/fempic_coloring.cfg", "--validate"],
    ["cabana", "configs/cabana_sorted.cfg", "--validate"],
    ["fempic", "--validate", "--telemetry", "{out}/run.jsonl"],
    ["cabana", "--validate", "--telemetry", "{out}/run.jsonl"],
    ["fempic", "--telemetry", "{out}/run.jsonl"],
    ["cabana", "--telemetry", "{out}/run.jsonl"],
    ["fempic", "--record-schedule", "{out}/schedule.json"],
    ["cabana", "--record-schedule", "{out}/schedule.json"],
    ["fempic", "configs/fempic_obs.cfg", "--flight-recorder", "{out}/fr.opfr",
     "--metrics-dump", "{out}/m.prom", "--watchdog"],
    ["fempic", "configs/fempic_obs.cfg", "--flight-recorder", "{out}/fr.opfr",
     "--metrics-dump", "{out}/m.prom", "--watchdog", "--obs-inject-stall", "30"],
    ["cabana", "configs/cabana_two_stream.cfg", "--flight-recorder", "{out}/fr.opfr",
     "--metrics-dump", "{out}/m.prom", "--watchdog"],
]

# name, class (when the table has that column), calls, seconds, share.
KERNEL_ROW = re.compile(r"^(\S+)\s+(?:[A-Za-z-]\S*\s+)?(\d+)\s+[\d.]+\s+[\d.]+%")


def normalise_stdout(text):
    """Drop timing fields; kernel rows become a sorted (name, calls) set."""
    lines, rows = [], []
    for line in text.splitlines():
        if line.startswith("MainLoop TotalTime"):
            lines.append("MainLoop TotalTime = <t>")
        elif line.startswith("TOTAL "):
            lines.append("TOTAL <t>")
        elif (m := KERNEL_ROW.match(line)) and "counters" not in line:
            rows.append(f"{m.group(1)} {m.group(2)}")
        else:
            lines.append(line)
    return lines + sorted(rows)


def digest_stream(path):
    header, footer, events = None, None, collections.Counter()
    key_orders = collections.defaultdict(set)
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            kind = rec.get("type")
            key_orders[kind].add(tuple(rec))
            for row in rec.get("kernels", []):
                key_orders["kernel row"].add(tuple(row))
            for hist in rec.get("histograms", {}).values():
                key_orders["histogram"].add(tuple(hist))
            if kind == "run_header":
                header = rec
            elif kind == "run_footer":
                footer = rec
            else:
                events[(kind, rec.get("name"), rec.get("path"), rec.get("depth"))] += 1

    def kernels(rec):
        return sorted(
            (k["name"], k["class"], k["calls"], k["bytes"], k["flops"])
            for k in (rec or {}).get("kernels", [])
        )

    fields = {k: v for k, v in (header or {}).items() if k != "kernels"}
    return {
        "header": fields,
        "header_kernels": kernels(header),
        "events": sorted(events.items(), key=repr),
        "footer_kernels": kernels(footer),
        "key_orders": sorted((k, sorted(v)) for k, v in key_orders.items()),
    }


def run(bin_dir, argv):
    with tempfile.TemporaryDirectory() as out:
        args = [os.path.join(bin_dir, argv[0])] + [a.format(out=out) for a in argv[1:]]
        p = subprocess.run(args, capture_output=True, text=True)
        result = {"exit": p.returncode, "stdout": normalise_stdout(p.stdout.replace(out, "<out>"))}
        if os.path.exists(f"{out}/run.jsonl"):
            result["telemetry"] = digest_stream(f"{out}/run.jsonl")
        if os.path.exists(f"{out}/schedule.json"):
            with open(f"{out}/schedule.json") as f:
                result["schedule"] = f.read()
        return result


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base_dir, new_dir = sys.argv[1:]
    failed = 0
    for argv in INVOCATIONS:
        base, new = run(base_dir, argv), run(new_dir, argv)
        diffs = [k for k in sorted(set(base) | set(new)) if base.get(k) != new.get(k)]
        label = " ".join(argv)
        if diffs:
            failed += 1
            print(f"DIFF  {label}: {', '.join(diffs)}")
            for k in diffs:
                if k == "stdout":
                    for a, b in zip(base[k] + [""] * len(new[k]), new[k] + [""] * len(base[k])):
                        if a != b:
                            print(f"      base: {a!r}\n      new:  {b!r}")
                            break
                else:
                    print(f"      base: {str(base.get(k))[:300]}\n      new:  {str(new.get(k))[:300]}")
        else:
            print(f"same  {label} (exit {base['exit']})")
    print(f"{len(INVOCATIONS) - failed}/{len(INVOCATIONS)} invocations agree")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Validates a Chrome trace-event JSON file produced by adm-trace.

Checks, in order:
  1. the file parses as JSON and has the expected top-level shape
     (traceEvents list, otherData with counters/histograms);
  2. every complete ("X") event carries ph/name/pid/tid/ts/dur with
     ts >= 0 and dur >= 0;
  3. events are balanced: within one (pid, tid) lane, spans are either
     disjoint or properly nested — a partial overlap means an enter/exit
     pair was lost;
  4. a root "pipeline" span exists and covers >= 95% of the run's wall
     time (the span-coverage acceptance bar for the exporter);
  5. every "merge.node" span (one per internal node of the tree-parallel
     merge reduction, on a per-worker lane) lies entirely inside some
     "phase.merge" interval — merge work must never leak outside the
     merge phase.

With --serve the trace is a job-server export (`admeshd`): instead of
the pipeline root-coverage bar, the validator requires `serve.request`
spans on the admission lane (pid 0, tid 128), keeps `serve.mesh_job` /
`serve.cache_load` spans on worker lanes (tid >= 129), and checks the
`serve.*` counter accounting identities (every admitted request is
exactly one of hit / coalesced / rejected / error / scheduled, and
every completed job came from disk or a mesh run).

Usage: validate_trace.py <trace.json> [--min-coverage 0.95] [--serve]
"""

import json
import sys

REQUIRED_X_FIELDS = ("ph", "name", "pid", "tid", "ts", "dur")

# Counters published by the adm-geom predicate-stats registry. Any
# counter in the `geom.` namespace must come from this set — a stray
# name means a publish()/validator mismatch — and carry a non-negative
# integer value. Each counts the calls one rung of the adaptive ladder
# settled.
KNOWN_GEOM_COUNTERS = {
    "geom.orient2d.stage_a",
    "geom.orient2d.stage_b",
    "geom.orient2d.stage_c",
    "geom.orient2d.exact",
    "geom.incircle.stage_a",
    "geom.incircle.stage_b",
    "geom.incircle.stage_c",
    "geom.incircle.exact",
}


def check_geom_counters(counters):
    for name, value in counters.items():
        if not name.startswith("geom."):
            continue
        if name not in KNOWN_GEOM_COUNTERS:
            fail(
                f"unknown geom.* counter {name!r} "
                f"(update KNOWN_GEOM_COUNTERS if publish() grew a name)"
            )
        if not isinstance(value, int) or value < 0:
            fail(f"counter {name!r} has non-count value {value!r}")


# Counters published by the adm-serve job server. Mirrors the geom set:
# any `serve.` counter must come from here, and the accounting
# identities below must hold on any quiesced (post-shutdown) trace.
KNOWN_SERVE_COUNTERS = {
    "serve.requests",       # admissions attempted (wire or in-process)
    "serve.hits_mem",       # answered from the memory LRU
    "serve.hits_disk",      # answered from a verified shard set
    "serve.coalesced",      # attached to an identical in-flight job
    "serve.rejected",       # bounded-queue Busy rejections
    "serve.errors",         # uncacheable/bad requests at admission
    "serve.sched",          # jobs entered into the priority queue
    "serve.mesh_jobs",      # jobs that actually ran the pipeline
    "serve.mesh_triangles", # triangles produced by mesh jobs
    "serve.job_failures",   # mesh jobs that panicked
    "serve.completed",      # jobs finished (disk hit or mesh run)
    "serve.cache_bad",      # corrupt disk entries purged (re-meshed)
    "serve.disconnects",    # tickets dropped before taking a response
    "serve.conns",          # TCP connections accepted
    "serve.conn_rejected",  # TCP connections shed at the conn cap
    "serve.conn_aborted",   # TCP connections dropped mid-command
    "serve.wire_errors",    # malformed wire payloads (pre-admission)
}

SERVE_FRONT_TID = 128
SERVE_WORKER_TID0 = 129


def check_serve_counters(counters):
    c = {}
    for name, value in counters.items():
        if not name.startswith("serve."):
            continue
        if name not in KNOWN_SERVE_COUNTERS:
            fail(
                f"unknown serve.* counter {name!r} "
                f"(update KNOWN_SERVE_COUNTERS if the server grew a name)"
            )
        if not isinstance(value, int) or value < 0:
            fail(f"counter {name!r} has non-count value {value!r}")
        c[name] = value
    get = lambda n: c.get(n, 0)
    # Every admitted request took exactly one admission path.
    paths = (
        get("serve.hits_mem")
        + get("serve.coalesced")
        + get("serve.rejected")
        + get("serve.errors")
        + get("serve.sched")
    )
    if get("serve.requests") != paths:
        fail(
            f"serve.requests ({get('serve.requests')}) != sum of admission "
            f"outcomes ({paths}): an admission path is missing its counter"
        )
    # Every completed job came from disk or a mesh run, and nothing
    # completed that was never scheduled.
    done = get("serve.hits_disk") + get("serve.mesh_jobs")
    if get("serve.completed") != done:
        fail(
            f"serve.completed ({get('serve.completed')}) != hits_disk + "
            f"mesh_jobs ({done})"
        )
    if get("serve.sched") < get("serve.completed"):
        fail(
            f"serve.completed ({get('serve.completed')}) exceeds "
            f"serve.sched ({get('serve.sched')})"
        )
    if get("serve.job_failures") > get("serve.mesh_jobs"):
        fail("serve.job_failures exceeds serve.mesh_jobs")
    return c


def check_serve_spans(complete):
    front = [e for e in complete if e["name"] == "serve.request"]
    if not front:
        fail("--serve: no serve.request spans found")
    for e in front:
        if (e["pid"], e["tid"]) != (0, SERVE_FRONT_TID):
            fail(
                f"serve.request span on lane (pid {e['pid']}, tid "
                f"{e['tid']}); admission records only on tid {SERVE_FRONT_TID}"
            )
    workers = [
        e for e in complete if e["name"] in ("serve.mesh_job", "serve.cache_load")
    ]
    for e in workers:
        if e["pid"] != 0 or e["tid"] < SERVE_WORKER_TID0:
            fail(
                f"{e['name']!r} span on lane (pid {e['pid']}, tid {e['tid']}); "
                f"executor spans live on tid >= {SERVE_WORKER_TID0}"
            )
    return len(front), len(workers)


def fail(msg):
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_balanced(lane_events):
    """Spans in one lane must nest: sort by (ts, -dur) and keep a stack of
    open intervals; each new span must fit entirely inside the innermost
    interval that contains its start."""
    lane_events.sort(key=lambda e: (e["ts"], -e["dur"]))
    stack = []  # end timestamps of open enclosing spans
    for e in lane_events:
        start, end = e["ts"], e["ts"] + e["dur"]
        while stack and start >= stack[-1] - 1e-9:
            stack.pop()
        if stack and end > stack[-1] + 1e-9:
            fail(
                f"unbalanced span {e['name']!r} on lane "
                f"(pid {e['pid']}, tid {e['tid']}): [{start}, {end}] "
                f"overlaps its enclosing span ending at {stack[-1]}"
            )
        stack.append(end)


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    min_coverage = 0.95
    serve_mode = False
    for a in sys.argv[1:]:
        if a.startswith("--min-coverage"):
            min_coverage = float(a.split("=", 1)[1])
        elif a == "--serve":
            serve_mode = True
    if len(args) != 1:
        fail(
            "usage: validate_trace.py <trace.json> "
            "[--min-coverage=0.95] [--serve]"
        )

    try:
        with open(args[0], "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {args[0]}: {e}")

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")
    other = doc.get("otherData")
    if not isinstance(other, dict):
        fail("otherData missing")
    for key in ("counters", "histograms"):
        if not isinstance(other.get(key), dict):
            fail(f"otherData.{key} missing")
    check_geom_counters(other["counters"])
    serve_counters = check_serve_counters(other["counters"])

    complete = []
    for e in events:
        ph = e.get("ph")
        if ph == "M":
            continue
        if ph != "X":
            fail(f"unexpected event phase {ph!r} (only X and M are emitted)")
        for field in REQUIRED_X_FIELDS:
            if field not in e:
                fail(f"X event missing {field!r}: {e}")
        if not isinstance(e["name"], str) or not e["name"]:
            fail(f"X event with empty name: {e}")
        if e["ts"] < 0:
            fail(f"negative ts on {e['name']!r}")
        if e["dur"] < 0:
            fail(f"negative dur on {e['name']!r}")
        complete.append(e)
    if not complete:
        fail("no complete (X) events in trace")

    lanes = {}
    for e in complete:
        lanes.setdefault((e["pid"], e["tid"]), []).append(e)
    for lane in lanes.values():
        check_balanced(lane)

    merge_phases = [
        (e["ts"], e["ts"] + e["dur"]) for e in complete if e["name"] == "phase.merge"
    ]
    merge_nodes = [e for e in complete if e["name"] == "merge.node"]
    for e in merge_nodes:
        start, end = e["ts"], e["ts"] + e["dur"]
        if not any(
            start >= p0 - 1e-9 and end <= p1 + 1e-9 for (p0, p1) in merge_phases
        ):
            fail(
                f"merge.node span [{start}, {end}] on lane "
                f"(pid {e['pid']}, tid {e['tid']}) lies outside every "
                f"phase.merge interval"
            )

    # Adaptation-loop nesting (checked only when the trace has adapt
    # spans): cycles are sequential, so adapt.cycle spans must be
    # pairwise disjoint, and every adapt.stage.* span must lie entirely
    # inside some adapt.cycle interval — a stage outside its cycle means
    # the driver's span pairing broke.
    cycles = sorted(
        (e["ts"], e["ts"] + e["dur"]) for e in complete if e["name"] == "adapt.cycle"
    )
    for (a0, a1), (b0, b1) in zip(cycles, cycles[1:]):
        if b0 < a1 - 1e-9:
            fail(
                f"adapt.cycle spans overlap: [{a0}, {a1}] and [{b0}, {b1}] "
                f"(cycles must run sequentially)"
            )
    stages = [e for e in complete if e["name"].startswith("adapt.stage.")]
    if stages and not cycles:
        fail("adapt.stage.* spans present without any adapt.cycle span")
    for e in stages:
        start, end = e["ts"], e["ts"] + e["dur"]
        if not any(start >= c0 - 1e-9 and end <= c1 + 1e-9 for (c0, c1) in cycles):
            fail(
                f"{e['name']!r} span [{start}, {end}] lies outside every "
                f"adapt.cycle interval"
            )

    if serve_mode:
        n_front, n_exec = check_serve_spans(complete)
        if not serve_counters:
            fail("--serve: no serve.* counters in otherData")
        print(
            f"validate_trace: OK (serve): {len(complete)} spans on "
            f"{len(lanes)} lanes, {n_front} serve.request spans, "
            f"{n_exec} executor spans, "
            f"{len(serve_counters)} serve counters consistent "
            f"({serve_counters.get('serve.requests', 0)} requests, "
            f"{serve_counters.get('serve.mesh_jobs', 0)} mesh jobs)"
        )
        return

    t0 = min(e["ts"] for e in complete)
    t1 = max(e["ts"] + e["dur"] for e in complete)
    wall = t1 - t0
    roots = [e for e in complete if e["name"] == "pipeline"]
    if not roots:
        fail("no root 'pipeline' span found")
    coverage = max(e["dur"] for e in roots) / wall if wall > 0 else 1.0
    if coverage < min_coverage:
        fail(
            f"root span covers {coverage:.1%} of wall time "
            f"(< {min_coverage:.0%})"
        )

    print(
        f"validate_trace: OK: {len(complete)} spans on {len(lanes)} lanes, "
        f"{len(other['counters'])} counters, "
        f"{len(other['histograms'])} histograms, "
        f"{len(merge_nodes)} merge.node spans inside phase.merge, "
        f"{len(cycles)} adapt.cycle spans ({len(stages)} nested stages), "
        f"root coverage {coverage:.1%}"
    )


if __name__ == "__main__":
    main()

"""Per-span statistics of a Chrome trace-event file written by `airfedga_cli --trace`.

A span's self time is its duration minus the part of its interval that its
child spans cover. Children are the spans nested inside it on the same
thread (spans of one thread nest strictly, since each is recorded by an
RAII scope). Times are handled in integer nanoseconds: the trace prints
microseconds with three decimals.
"""

import json
from collections import defaultdict


def _ns(us):
    return int(round(float(us) * 1000.0))


def span_stats(events):
    """Returns {name: {"count", "total_ns", "self_ns"}} over the "X" spans of `events`."""
    by_tid = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            begin = _ns(e["ts"])
            by_tid[e["tid"]].append((begin, begin + _ns(e["dur"]), e["name"]))

    stats = defaultdict(lambda: {"count": 0, "total_ns": 0, "self_ns": 0})
    for spans in by_tid.values():
        # Parents sort before their children: earlier start first, and at
        # equal starts the longer span first.
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []  # [end_ns, name, self_ns] of the open ancestors

        def close(entry):
            stats[entry[1]]["self_ns"] += max(0, entry[2])

        for begin, end, name in spans:
            while stack and begin >= stack[-1][0]:
                close(stack.pop())
            dur = end - begin
            st = stats[name]
            st["count"] += 1
            st["total_ns"] += dur
            if stack:
                # The child covers `dur` of its parent's interval, clipped to
                # the parent's end so a child that overhangs it (two spans
                # of one thread that overlap without nesting) cannot drive
                # the parent's self time below zero.
                stack[-1][2] -= min(end, stack[-1][0]) - begin
            stack.append([end, name, dur])
        while stack:
            close(stack.pop())
    return dict(stats)


def load(path):
    with open(path) as f:
        return json.load(f)["traceEvents"]

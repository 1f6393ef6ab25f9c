#!/usr/bin/env python3
"""Unit tests for the trace summarizer (tools/trace_report.py).

A synthetic two-thread trace pins the phase table's normalization: a
phase that runs on the main thread and a worker at the same time has
more self time than one thread's window, so its self% must be taken of
the window's thread-time (window x threads), never of one thread's
window.  A trace with two engine runs and spans outside them pins the
window itself: first run start to last run end, outside spans dropped.
Registered as the `test_trace_report` ctest.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest

_TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "trace_report", os.path.join(_TOOLS_DIR, "trace_report.py"))
trace_report = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trace_report)


def span(cat, name, ts, dur, tid):
    return {"ph": "X", "cat": cat, "name": name, "ts": ts, "dur": dur,
            "tid": tid}


# Main thread: engine/run over [0, 100) with a merge_slab child over
# [0, 60).  Worker: merge_slab over [10, 70).  merge_slab's self time is
# 120 us against a 100 us window — 120% of one thread's window, 60% of
# the two threads' 200 us.
TWO_THREAD_EVENTS = [
    {"ph": "M", "name": "thread_name", "tid": 0, "args": {"name": "main"}},
    {"ph": "M", "name": "thread_name", "tid": 1,
     "args": {"name": "worker-1"}},
    span("engine", "run", 0, 100, 0),
    span("engine", "merge_slab", 0, 60, 0),
    span("engine", "merge_slab", 10, 60, 1),
]


class PhaseTableTest(unittest.TestCase):
    def table(self, events):
        _, spans = trace_report.parse_events(events)
        start, end, _ = trace_report.analysis_window(spans)
        trace_report.self_times(spans)
        return dict(trace_report.phase_table(spans, (start, end)))

    def test_concurrent_self_time_is_normalized_by_thread_time(self):
        rows = self.table(TWO_THREAD_EVENTS)
        self.assertAlmostEqual(rows["engine/merge_slab"]["self"], 120.0)
        self.assertAlmostEqual(rows["engine/merge_slab"]["self_pct"], 60.0)
        self.assertAlmostEqual(rows["engine/run"]["self_pct"], 20.0)
        self.assertLessEqual(sum(r["self_pct"] for r in rows.values()),
                             100.0)

    def test_single_thread_keeps_the_window_share(self):
        rows = self.table([e for e in TWO_THREAD_EVENTS
                           if e.get("tid") == 0])
        self.assertAlmostEqual(rows["engine/merge_slab"]["self_pct"], 60.0)
        self.assertAlmostEqual(rows["engine/run"]["self_pct"], 40.0)

    def test_threads_outside_the_window_do_not_count(self):
        events = TWO_THREAD_EVENTS + [span("io", "load", 500, 10, 2)]
        _, spans = trace_report.parse_events(events)
        start, end, label = trace_report.analysis_window(spans)
        self.assertEqual((start, end, label), (0.0, 100.0, "engine/run span"))
        self.assertEqual(trace_report.window_threads(spans, (start, end)),
                         [0, 1])

    def test_report_never_prints_more_than_the_thread_time(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            with open(path, "w") as f:
                json.dump({"traceEvents": TWO_THREAD_EVENTS}, f)
            out = io.StringIO()
            argv = sys.argv
            sys.argv = ["trace_report.py", path]
            try:
                with contextlib.redirect_stdout(out):
                    self.assertEqual(trace_report.main(), 0)
            finally:
                sys.argv = argv
        report = out.getvalue()
        slab = next(line for line in report.splitlines()
                    if line.strip().startswith("engine/merge_slab"))
        self.assertTrue(slab.rstrip().endswith("60.0%"), slab)
        self.assertIn("self% of 2 thread(s) x window", report)

    def test_window_spans_every_engine_run_and_drops_outside_spans(self):
        # Two engine runs (a height-split solve, or two online batches)
        # with work between them, plus spans before and after: the window
        # runs from the first run's start to the last run's end, and only
        # the spans inside it count.
        events = [
            span("online", "step", 0, 500, 0),        # straddles the window
            span("forest", "build", 10, 30, 0),       # before the first run
            span("engine", "run", 50, 100, 0),
            span("engine", "epoch", 60, 80, 0),
            span("forest", "build", 160, 30, 0),      # between the runs
            span("engine", "run", 200, 100, 0),
            span("engine", "epoch", 210, 80, 0),
            span("online", "snapshot", 320, 150, 0),  # after the last run
        ]
        _, spans = trace_report.parse_events(events)
        start, end, label = trace_report.analysis_window(spans)
        self.assertEqual((start, end), (50.0, 300.0))
        self.assertIn("2 engine/run spans", label)
        trace_report.self_times(spans)
        rows = dict(trace_report.phase_table(spans, (start, end)))
        self.assertNotIn("online/snapshot", rows)
        self.assertNotIn("online/step", rows)
        self.assertEqual(rows["forest/build"]["count"], 1)
        self.assertEqual(rows["engine/run"]["count"], 2)
        for key, row in rows.items():
            self.assertLessEqual(row["self_pct"], 100.0, key)
        self.assertLessEqual(sum(r["self_pct"] for r in rows.values()),
                             100.0)

    def test_protocol_window_covers_discovery_and_passes(self):
        # A wire protocol run: discovery, then a pass whose phase 1 is an
        # engine run and whose phase-2 replay follows it.  The window spans
        # discovery through the end of the pass, not just the engine run.
        events = [
            span("protocol", "discovery", 10, 40, 0),
            span("protocol", "pass", 60, 200, 0),
            span("engine", "run", 70, 100, 0),
            span("protocol", "phase2_replay", 180, 70, 0),
            span("cli", "report", 300, 20, 0),  # after the run
        ]
        _, spans = trace_report.parse_events(events)
        start, end, label = trace_report.analysis_window(spans)
        self.assertEqual((start, end), (10.0, 260.0))
        self.assertIn("3 engine/run, protocol/discovery, protocol/pass",
                      label)
        trace_report.self_times(spans)
        rows = dict(trace_report.phase_table(spans, (start, end)))
        self.assertNotIn("cli/report", rows)
        self.assertAlmostEqual(rows["protocol/pass"]["self"], 30.0)


if __name__ == "__main__":
    unittest.main()

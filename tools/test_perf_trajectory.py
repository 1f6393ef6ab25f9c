#!/usr/bin/env python3
"""Unit tests for the perf-trajectory key classifier (tools/perf_trajectory.py).

The classifier decides whether a bench JSON field gates the perf
trajectory, is reported informationally, or keys the row join.  A wrong
classification either silently un-gates a complexity metric or re-keys a
whole series, so the mapping is pinned here; registered as the
`test_perf_key_classifier` ctest.
"""

import importlib.util
import os
import unittest

_TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "perf_trajectory", os.path.join(_TOOLS_DIR, "perf_trajectory.py"))
perf_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_trajectory)

classify = perf_trajectory.classify
row_key = perf_trajectory.row_key


class ClassifyTest(unittest.TestCase):
    def test_complexity_counters_gate(self):
        for field in ("rounds", "steps", "epochs", "raises", "ratio",
                      "protocol_rounds", "modeled_rounds",
                      "protocol_messages", "protocol_bytes",
                      "discovery_bytes", "discovery_reply_bytes",
                      "protocol_ratio", "cert_gap"):
            self.assertEqual(classify(field), "gated", field)

    def test_timing_is_informational(self):
        for field in ("wall_ms", "steps_per_sec", "profit", "speedup",
                      "epoch_setup_ns", "setup_speedup"):
            self.assertEqual(classify(field), "info", field)

    def test_obs_exports_are_informational_never_gating(self):
        # The flight recorder's keys are diagnostics even when their
        # suffix looks gated: the prefix rule must win.
        for field in ("trace_rounds", "trace_total_bytes", "trace_spans",
                      "hist_message_bytes", "hist_component_size_p95",
                      "obs_span_count", "obs_overwritten_spans",
                      "trace_worker_busy_ns", "hist_luby_iterations_p50"):
            self.assertEqual(classify(field), "info", field)

    def test_durability_diagnostics_are_informational_never_gating(self):
        # The t8 recovery bench's snapshot_*/recovery_* fields are
        # diagnostics (replay counts vary with the snapshot cursor; the
        # rest is wall clock or image size) — the prefix rule must win
        # even over gated-looking suffixes.  journal_bytes is the one
        # durability metric that gates.
        for field in ("recovery_replayed_with_snapshot",
                      "recovery_replayed_journal_only",
                      "recovery_with_snapshot_ms", "snapshot_bytes",
                      "snapshot_write_ms", "snapshot_batches"):
            self.assertEqual(classify(field), "info", field)
        self.assertEqual(classify("journal_bytes"), "gated")

    def test_identity_fields_are_keys(self):
        for field in ("seed", "arm", "workload", "n", "instances",
                      "lockstep", "engine"):
            self.assertEqual(classify(field), "key", field)

    def test_ok_flags_stay_join_keys(self):
        # Deliberate: a mis_ok/schedule_ok flip must re-key the row and
        # fail the gate loudly instead of hiding inside a tolerance.
        for field in ("mis_ok", "schedule_ok"):
            self.assertEqual(classify(field), "key", field)


class RowKeyTest(unittest.TestCase):
    def test_row_key_uses_only_key_fields(self):
        row = {"seed": 3, "arm": 1.0, "rounds": 120, "wall_ms": 8.5,
               "trace_rounds": 7, "mis_ok": 1}
        key = dict(row_key(row))
        self.assertEqual(key, {"seed": 3, "arm": 1.0, "mis_ok": 1})

    def test_reordered_rows_share_a_key(self):
        a = {"seed": 1, "arm": 0.0, "rounds": 10}
        b = {"arm": 0.0, "rounds": 99, "seed": 1}
        self.assertEqual(row_key(a), row_key(b))

    def test_flag_flip_changes_the_key(self):
        ok = {"seed": 1, "mis_ok": 1, "rounds": 10}
        degraded = {"seed": 1, "mis_ok": 0, "rounds": 10}
        self.assertNotEqual(row_key(ok), row_key(degraded))


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Fixture tests for scripts/bnash_lint.py, run from ctest.

Three layers:
  1. Known-bad snippets (tests/lint/bad/) trigger every rule at least
     once; waived and clean snippets (tests/lint/good/) stay quiet.
  2. The baseline round-trips: blessing the bad tree silences it, the
     blessed file is valid JSON with stable fingerprints, and findings
     JSON output is well-formed.
  3. The real src/ tree lints clean against the shipped baseline — the
     same invocation verify.sh gates on.

Plain unittest, no third-party deps; skipped entirely when python3 is
missing (CMake only registers the test when an interpreter was found).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINT = REPO / "scripts" / "bnash_lint.py"
FIXTURES = REPO / "tests" / "lint"


def run_lint(*args):
    """Returns (exit_code, stdout, findings) with findings parsed from --json."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "findings.json"
        proc = subprocess.run(
            [sys.executable, str(LINT), "--json", str(json_path), *args],
            capture_output=True, text=True, check=False)
        payload = {}
        if json_path.is_file():
            payload = json.loads(json_path.read_text(encoding="utf-8"))
    return proc.returncode, proc.stdout, payload


class BadTree(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.code, cls.out, cls.payload = run_lint(
            "--root", str(FIXTURES), "--src", "bad", "--no-baseline")
        cls.findings = cls.payload.get("findings", [])
        cls.by_rule = {}
        for finding in cls.findings:
            cls.by_rule.setdefault(finding["rule"], []).append(finding)

    def test_exit_code_signals_findings(self):
        self.assertEqual(self.code, 1, self.out)

    def hits(self, rule, path_fragment):
        return [f for f in self.by_rule.get(rule, [])
                if path_fragment in f["path"]]

    def test_walker_charge_fires(self):
        self.assertTrue(self.hits("walker-charge", "bad_walker.cpp"), self.out)

    def test_grant_propagation_fires(self):
        hits = self.hits("grant-propagation", "bad_grant.cpp")
        # the raw run_blocks call, util::first_hit and util::for_blocks
        self.assertEqual(len(hits), 3, self.out)

    def test_pool_loop_fires_on_raw_run_blocks(self):
        self.assertEqual(len(self.hits("pool-loop", "bad_pool_loop.cpp")), 1, self.out)
        # grant-aware: only pool-loop fires there
        self.assertEqual(
            [f for f in self.findings if "bad_pool_loop.cpp" in f["path"]
             and f["rule"] != "pool-loop"], [], self.out)
        self.assertEqual(len(self.hits("pool-loop", "bad_grant.cpp")), 1, self.out)

    def test_pool_loop_ignores_waiver_comment(self):
        # pool-loop has no waiver: a pool-ok comment does not silence it
        self.assertEqual(len(self.hits("pool-loop", "waived_pool.cpp")), 1, self.out)
        self.assertEqual(
            [f for f in self.findings if "waived_pool.cpp" in f["path"]
             and f["rule"] != "pool-loop"], [], self.out)

    def test_naked_thread_fires(self):
        hits = self.hits("naked-thread", "dist/bad_thread.cpp")
        self.assertEqual(len(hits), 1, self.out)  # std::this_thread is quiet

    def test_naked_thread_fires_in_serve_outside_the_socket_front(self):
        # The query server owns no thread: only serve/socket_front.cpp is
        # exempt, not the whole serve/ directory.
        hits = self.hits("naked-thread", "serve/bad_thread.cpp")
        self.assertEqual(len(hits), 1, self.out)

    def test_no_rand_fires_per_occurrence(self):
        hits = self.hits("no-rand", "bad_rand.cpp")
        # rand(), std::rand(), and random_device each fire
        self.assertEqual(len(hits), 3, self.out)

    def test_no_stdout_fires_per_occurrence(self):
        hits = self.hits("no-stdout", "bad_stdout.cpp")
        # cout, printf, and std::printf; cerr and fprintf(stderr) quiet
        self.assertEqual(len(hits), 3, self.out)

    def test_header_guard_fires_on_late_pragma(self):
        self.assertTrue(self.hits("header-guard", "bad_guard.h"), self.out)

    def test_header_guard_fires_on_ifndef_style(self):
        self.assertTrue(self.hits("header-guard", "bad_ifdef_guard.h"), self.out)

    def test_include_hygiene_fires(self):
        hits = self.hits("include-hygiene", "bad_include.cpp")
        messages = " | ".join(f["message"] for f in hits)
        self.assertIn("relative-up", messages)
        self.assertIn("bits/", messages)
        self.assertIn("does not resolve", messages)

    def test_first_include_rule_fires(self):
        hits = self.hits("include-hygiene", "own_header.cpp")
        self.assertTrue(any("own" in f["message"] for f in hits), self.out)

    def test_identity_forward_fires_without_waiver(self):
        hits = self.hits("identity-forward", "bad_identity_forward.cpp")
        # all four twins fire, GameView::full, GameView(...) and
        # GameView{...} alike; the rule accepts no waiver
        self.assertEqual(len(hits), 4, self.out)

    def test_identity_forward_fires_on_members(self):
        hits = self.hits("identity-forward", "member_forward.cpp")
        # out-of-line and in-class members alike, *this passed directly,
        # as GameView(*this) or as GameView{*this}
        self.assertEqual(len(hits), 5, self.out)
        self.assertEqual(
            sorted(f["context"] for f in hits),
            ["deviation_payoff", "expected_payoff", "payoff_matrix", "regret",
             "restrict_view"], self.out)

    def test_no_decode_fires_without_waiver(self):
        hits = self.hits("no-decode", "bad_decode.cpp")
        # `.payoffs_flat()` and `->payoffs_flat()`; the decode-ok comment
        # does not silence the second, and the declaration is quiet
        self.assertEqual(len(hits), 2, self.out)
        self.assertEqual(
            [f for f in self.findings if "bad_decode.cpp" in f["path"]
             and f["rule"] != "no-decode"], [], self.out)

    def test_payoff_store_fires_without_waiver(self):
        hits = self.hits("payoff-store", "bad_payoff_store.h")
        # the per-cell Rational tensor and its double mirror; the waiver
        # comment does not silence the second, and the count member is quiet
        self.assertEqual(len(hits), 2, self.out)
        self.assertEqual([f["context"] for f in hits], ["BayesianGame", "BayesianGame"],
                         self.out)
        self.assertEqual(
            [f for f in self.findings if "bad_payoff_store.h" in f["path"]
             and f["rule"] != "payoff-store"], [], self.out)

    def test_empty_waiver_reason_does_not_suppress(self):
        self.assertTrue(self.hits("no-rand", "bad_waiver.cpp"), self.out)

    def test_findings_json_shape(self):
        for finding in self.findings:
            for key in ("rule", "path", "line", "message", "fingerprint"):
                self.assertIn(key, finding)
            self.assertGreaterEqual(finding["line"], 1)
            self.assertTrue(finding["fingerprint"].startswith(finding["rule"] + ":"))


class GoodTree(unittest.TestCase):
    def test_waived_and_clean_snippets_pass(self):
        code, out, payload = run_lint(
            "--root", str(FIXTURES), "--src", "good", "--no-baseline")
        self.assertEqual(code, 0, out)
        self.assertEqual(payload.get("findings", []), [], out)


class BaselineRoundTrip(unittest.TestCase):
    def test_bless_then_clean(self):
        with tempfile.TemporaryDirectory() as tmp:
            baseline = Path(tmp) / "baseline.json"
            bless = subprocess.run(
                [sys.executable, str(LINT), "--root", str(FIXTURES), "--src", "bad",
                 "--baseline", str(baseline), "--update-baseline"],
                capture_output=True, text=True, check=False)
            self.assertEqual(bless.returncode, 0, bless.stdout + bless.stderr)
            blessed = json.loads(baseline.read_text(encoding="utf-8"))
            self.assertGreater(len(blessed["suppressions"]), 0)

            code, out, payload = run_lint(
                "--root", str(FIXTURES), "--src", "bad", "--baseline", str(baseline))
            self.assertEqual(code, 0, out)
            self.assertEqual(payload.get("fresh", []), [], out)
            # Fingerprints are stable across runs: a re-bless is a no-op.
            subprocess.run(
                [sys.executable, str(LINT), "--root", str(FIXTURES), "--src", "bad",
                 "--baseline", str(baseline), "--update-baseline"],
                capture_output=True, text=True, check=False)
            reblessed = json.loads(baseline.read_text(encoding="utf-8"))
            self.assertEqual(blessed, reblessed)


class RealTree(unittest.TestCase):
    def test_src_lints_clean_with_shipped_baseline(self):
        code, out, _ = run_lint("--root", str(REPO))
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    os.chdir(REPO)  # relative paths in output stay repo-rooted
    unittest.main(verbosity=2)

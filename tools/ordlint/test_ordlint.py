#!/usr/bin/env python3
"""Tests for tools/ordlint: the seeded-broken fixtures must each fail
with their exact expected diagnostic, the real tree must lint clean, and
the docs/runtime.md contract tables must round-trip against the
*.contract.toml sidecars (wired into ctest as `hls_ordlint`)."""

import os
import re
import subprocess
import sys
import tomllib
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.normpath(os.path.join(HERE, "..", ".."))
ORDLINT = os.path.join(HERE, "ordlint.py")
FIXTURES = os.path.join(HERE, "fixtures")


def run_ordlint(*args):
    proc = subprocess.run(
        [sys.executable, ORDLINT, *args],
        capture_output=True, text=True, cwd=REPO)
    return proc.returncode, proc.stdout + proc.stderr


def run_fixture(name):
    return run_ordlint("--repo", os.path.join(FIXTURES, name),
                       "--frontend", "text")


class FixtureDiagnostics(unittest.TestCase):
    """One seeded-broken negative per check; each must fail with the
    expected diagnostic at the expected site."""

    def test_defaulted_order(self):
        code, out = run_fixture("defaulted_order")
        self.assertEqual(code, 1, out)
        self.assertIn("src/runtime/counter.h:12: error[ordlint:defaulted-order]",
                      out)
        self.assertIn("'hits_.fetch_add' uses the defaulted "
                      "std::memory_order_seq_cst", out)
        # Operator forms are defaulted seq_cst RMWs in disguise.
        self.assertIn("src/runtime/counter.h:13: error[ordlint:defaulted-order]",
                      out)
        self.assertIn("operator form 'hits_'", out)
        self.assertIn("src/runtime/counter.h:17: error[ordlint:defaulted-order]",
                      out)
        self.assertIn("errors=3", out)

    def test_seq_cst_unjustified(self):
        code, out = run_fixture("seq_cst_unjustified")
        self.assertEqual(code, 1, out)
        self.assertIn("src/runtime/latch.h:13: "
                      "error[ordlint:seq-cst-unjustified]", out)
        self.assertIn("neither a matching contract entry nor an inline "
                      "'// ordlint: seq_cst because ...'", out)
        # The tagged load must pass: exactly one error.
        self.assertIn("errors=1", out)

    def test_contract_conformance(self):
        code, out = run_fixture("contract_mismatch")
        self.assertEqual(code, 1, out)
        self.assertIn("src/runtime/cell_core.h:18: "
                      "error[ordlint:contract-mismatch]", out)
        self.assertIn("'state_.store(relaxed)' in publish() does not match "
                      "contract 'cell'", out)
        self.assertIn("declared for this var/op/role: "
                      "state_.store(release) in publish()", out)
        # Stale entry (drain() no longer exists) fails the run...
        self.assertIn("error[ordlint:contract-stale]", out)
        self.assertIn("state_.load(acquire) in drain() matches no site", out)
        # ...but the mismatched publish entry is NOT double-reported stale.
        self.assertNotIn("state_.store(release) in publish() matches no", out)
        # An atomic the contract forgot also fails.
        self.assertIn("src/runtime/cell_core.h:25: "
                      "error[ordlint:contract-missing]", out)
        self.assertIn("atomic member 'extra_'", out)
        self.assertIn("errors=3", out)

    def test_traits_escape(self):
        code, out = run_fixture("traits_escape")
        self.assertEqual(code, 1, out)
        self.assertIn("src/runtime/gate_core.h:18: "
                      "error[ordlint:traits-escape]", out)
        self.assertIn("raw std::atomic in a *_core.h protocol header "
                      "bypasses the Traits:: synchronization seam", out)
        self.assertIn("src/runtime/gate_core.h:19: "
                      "error[ordlint:traits-escape]", out)
        self.assertIn("raw std::mutex", out)
        self.assertIn("errors=2", out)

    def test_relaxed_guard_advisory(self):
        code, out = run_fixture("relaxed_guard")
        # Advisory: reported, but does not fail the run by default.
        self.assertEqual(code, 0, out)
        self.assertIn("src/runtime/publisher.h:15: "
                      "advisory[ordlint:relaxed-guard]", out)
        self.assertIn("relaxed load of 'open_' guards a release-class "
                      "commit", out)
        self.assertIn("advisories=1", out)
        # The tagged twin is suppressed (only one advisory), and
        # --advisory-as-error promotes the survivor to a failure.
        code2, out2 = run_ordlint(
            "--repo", os.path.join(FIXTURES, "relaxed_guard"),
            "--frontend", "text", "--advisory-as-error")
        self.assertEqual(code2, 1, out2)


class RealTree(unittest.TestCase):
    def test_shipping_tree_is_clean(self):
        code, out = run_ordlint("--frontend", "text")
        self.assertEqual(code, 0, out)
        self.assertIn("errors=0 advisories=0", out)
        m = re.search(r"ordlint_sites_checked=(\d+) ordlint_contracts=(\d+)",
                      out)
        self.assertIsNotNone(m, out)
        self.assertGreater(int(m.group(1)), 150, out)
        self.assertEqual(int(m.group(2)), 6, out)

    def test_clang_frontend_gates_cleanly(self):
        """--frontend=clang must either run (libclang present) or skip
        with the documented notice and exit code 2 — never silently
        pass."""
        code, out = run_ordlint("--frontend", "clang")
        try:
            import clang.cindex  # noqa: F401
            has_clang = True
        except ImportError:
            has_clang = False
        if has_clang:
            self.assertIn(code, (0, 1), out)
        else:
            self.assertEqual(code, 2, out)
            self.assertIn("libclang frontend unavailable", out)
            self.assertIn("skipping", out)


class DocsRoundTrip(unittest.TestCase):
    """The docs/runtime.md contract tables are generated from the
    sidecars; every published (variable, role, function, op, order) row
    must still exist in its sidecar, keyed by the section anchor."""

    CONTRACTS = [
        "src/runtime/deque_core.contract.toml",
        "src/runtime/range_slot_core.contract.toml",
        "src/runtime/parking_core.contract.toml",
        "src/runtime/handoff_core.contract.toml",
        "src/runtime/board.contract.toml",
        "src/core/claim.contract.toml",
    ]

    @staticmethod
    def doc_tables():
        """anchor -> list of row dicts, parsed from docs/runtime.md."""
        text = open(os.path.join(REPO, "docs", "runtime.md")).read()
        anchors = list(re.finditer(r'<a id="([\w-]+)"></a>', text))
        tables = {}
        for i, m in enumerate(anchors):
            end = anchors[i + 1].start() if i + 1 < len(anchors) else len(text)
            rows = []
            for line in text[m.end():end].splitlines():
                cells = [c.strip() for c in line.strip().strip("|").split("|")]
                if len(cells) == 6 and cells[0].startswith("`") and \
                        cells[3] != "op":
                    order = cells[4].split("/")[0].strip()
                    fail = (cells[4].split("/")[1].strip()
                            if "/" in cells[4] else "")
                    rows.append({"var": cells[0].strip("`"),
                                 "role": cells[1],
                                 "fn": cells[2].strip("`"),
                                 "op": cells[3],
                                 "order": order, "fail": fail})
            if rows:
                tables[m.group(1)] = rows
        return tables

    def test_every_doc_row_exists_in_its_sidecar(self):
        tables = self.doc_tables()
        checked = 0
        for rel in self.CONTRACTS:
            with open(os.path.join(REPO, rel), "rb") as f:
                data = tomllib.load(f)
            anchor = data["protocol"]["doc_anchor"]
            self.assertIn(anchor, tables,
                          f"{rel}: doc_anchor '{anchor}' has no table in "
                          f"docs/runtime.md")
            entries = data.get("site", [])
            for row in tables[anchor]:
                hits = [e for e in entries
                        if e["var"] == row["var"]
                        and (e.get("fn", "") or "*") == row["fn"]
                        and e["op"] == row["op"]
                        and e["order"] == row["order"]
                        and e.get("fail", "") == row["fail"]
                        and e.get("role", "") == row["role"]]
                self.assertTrue(
                    hits,
                    f"docs/runtime.md#{anchor} row {row} has no matching "
                    f"entry in {rel} — regenerate the table with "
                    f"tools/ordlint/gen_doc_tables.py or fix the contract")
                checked += 1
        self.assertGreater(checked, 80, "suspiciously few doc rows parsed")

    def test_every_sidecar_entry_is_published(self):
        """The reverse direction: a contract entry missing from the docs
        table means the table is stale."""
        tables = self.doc_tables()
        for rel in self.CONTRACTS:
            with open(os.path.join(REPO, rel), "rb") as f:
                data = tomllib.load(f)
            anchor = data["protocol"]["doc_anchor"]
            rows = tables.get(anchor, [])
            for e in data.get("site", []):
                hits = [r for r in rows
                        if r["var"] == e["var"]
                        and r["fn"] == (e.get("fn", "") or "*")
                        and r["op"] == e["op"]
                        and r["order"] == e["order"]]
                self.assertTrue(
                    hits,
                    f"{rel} entry {e['var']}.{e['op']}({e['order']}) in "
                    f"{e.get('fn', '*')}() is not published in "
                    f"docs/runtime.md#{anchor} — regenerate with "
                    f"gen_doc_tables.py")

    def test_generator_matches_published_tables(self):
        """gen_doc_tables.py output must equal the published tables
        byte-for-byte (modulo surrounding prose)."""
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "gen_doc_tables.py")],
            capture_output=True, text=True, cwd=REPO)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        doc = open(os.path.join(REPO, "docs", "runtime.md")).read()
        for block in proc.stdout.strip().split("\n\n"):
            if block.strip().startswith("|") or "<a id=" in block:
                self.assertIn(block.strip(), doc,
                              f"generated block not found verbatim in "
                              f"docs/runtime.md:\n{block[:200]}")


class ContractHygiene(unittest.TestCase):
    def test_seq_cst_entries_all_carry_why(self):
        for rel in DocsRoundTrip.CONTRACTS:
            with open(os.path.join(REPO, rel), "rb") as f:
                data = tomllib.load(f)
            for e in data.get("site", []):
                if "seq_cst" in (e["order"], e.get("fail", "")):
                    self.assertTrue(e.get("why"),
                                    f"{rel}: seq_cst entry without why: {e}")

    def test_contract_files_exist(self):
        for rel in DocsRoundTrip.CONTRACTS:
            base = os.path.dirname(os.path.join(REPO, rel))
            with open(os.path.join(REPO, rel), "rb") as f:
                data = tomllib.load(f)
            for fn in data["protocol"]["files"]:
                self.assertTrue(os.path.isfile(os.path.join(base, fn)),
                                f"{rel} lists missing file {fn}")


if __name__ == "__main__":
    unittest.main(verbosity=2)

#!/usr/bin/env python3
"""Regenerates the per-protocol ordering-contract tables embedded in
docs/runtime.md ("Memory-ordering contracts" section) from the
*.contract.toml sidecars, so docs and contracts share one source of
truth. tools/ordlint/test_ordlint.py round-trips the published tables
against the sidecars and fails on drift; on a failure, re-run

    python3 tools/ordlint/gen_doc_tables.py

and paste the output over the stale tables (or fix the contract).
"""

import os
import sys
import tomllib

REPO = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                     "..", ".."))
CONTRACTS = [
    "src/runtime/deque_core.contract.toml",
    "src/runtime/range_slot_core.contract.toml",
    "src/runtime/parking_core.contract.toml",
    "src/runtime/handoff_core.contract.toml",
    "src/runtime/board.contract.toml",
    "src/core/claim.contract.toml",
]


def emit(path):
    with open(os.path.join(REPO, path), "rb") as f:
        data = tomllib.load(f)
    proto = data["protocol"]
    anchor = proto.get("doc_anchor", proto["name"] + "-contract")
    out = [f'<a id="{anchor}"></a>']
    out.append(f"### `{proto['name']}` — `{path}`")
    out.append("")
    if proto.get("plain"):
        out.append("plain (`Traits::var`) fields: "
                   + ", ".join(f"`{p}`" for p in proto["plain"]) + ".")
        out.append("")
    out.append("| variable | role | function | op | order | pairing |")
    out.append("|---|---|---|---|---|---|")
    for e in data.get("site", []):
        order = e["order"] + (f" / {e['fail']}" if e.get("fail") else "")
        fn = e.get("fn", "") or "*"
        out.append(f"| `{e['var']}` | {e.get('role', '')} | `{fn}` | "
                   f"{e['op']} | {order} | {e.get('why', '')} |")
    out.append("")
    return "\n".join(out)


def main():
    print("\n".join(emit(p) for p in CONTRACTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())

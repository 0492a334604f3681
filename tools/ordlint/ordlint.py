#!/usr/bin/env python3
"""ordlint: machine-checked memory-ordering contracts for the lock-free cores.

Every hand-rolled protocol in this repo (deque_core.h, range_slot_core.h,
parking_core.h, handoff_core.h, the claim flags) documents its per-site
memory orders in an ordering table in docs/runtime.md — but a table nobody
executes drifts. ordlint closes the loop: each protocol ships a
machine-readable contract sidecar (`*.contract.toml`, next to the source)
generated from those tables, and this tool parses every atomic operation
site in the scanned trees and checks the code against the contract.

Checks (docs/verification.md "Static ordering contracts"):

  defaulted-order    every load/store/exchange/fetch_*/compare_exchange_*
                     must name an explicit std::memory_order; operator
                     forms on atomics (++, +=, ...) are defaulted seq_cst
                     and flagged too. Accesses to contract-declared
                     `plain` members (Traits::var fields, ordered by the
                     protocol rather than per-access) take no order.
  seq-cst-unjustified explicit seq_cst is the strongest (and most
                     expensive) order and must argue for itself: the site
                     must either match a contract entry (whose `why` is
                     mandatory for seq_cst) or carry an inline
                     `// ordlint: seq_cst because ...` tag.
  contract-*         each contracted variable's access sites must use
                     exactly the declared order for their role (the
                     enclosing function); stale contract entries that
                     match no site fail the run, as do atomic members a
                     contract file forgot to declare.
  traits-escape      raw std::atomic / std::mutex / std::condition_variable
                     inside a *_core.h protocol header bypasses the
                     Traits:: seam and makes the protocol invisible to
                     hls_verify; no scope is exempt.
  relaxed-guard      ADVISORY: a relaxed load guarding a release-class
                     commit with no confirming re-read of the guard
                     variable — the shape the Dekker re-read patterns in
                     the range/handoff protocols exist to avoid.

Frontends: the default `text` frontend is a dependency-free C++ tokenizer
tuned to this codebase's house style. When python libclang bindings are
available (`--frontend=clang` or `auto`), the same checks run over a real
AST using build/compile_commands.json, mirroring how scripts/ci.sh gates
clang-tidy; hosts without libclang fall back (auto) or skip with a notice
(clang), never silently pass.

Exit codes: 0 clean (advisories allowed), 1 findings, 2 frontend
unavailable (explicit --frontend=clang only), 3 usage/config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
import tomllib

# ---------------------------------------------------------------------------
# Atomic operation table: method name -> (defaulted_argc, order_positions)
# A call with `defaulted_argc` arguments carries no explicit order; with
# len(order_positions) more, the arguments at those positions are orders
# (compare_exchange accepts a single combined order or success + failure).
# std::atomic_flag::test_and_set is deliberately absent: `test_and_set` is
# also the name of the claim-flags concept method (core/claim.h), whose
# argument is a partition index, not an order.
# ---------------------------------------------------------------------------
ATOMIC_OPS = {
    "load": (0, (0,)),
    "store": (1, (1,)),
    "exchange": (1, (1,)),
    "fetch_add": (1, (1,)),
    "fetch_sub": (1, (1,)),
    "fetch_or": (1, (1,)),
    "fetch_and": (1, (1,)),
    "fetch_xor": (1, (1,)),
    "compare_exchange_weak": (2, (2, 3)),
    "compare_exchange_strong": (2, (2, 3)),
}

ORDER_RE = re.compile(
    r"(?:std::)?memory_order(?:_|::\s*)"
    r"(relaxed|consume|acquire|release|acq_rel|seq_cst)\b"
)
RELEASE_CLASS = {"release", "acq_rel", "seq_cst"}
CXX_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignas",
    "alignof", "static_assert", "decltype", "new", "delete", "assert",
}
# Raw synchronization primitives that bypass the Traits:: seam when they
# appear in a *_core.h protocol header (check: traits-escape).
ESCAPE_RE = re.compile(
    r"std\s*::\s*(atomic_flag\b|atomic\s*<|mutex\b|shared_mutex\b|"
    r"condition_variable\b|atomic_thread_fence\b)"
)

TAG_RE = re.compile(r"//\s*ordlint:\s*(.+?)\s*$")


@dataclasses.dataclass
class Site:
    """One atomic operation call site."""

    path: str
    line: int
    var: str            # receiver's member name (padded `.value` stripped)
    chain: str          # full receiver spelling, for diagnostics
    op: str
    orders: list        # parsed order literals/symbols, in arg order
    defaulted: bool     # no order argument at all
    fn: str             # enclosing function ('' at class scope)
    offset: int         # char offset in the masked text (advisory check)
    argc: int = 0


@dataclasses.dataclass
class Finding:
    path: str
    line: int
    check: str
    message: str
    advisory: bool = False

    def render(self) -> str:
        sev = "advisory" if self.advisory else "error"
        return f"{self.path}:{self.line}: {sev}[ordlint:{self.check}]: {self.message}"


# ---------------------------------------------------------------------------
# Text frontend: comment/string masking, scope labelling, site extraction.
# ---------------------------------------------------------------------------

def mask_comments_and_strings(text: str) -> str:
    """Replaces comment and string/char literal contents with spaces,
    preserving length and line structure so offsets and line numbers in the
    masked text match the original."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c in "\"'":
            q = c
            j = i + 1
            while j < n and text[j] != q:
                if text[j] == "\\":
                    j += 1
                j += 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


_SCOPE_LAMBDA = re.compile(r"\]\s*(?:\([^()]*\))?\s*(?:mutable\s*)?"
                           r"(?:noexcept\s*)?(?:->\s*[\w:<>,\s&*]+)?\s*$")
_SCOPE_NS = re.compile(r"namespace\s+([\w:]*)\s*$")
_SCOPE_FN = re.compile(r"([A-Za-z_~][\w]*(?:\s*::\s*[A-Za-z_~][\w]*)*)\s*\(")
# Control-flow statements open blocks that inherit the enclosing function;
# their conditions often contain atomic calls (`if (x.compare_exchange...`)
# that must not be mistaken for function signatures.
_SCOPE_CTRL = re.compile(r"(?:else\b\s*)?(?:if|while|for|switch|do|try|catch)\b")


class ScopeIndex:
    """Maps a char offset to its innermost enclosing function name."""

    def __init__(self, masked: str):
        self._fn_spans = []
        stack = []
        cur = [""]
        for m in re.finditer(r"[{}]", masked):
            pos = m.start()
            if m.group() == "{":
                stack.append((pos, self._classify(masked, pos, cur[-1])))
                cur.append(stack[-1][1])
            elif stack:
                open_pos, fn = stack.pop()
                cur.pop()
                if fn:
                    self._fn_spans.append((open_pos, pos, fn))

    @staticmethod
    def _classify(masked: str, pos: int, inherited: str) -> str:
        start = pos - 1
        while start >= 0 and masked[start] not in ";{}":
            start -= 1
        snip = masked[start + 1:pos].strip()
        if _SCOPE_CTRL.match(snip):
            return inherited
        if _SCOPE_LAMBDA.search(snip):
            return inherited
        if _SCOPE_NS.search(snip):
            return ""
        if re.search(r"\b(?:struct|class|union|enum)\b", snip):
            return ""
        if snip.endswith("=") or snip.endswith("return") or not snip:
            return inherited
        for cand in _SCOPE_FN.finditer(snip):
            name = re.sub(r"\s+", "", cand.group(1)).split("::")[-1]
            if name not in CXX_KEYWORDS:
                if re.search(r"\)[^()]*$",
                             re.sub(r"\bHLS_\w+\s*\([^)]*\)", "", snip)
                             .rstrip(" constnexptovrifnal&")):
                    return name
                break
        return inherited

    def fn_at(self, offset: int) -> str:
        best, best_len = "", None
        for s, e, fn in self._fn_spans:
            if s <= offset <= e and (best_len is None or e - s < best_len):
                best, best_len = fn, e - s
        return best

    def fn_extent(self, offset: int):
        best, best_len = None, None
        for s, e, fn in self._fn_spans:
            if s <= offset <= e and (best_len is None or e - s < best_len):
                best, best_len = (s, e), e - s
        return best

    def fn_outer_extent(self, offset: int, fn: str):
        """Largest span of `fn` containing offset — lambdas inherit their
        enclosing function's name, so this merges a lambda's sites back
        into the function body they textually belong to."""
        best, best_len = None, None
        for s, e, name in self._fn_spans:
            if name == fn and s <= offset <= e and (
                    best_len is None or e - s > best_len):
                best, best_len = (s, e), e - s
        return best


def match_paren(text: str, open_idx: int) -> int:
    """Index of the ')' matching text[open_idx] == '(' (-1 if unbalanced)."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def split_args(arglist: str) -> list:
    """Splits a C++ argument list at top-level commas (paren/angle/brace
    aware; template angles are approximated by <> nesting, good enough for
    order arguments which never contain comparisons)."""
    args, depth, angle, cur = [], 0, 0, []
    for ch in arglist:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "<":
            angle += 1
        elif ch == ">":
            angle = max(0, angle - 1)
        if ch == "," and depth == 0 and angle == 0:
            args.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        args.append(tail)
    return args


def receiver_chain(masked: str, dot_end: int):
    """Walks a postfix expression backwards from just before the operator
    ('.' or '->') preceding the method name. Returns (chain_text, var_name)
    where var_name is the last member identifier with any padded-wrapper
    `.value` hop stripped (house idiom: claimed_[r].value.fetch_or)."""
    i = dot_end
    components = []
    while True:
        while i > 0 and masked[i - 1] in " \t\n":
            i -= 1
        start = i
        # one postfix component: trailing [] / () groups, then an identifier
        while i > 0 and masked[i - 1] in ")]":
            close = masked[i - 1]
            opener = "(" if close == ")" else "["
            depth = 0
            j = i - 1
            while j >= 0:
                if masked[j] == close:
                    depth += 1
                elif masked[j] == opener:
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            if j < 0:
                break
            i = j
            while i > 0 and masked[i - 1] in " \t\n":
                i -= 1
        idstart = i
        while idstart > 0 and (masked[idstart - 1].isalnum()
                               or masked[idstart - 1] == "_"):
            idstart -= 1
        ident = masked[idstart:i]
        components.insert(0, masked[idstart:start])
        i = idstart
        while i > 0 and masked[i - 1] in " \t\n":
            i -= 1
        if i >= 2 and masked[i - 2:i] == "->":
            i -= 2
        elif i >= 1 and masked[i - 1] == "." and not (
                i >= 2 and masked[i - 2].isdigit()):
            i -= 1
        else:
            break
        if not ident:
            break
    chain = ".".join(c for c in components if c)
    names = [re.match(r"[A-Za-z_]\w*", c).group(0)
             for c in components if re.match(r"[A-Za-z_]\w*", c)]
    var = ""
    for name in reversed(names):
        if name != "value":  # padded<atomic<T>>::value wrapper hop
            var = name
            break
    return chain, var


def extract_sites(path: str, masked: str, scopes: ScopeIndex) -> list:
    sites = []
    for m in re.finditer(
            r"(?:\.|->)\s*(%s)\s*\(" % "|".join(ATOMIC_OPS), masked):
        op = m.group(1)
        open_paren = m.end() - 1
        close = match_paren(masked, open_paren)
        if close < 0:
            continue
        args = split_args(masked[open_paren + 1:close])
        chain, var = receiver_chain(masked, m.start())
        if not var:
            continue
        defaulted_argc, order_pos = ATOMIC_OPS[op]
        orders = []
        defaulted = len(args) <= defaulted_argc
        for pos in order_pos:
            if pos < len(args):
                om = ORDER_RE.search(args[pos])
                orders.append(om.group(1) if om else args[pos].strip())
        line = masked.count("\n", 0, m.start()) + 1
        sites.append(Site(path=path, line=line, var=var, chain=chain, op=op,
                          orders=orders, defaulted=defaulted,
                          fn=scopes.fn_at(m.start()), offset=m.start(),
                          argc=len(args)))
    return sites


# Operator forms on a known atomic member are defaulted-seq_cst RMWs/stores
# in disguise; only ++/--/compound assignments are unambiguous enough for a
# text frontend (plain `=` collides with brace/equals initializers).
def operator_form_sites(path: str, masked: str, atomic_vars: set,
                        scopes: ScopeIndex) -> list:
    sites = []
    if not atomic_vars:
        return sites
    names = "|".join(re.escape(v) for v in sorted(atomic_vars))
    pat = re.compile(
        r"(?:(\+\+|--)\s*(%(n)s)\b(?!\s*\()|"
        r"\b(%(n)s)\s*(\+\+|--|\+=|-=|\|=|&=|\^=))" % {"n": names})
    for m in pat.finditer(masked):
        var = m.group(2) or m.group(3)
        line = masked.count("\n", 0, m.start()) + 1
        sites.append(Site(path=path, line=line, var=var, chain=var,
                          op="operator", orders=[], defaulted=True,
                          fn=scopes.fn_at(m.start()), offset=m.start()))
    return sites


# Member declarations, for contract completeness and kind checks.
DECL_PATTERNS = [
    # traits-seam atomics: atomic_t<T> name / unique_ptr<atomic_t<T>[]> name
    (re.compile(r"\batomic_t<[^;{}]*?>\s+([A-Za-z_]\w*)\s*(?:\{|;|=)"),
     "atomic"),
    (re.compile(r"unique_ptr<\s*atomic_t<[^;{}]*?>\[\]\s*>\s+([A-Za-z_]\w*)"),
     "atomic"),
    # raw std::atomic members (wrappers, padded arrays, plain members)
    (re.compile(r"std::atomic<[^;{}]*?>\s+([A-Za-z_]\w*)\s*(?:\{|;|=)"),
     "atomic"),
    (re.compile(r"std::atomic<[^;{}]*?>>\[\]>?\s+([A-Za-z_]\w*)"), "atomic"),
    (re.compile(
        r"unique_ptr<padded<std::atomic<[^;{}]*?>>\[\]>\s+([A-Za-z_]\w*)"),
     "atomic"),
    # traits-seam plain shared fields
    (re.compile(r"\bvar_t<[^;{}]*?>\s+([A-Za-z_]\w*)\s*(?:\{|;|=)"), "plain"),
]


def declared_members(masked: str) -> dict:
    decls = {}
    for pat, kind in DECL_PATTERNS:
        for m in pat.finditer(masked):
            decls.setdefault(m.group(1), (kind,
                                          masked.count("\n", 0, m.start()) + 1))
    return decls


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ContractEntry:
    var: str
    op: str
    order: str
    fail: str = ""
    fn: str = ""
    role: str = ""
    why: str = ""
    count: int = 0      # 0 = any number of matching sites (>= 1)
    matched: int = 0
    near_miss: int = 0  # var/op/fn matched but orders diverged

    def describe(self) -> str:
        where = f" in {self.fn}()" if self.fn else ""
        orders = self.order + (f"/{self.fail}" if self.fail else "")
        return f"{self.var}.{self.op}({orders}){where}"


@dataclasses.dataclass
class Contract:
    name: str
    path: str
    files: list
    doc: str = ""
    doc_anchor: str = ""
    plain: list = dataclasses.field(default_factory=list)
    order_symbols: list = dataclasses.field(default_factory=list)
    atomics: list = dataclasses.field(default_factory=list)
    entries: list = dataclasses.field(default_factory=list)


def load_contract(path: str):
    with open(path, "rb") as f:
        data = tomllib.load(f)
    proto = data.get("protocol", {})
    base = os.path.dirname(path)
    files = [os.path.normpath(os.path.join(base, f))
             for f in proto.get("files", [])]
    c = Contract(
        name=proto.get("name", os.path.basename(path)),
        path=path, files=files,
        doc=proto.get("doc", ""), doc_anchor=proto.get("doc_anchor", ""),
        plain=list(proto.get("plain", [])),
        order_symbols=list(proto.get("order_symbols", [])),
        atomics=[a["name"] for a in data.get("atomic", [])],
    )
    errors = []
    for raw in data.get("site", []):
        e = ContractEntry(
            var=raw.get("var", ""), op=raw.get("op", ""),
            order=raw.get("order", ""), fail=raw.get("fail", ""),
            fn=raw.get("fn", ""), role=raw.get("role", ""),
            why=raw.get("why", ""), count=int(raw.get("count", 0)))
        if not e.var or not e.op or not e.order:
            errors.append(f"{path}: entry missing var/op/order: {raw}")
            continue
        if e.var not in c.atomics:
            errors.append(
                f"{path}: site entry for '{e.var}' which is not a declared "
                f"[[atomic]] of contract '{c.name}'")
        if ("seq_cst" in (e.order, e.fail)) and not e.why:
            errors.append(
                f"{path}: seq_cst entry {e.describe()} has no `why` — "
                f"seq_cst must justify itself")
        c.entries.append(e)
    return c, errors


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

class Linter:
    def __init__(self, repo: str, strict_advisory: bool = False):
        self.repo = repo
        self.findings = []
        self.sites_checked = 0
        self.contracts = []
        self.strict_advisory = strict_advisory

    def rel(self, path: str) -> str:
        return os.path.relpath(path, self.repo)

    def add(self, path, line, check, msg, advisory=False):
        self.findings.append(
            Finding(self.rel(path), line, check, msg, advisory))

    # -- per-file ---------------------------------------------------------
    def lint_file(self, path: str, contract):
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        masked = mask_comments_and_strings(text)
        lines = text.splitlines()
        tags = {}
        for lineno, line in enumerate(lines, 1):
            tm = TAG_RE.search(line)
            if tm:
                tags[lineno] = tm.group(1)
        scopes = ScopeIndex(masked)
        decls = declared_members(masked)
        atomic_decls = {n for n, (k, _) in decls.items() if k == "atomic"}
        plain_decls = {n for n, (k, _) in decls.items() if k == "plain"}

        sites = extract_sites(path, masked, scopes)
        sites += operator_form_sites(path, masked, atomic_decls, scopes)
        self.sites_checked += len(sites)

        plain_vars = set(contract.plain) if contract else set()
        order_symbols = set(contract.order_symbols) if contract else set()

        for s in sites:
            self._check_site(s, path, lines, tags, plain_vars, plain_decls,
                             order_symbols, contract)
        if contract:
            self._check_contract(path, contract, sites, decls)
        if os.path.basename(path).endswith("_core.h"):
            self._check_escapes(path, masked)
        self._check_relaxed_guards(path, masked, scopes, sites, tags)
        return sites

    def _site_tag(self, tags, s: Site, prefix: str) -> bool:
        for lineno in (s.line, s.line - 1):
            if lineno in tags and tags[lineno].startswith(prefix):
                return True
        return False

    def _check_site(self, s, path, lines, tags, plain_vars, plain_decls,
                    order_symbols, contract):
        is_plain = s.var in plain_vars or (
            contract is None and s.var in plain_decls)
        if is_plain:
            # Traits::var fields take no order: the protocol (drain,
            # state-CAS ownership) orders them, not the access.
            if not s.defaulted and s.op in ("load", "store"):
                self.add(path, s.line, "plain-order",
                         f"'{s.chain}.{s.op}' is a declared plain "
                         f"(Traits::var) field of contract "
                         f"'{contract.name}' but passes what looks like a "
                         f"memory order — plain accesses take none")
            return
        if s.defaulted:
            self.add(path, s.line, "defaulted-order",
                     f"'{s.chain}.{s.op}' uses the defaulted "
                     f"std::memory_order_seq_cst — name the order "
                     f"explicitly (or declare the member `plain` in its "
                     f"protocol contract if it is a Traits::var field)"
                     if s.op != "operator" else
                     f"operator form '{s.chain}' on an atomic member is a "
                     f"defaulted-seq_cst RMW — spell it as "
                     f"fetch_/store with an explicit order")
            return
        # Validate that what sits in the order position is an order.
        for o in s.orders:
            if o in ("relaxed", "consume", "acquire", "release", "acq_rel",
                     "seq_cst"):
                continue
            if o in order_symbols:
                continue
            self.add(path, s.line, "defaulted-order",
                     f"'{s.chain}.{s.op}': argument '{o}' in the memory-"
                     f"order position is neither a std::memory_order nor a "
                     f"declared order symbol of the protocol contract")
            return
        if "seq_cst" in s.orders:
            covered = contract is not None and any(
                e.var == s.var and e.op == s.op and
                (not e.fn or e.fn == s.fn) and
                self._entry_orders_match(e, s)
                for e in contract.entries)
            if not covered and not self._site_tag(tags, s, "seq_cst because"):
                self.add(path, s.line, "seq-cst-unjustified",
                         f"'{s.chain}.{s.op}' names seq_cst with neither a "
                         f"matching contract entry nor an inline "
                         f"'// ordlint: seq_cst because ...' justification")

    @staticmethod
    def _entry_orders_match(e: ContractEntry, s: Site) -> bool:
        if not s.orders:
            return False
        if s.op.startswith("compare_exchange"):
            if len(s.orders) == 1:  # combined success+failure form
                return e.order == s.orders[0] and not e.fail
            return e.order == s.orders[0] and (e.fail or e.order) == s.orders[1]
        return e.order == s.orders[0]

    def _check_contract(self, path, contract, sites, decls):
        relpath = self.rel(path)
        # Declared kinds must match the contract's classification.
        for name in contract.atomics:
            if name in decls and decls[name][0] != "atomic":
                self.add(path, decls[name][1], "contract-decl-kind",
                         f"contract '{contract.name}' declares '{name}' "
                         f"atomic but the code declares it "
                         f"{decls[name][0]}")
        for name in contract.plain:
            if name in decls and decls[name][0] != "plain":
                self.add(path, decls[name][1], "contract-decl-kind",
                         f"contract '{contract.name}' declares '{name}' "
                         f"plain (Traits::var) but the code declares it "
                         f"{decls[name][0]}")
        # Every atomic member the file declares must be contract-covered
        # (declared [[atomic]]).
        for name, (kind, line) in decls.items():
            if kind != "atomic":
                continue
            if name in contract.atomics:
                continue
            self.add(path, line, "contract-missing",
                     f"atomic member '{name}' of {relpath} is not covered "
                     f"by contract '{contract.name}' — add an [[atomic]] "
                     f"declaration and [[site]] entries for its access "
                     f"sites")
        # Conformance: every site on a contracted var matches an entry.
        for s in sites:
            if s.var not in contract.atomics:
                continue
            cands = [e for e in contract.entries
                     if e.var == s.var and e.op == s.op and
                     (not e.fn or e.fn == s.fn)]
            hit = None
            for e in cands:
                if self._entry_orders_match(e, s):
                    hit = e
                    break
            if hit is not None:
                hit.matched += 1
                continue
            for e in cands:
                e.near_miss += 1
            if s.defaulted or s.op == "operator":
                continue  # already reported as defaulted-order
            declared = ", ".join(e.describe() for e in cands) or "none"
            got = "/".join(s.orders)
            self.add(path, s.line, "contract-mismatch",
                     f"'{s.chain}.{s.op}({got})' in {s.fn or '<class scope>'}"
                     f"() does not match contract '{contract.name}' "
                     f"(declared for this var/op/role: {declared})")
    def finalize_contracts(self):
        """Stale-entry detection runs after every file of every contract
        has been linted: a contract row no code site backs is drift."""
        for contract in self.contracts:
            for e in contract.entries:
                if e.matched == 0 and e.near_miss:
                    continue  # the conformance mismatch already covers it
                if e.matched == 0:
                    self.add(contract.path, 1, "contract-stale",
                             f"contract '{contract.name}' entry "
                             f"{e.describe()} matches no site in "
                             f"{', '.join(self.rel(f) for f in contract.files)}"
                             f" — stale entry or renamed role; contracts "
                             f"must describe the code that exists")
                elif e.count and e.matched != e.count:
                    self.add(contract.path, 1, "contract-stale",
                             f"contract '{contract.name}' entry "
                             f"{e.describe()} declares count={e.count} but "
                             f"matched {e.matched} sites")

    def _check_escapes(self, path, masked):
        for m in ESCAPE_RE.finditer(masked):
            line = masked.count("\n", 0, m.start()) + 1
            tok = m.group(0).replace(" ", "")
            self.add(path, line, "traits-escape",
                     f"raw {tok.rstrip('<')} in a *_core.h protocol header "
                     f"bypasses the Traits:: synchronization seam — the "
                     f"protocol becomes invisible to hls_verify; route it "
                     f"through the Traits type")

    # Advisory: relaxed load guards a release-class commit, no re-read.
    def _check_relaxed_guards(self, path, masked, scopes, sites, tags):
        conds = []
        for m in re.finditer(r"\b(?:if|while)\s*\(", masked):
            close = match_paren(masked, m.end() - 1)
            if close > 0:
                conds.append((m.end() - 1, close))
        by_fn = {}
        for s in sites:
            by_fn.setdefault(
                (s.fn, scopes.fn_outer_extent(s.offset, s.fn)), []).append(s)
        for (fn, extent), fsites in by_fn.items():
            if not fn or extent is None:
                continue
            for s in fsites:
                if s.op != "load" or s.orders != ["relaxed"]:
                    continue
                guard = next(((a, b) for a, b in conds
                              if a <= s.offset <= b), None)
                if guard is None:
                    continue
                if self._site_tag(tags, s, "relaxed-guard-ok"):
                    continue
                commit = next(
                    (t for t in fsites
                     if t.offset > guard[1] and t.var != s.var and
                     t.op != "load" and t.orders and
                     t.orders[0] in RELEASE_CLASS), None)
                if commit is None:
                    continue
                reread = any(t.offset > guard[1] and t.var == s.var
                             for t in fsites if t is not s)
                if reread:
                    continue
                self.add(path, s.line, "relaxed-guard",
                         f"relaxed load of '{s.chain}' guards a release-"
                         f"class commit ('{commit.chain}.{commit.op}', "
                         f"line {commit.line}) with no confirming re-read "
                         f"of '{s.var}' — the Dekker re-read pattern "
                         f"(docs/runtime.md) re-reads the guard after "
                         f"announcing; annotate "
                         f"'// ordlint: relaxed-guard-ok <why>' if the "
                         f"stale read is provably benign", advisory=True)


# ---------------------------------------------------------------------------
# libclang frontend (gated): same Site records from a real AST.
# ---------------------------------------------------------------------------

def try_import_libclang():
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None, "python libclang bindings (clang.cindex) not importable"
    try:
        cindex.Index.create()
    except Exception as exc:  # library not found / version mismatch
        return None, f"libclang shared library unavailable ({exc})"
    return cindex, ""


def clang_sites_for_file(cindex, path, compile_args, repo):
    """Extracts Site records via libclang. Used when available; the text
    frontend remains the reference implementation for hosts without it."""
    index = cindex.Index.create()
    tu = index.parse(path, args=compile_args)
    sites = []

    def enclosing_fn(cur):
        p = cur.semantic_parent
        while p is not None:
            if p.kind in (cindex.CursorKind.CXX_METHOD,
                          cindex.CursorKind.FUNCTION_DECL,
                          cindex.CursorKind.FUNCTION_TEMPLATE,
                          cindex.CursorKind.CONSTRUCTOR,
                          cindex.CursorKind.DESTRUCTOR):
                return p.spelling
            p = p.semantic_parent
        return ""

    def visit(cur):
        if cur.kind == cindex.CursorKind.CALL_EXPR and \
                cur.spelling in ATOMIC_OPS and cur.location.file and \
                os.path.samefile(cur.location.file.name, path):
            args = list(cur.get_arguments())
            member = next((c for c in cur.get_children()
                           if c.kind == cindex.CursorKind.MEMBER_REF_EXPR),
                          None)
            recv_type = member.type.spelling if member else ""
            if member is not None and ("atomic" in recv_type or
                                       "plain_var" in recv_type):
                defaulted_argc, order_pos = ATOMIC_OPS[cur.spelling]
                orders = []
                for pos in order_pos:
                    if pos < len(args):
                        toks = " ".join(
                            t.spelling for t in args[pos].get_tokens())
                        om = ORDER_RE.search(toks)
                        orders.append(om.group(1) if om else toks.strip())
                sites.append(Site(
                    path=path, line=cur.location.line,
                    var=member.spelling, chain=member.spelling,
                    op=cur.spelling, orders=orders,
                    defaulted=len(args) <= defaulted_argc,
                    fn=enclosing_fn(cur), offset=0, argc=len(args)))
        for child in cur.get_children():
            visit(child)

    visit(tu.cursor)
    return sites


def clang_crosscheck(cindex, repo, files, compile_commands, text_sites):
    """Parses each file with libclang and cross-checks the defaulted-order
    classification against the text frontend, reporting divergences. The
    contract/escape/advisory checks always run on the text frontend's
    richer site records."""
    args_by_dir = ["-std=c++20", f"-I{os.path.join(repo, 'src')}"]
    diverged = []
    for path in files:
        try:
            csites = clang_sites_for_file(cindex, path, args_by_dir, repo)
        except Exception as exc:
            diverged.append(f"{path}: libclang parse failed: {exc}")
            continue
        tmap = {(s.line, s.op) for s in text_sites
                if s.path == path and s.defaulted}
        cmap = {(s.line, s.op) for s in csites if s.defaulted}
        for line, op in sorted(cmap - tmap):
            diverged.append(
                f"{path}:{line}: libclang sees a defaulted-order {op} the "
                f"text frontend missed")
    return diverged


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def discover(repo, scope_dirs):
    files, contracts = [], []
    for d in scope_dirs:
        root = os.path.join(repo, d)
        if not os.path.isdir(root):
            continue
        for dirpath, _, names in os.walk(root):
            for n in sorted(names):
                p = os.path.join(dirpath, n)
                if n.endswith(".contract.toml"):
                    contracts.append(p)
                elif n.endswith((".h", ".cpp", ".cc", ".hpp")):
                    files.append(p)
    return sorted(files), sorted(contracts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="memory-ordering contract checker (see docs/"
                    "verification.md, 'Static ordering contracts')")
    ap.add_argument("--repo", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", ".."),
        help="repository root (default: two levels up from this script)")
    ap.add_argument("--scope", nargs="*",
                    default=["src/runtime", "src/core", "src/sched"],
                    help="directories (relative to --repo) to scan")
    ap.add_argument("--frontend", choices=["auto", "text", "clang"],
                    default="auto",
                    help="auto: text checks + libclang cross-check when "
                         "available; clang: require libclang (exit 2 when "
                         "missing); text: tokenizer only")
    ap.add_argument("--compile-commands", default="build/compile_commands.json",
                    help="compilation database for the clang frontend")
    ap.add_argument("--advisory-as-error", action="store_true",
                    help="advisory findings (relaxed-guard) fail the run")
    ap.add_argument("--list-sites", action="store_true",
                    help="dump every extracted site and exit")
    args = ap.parse_args(argv)

    repo = os.path.abspath(args.repo)
    files, contract_paths = discover(repo, args.scope)
    if not files:
        print(f"ordlint: no sources under {args.scope} (repo {repo})",
              file=sys.stderr)
        return 3

    cindex, clang_reason = (None, "")
    if args.frontend in ("auto", "clang"):
        cindex, clang_reason = try_import_libclang()
        if cindex is None:
            if args.frontend == "clang":
                print(f"ordlint: libclang frontend unavailable — "
                      f"{clang_reason}; skipping (install python3-clang to "
                      f"enable)", file=sys.stderr)
                return 2
            print(f"ordlint: note: {clang_reason}; using the built-in "
                  f"tokenizer frontend")

    linter = Linter(repo)
    contracts_by_file = {}
    for cp in contract_paths:
        contract, errors = load_contract(cp)
        for e in errors:
            linter.findings.append(Finding(
                linter.rel(cp), 1, "contract-config", e))
        linter.contracts.append(contract)
        for f in contract.files:
            if not os.path.isfile(f):
                linter.findings.append(Finding(
                    linter.rel(cp), 1, "contract-config",
                    f"contract '{contract.name}' lists missing file {f}"))
                continue
            contracts_by_file[os.path.normpath(f)] = contract

    all_sites = []
    for path in files:
        contract = contracts_by_file.get(os.path.normpath(path))
        all_sites += linter.lint_file(path, contract)
    linter.finalize_contracts()

    if args.list_sites:
        for s in all_sites:
            orders = "/".join(s.orders) if s.orders else "<defaulted>"
            print(f"{linter.rel(s.path)}:{s.line}: {s.var}.{s.op} "
                  f"[{orders}] fn={s.fn or '-'}")
        return 0

    if cindex is not None:
        for msg in clang_crosscheck(cindex, repo, files,
                                    args.compile_commands, all_sites):
            linter.findings.append(Finding(msg.split(":")[0], 0,
                                           "frontend-divergence", msg))

    errors = [f for f in linter.findings if not f.advisory]
    advisories = [f for f in linter.findings if f.advisory]
    for f in sorted(linter.findings, key=lambda f: (f.path, f.line)):
        print(f.render())
    entry_total = sum(len(c.entries) for c in linter.contracts)
    print(f"ordlint: frontend={'clang+text' if cindex else 'text'} "
          f"files={len(files)} ordlint_sites_checked={linter.sites_checked} "
          f"ordlint_contracts={len(linter.contracts)} "
          f"contract_entries={entry_total} errors={len(errors)} "
          f"advisories={len(advisories)}")
    if errors or (advisories and args.advisory_as_error):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

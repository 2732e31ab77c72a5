#!/usr/bin/env python3
"""Project invariant linter for the bnash sweep core.

The sweep kernels' soundness rests on repo-wide invariants that generic
tooling cannot know about — every walker advance loop must charge
util::work_counters (the CI bench gates read those tallies), pooled work
must stay grant-aware so execution budgets are honored, deterministic
sweep code must not reach for ambient randomness, and library code must
never write to stdout (the serve fronts own the wire). This linter
enforces them mechanically at verify time instead of leaving them to PR
review.

Rules (ids are stable; waivers reference them):

  walker-charge      Every OffsetWalker/OrbitWalker advance loop in
                     src/core and src/game charges work counters
                     (work_counters_add or a digit_moves() hand-off)
                     inside its enclosing function, or carries an
                     explicit waiver:  // lint: no-charge(<reason>)
  grant-propagation  Every pooled call site outside src/util — a
                     run_blocks member call, or a util::first_hit /
                     util::for_blocks call — shows grant awareness in its
                     enclosing function (ExecutionGrant / active_grant /
                     GrantScope / work_counters_add — the latter charges
                     the active grant), or carries:
                     // lint: grant-ok(<reason>)
  pool-loop          No raw run_blocks member call outside src/util:
                     first-violation searches go through util::first_hit
                     and ordered reductions through util::for_blocks, so
                     lowest-hit, error and grant-prefix handling is
                     written once. No waiver.
  naked-thread       No std::thread / std::jthread / std::async /
                     pthread_create outside util::ThreadPool and
                     serve/socket_front.cpp (the pool and the socket
                     front's per-connection threads are the two
                     sanctioned concurrency owners; the query server
                     owns no thread). Waiver:  // lint: thread-ok(<reason>)
  no-rand            No rand()/srand()/std::random_device/arc4random in
                     library code — sweeps are deterministic and seeded
                     through util::Rng. Waiver:  // lint: rand-ok(<reason>)
  no-stdout          No std::cout / printf / puts / fprintf(stdout, ...)
                     in library code (bench/ and examples/ are exempt —
                     they are not linted). Waiver:  // lint: stdout-ok(<reason>)
  header-guard       Every header under src/ opens with #pragma once
                     before any code (and does not mix in #ifndef-style
                     guards).
  include-hygiene    No "../" relative-up includes, no <bits/...>, every
                     quoted include resolves under src/, and foo.cpp's
                     first include is its own header when one exists.
  no-decode          No payoffs_flat() member call in library code: it
                     decodes the whole exact tensor into a new vector,
                     while library code reads the payoff store (payoff_at,
                     levels, ordinal_ranks). No waiver.
  identity-forward   No function that takes a NormalFormGame and whose
                     whole body is `return f(... GameView::full(...) ...);`
                     (or GameView(...) / GameView{...}), and no
                     NormalFormGame member (defined out of line as
                     NormalFormGame::f or inside the class) whose whole
                     body is one `return` passing `*this` to a call,
                     directly or as GameView(*this). A NormalFormGame
                     converts to its identity view, so such a twin only
                     restates the view entry. No waiver.
  payoff-store       No class data member of type std::vector<Rational>
                     or std::vector<double> named payoffs..._ (the `name_`
                     spelling of owned class state) outside
                     game/normal_form.{h,cpp}: a game's payoffs live in
                     NormalFormGame's store, and a Bayesian game keeps one
                     NormalFormGame per type profile. Aggregate fields
                     holding one payoff per player (ExtensiveGame::Node::
                     payoffs, MixedEquilibrium::payoffs) and locals are not
                     stores. No waiver.

Waivers bind to the flagged line: same line, or one of the three lines
directly above it. The reason is mandatory — `// lint: no-charge()`
does not parse and the bare rule name without parentheses is ignored.

Output and gating mirror bench_diff.py: human-readable findings on
stdout, a machine-readable findings JSON via --json, a blessed
suppression baseline (scripts/lint_baseline.json) consulted by default,
and --update-baseline to re-bless after an intentional change. Exit 0
when every finding is baselined or waived, 1 otherwise, 2 on usage
errors. Fingerprints hash the rule, the file, the enclosing context and
the normalized line text — not the line number — so unrelated edits
above a blessed finding do not unbless it.
"""

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

RULE_DOCS = {
    "walker-charge": "advance loops must charge work counters (waiver: no-charge)",
    "grant-propagation": "pooled sites must be grant-aware (waiver: grant-ok)",
    "pool-loop": "no raw run_blocks outside src/util; use first_hit/for_blocks (no waiver)",
    "naked-thread": "threads only via util::ThreadPool or the socket front (waiver: thread-ok)",
    "no-rand": "no ambient randomness in library code (waiver: rand-ok)",
    "no-stdout": "no stdout writes in library code (waiver: stdout-ok)",
    "header-guard": "headers open with #pragma once",
    "include-hygiene": "includes resolve under src/, no ../ or <bits/>",
    "identity-forward": "no NormalFormGame twin or member that only forwards its identity "
                        "view (no waiver)",
    "no-decode": "no payoffs_flat() call in library code; read the payoff store (no waiver)",
    "payoff-store": "no payoffs..._ vector member outside game/normal_form; keep payoffs in "
                    "NormalFormGame's store (no waiver)",
}

WAIVER_OF_RULE = {
    "walker-charge": "no-charge",
    "grant-propagation": "grant-ok",
    "naked-thread": "thread-ok",
    "no-rand": "rand-ok",
    "no-stdout": "stdout-ok",
}

# The reason may wrap onto following comment lines; the opening line must
# carry the rule's waiver name and at least the start of the reason.
WAIVER_RE = re.compile(r"//\s*lint:\s*([a-z-]+)\(\s*([^)\n]*[^)\s])")


class Finding:
    def __init__(self, rule, path, line, message, context=""):
        self.rule = rule
        self.path = path  # repo-relative, posix
        self.line = line  # 1-based
        self.message = message
        self.context = context  # enclosing function, when known

    @property
    def fingerprint(self):
        digest = hashlib.sha256()
        digest.update(self.rule.encode())
        digest.update(self.path.encode())
        digest.update(self.context.encode())
        digest.update(self.message.encode())
        return f"{self.rule}:{self.path}:{digest.hexdigest()[:16]}"

    def as_json(self):
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "context": self.context,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


def strip_comments_and_strings(text):
    """Blank out comments, string and char literals, preserving offsets.

    Newlines inside block comments survive so line numbers stay aligned.
    Raw strings are handled with their full delimiter grammar.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif ch == "R" and text[i:i + 2] == 'R"':
            m = re.match(r'R"([^\s()\\]{0,16})\(', text[i:])
            if m is None:
                i += 1
                continue
            closer = f'){m.group(1)}"'
            j = text.find(closer, i + m.end())
            j = n - len(closer) if j == -1 else j
            for k in range(i + 1, j + len(closer)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + len(closer)
        elif ch in "\"'":
            quote, j = ch, i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch"}
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Block:
    __slots__ = ("start", "end", "kind", "name", "parent")

    def __init__(self, start, kind, name, parent):
        self.start = start  # offset of '{'
        self.end = None  # offset of matching '}'
        self.kind = kind  # function | lambda | control | namespace | class | other
        self.name = name
        self.parent = parent


def _match_paren_backwards(text, close_pos):
    depth = 0
    for i in range(close_pos, -1, -1):
        if text[i] == ")":
            depth += 1
        elif text[i] == "(":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _ident_before(text, pos):
    """Identifier ending at stripped-text position pos (exclusive)."""
    j = pos
    while j > 0 and text[j - 1].isspace():
        j -= 1
    i = j
    while i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_"):
        i -= 1
    return text[i:j]


def _classify_block(text, brace_pos):
    """Kind and name of the block opened at text[brace_pos] == '{'."""
    j = brace_pos
    while j > 0 and text[j - 1].isspace():
        j -= 1
    if j == 0:
        return "other", ""
    prev = text[j - 1]
    # Trailing function decorations between ')' and '{'.
    tail = text[max(0, j - 96):j]
    decoration = re.search(
        r"\)\s*(const\s*)?(noexcept(\s*\([^()]*\))?\s*)?(->\s*[^{;]+?\s*)?"
        r"(override\s*|final\s*)*$", tail)
    if prev == ")" or (decoration and ")" in tail):
        close = j - 1 if prev == ")" else tail.rindex(")") + max(0, j - 96)
        open_paren = _match_paren_backwards(text, close)
        if open_paren < 0:
            return "other", ""
        ident = _ident_before(text, open_paren)
        if ident in CONTROL_KEYWORDS:
            return "control", ident
        k = open_paren
        while k > 0 and text[k - 1].isspace():
            k -= 1
        if k > 0 and text[k - 1] == "]":  # lambda introducer [...](...)
            return "lambda", ""
        if ident:
            return "function", ident
        return "other", ""
    if prev == "]":  # lambda with no parameter list: [...] {
        return "lambda", ""
    ident = _ident_before(text, j)
    head = text[max(0, j - 160):j]
    if re.search(r"\bnamespace(\s+[A-Za-z_][A-Za-z0-9_:]*)?\s*$", head):
        return "namespace", ident
    if re.search(r"\b(class|struct|union|enum)\b", head) and ";" not in head.split(
            max(("class", "struct", "union", "enum"),
                key=lambda kw: head.rfind(kw)))[-1]:
        return "class", ident
    if ident in {"else", "do", "try"}:
        return "control", ident
    return "other", ""


def parse_blocks(stripped):
    """All brace blocks with kind classification, plus a lookup helper."""
    blocks = []
    stack = []
    for i, ch in enumerate(stripped):
        if ch == "{":
            kind, name = _classify_block(stripped, i)
            block = Block(i, kind, name, stack[-1] if stack else None)
            blocks.append(block)
            stack.append(block)
        elif ch == "}" and stack:
            stack.pop().end = i
    for block in stack:  # unterminated (malformed input): close at EOF
        block.end = len(stripped)
    return blocks


def innermost_block(blocks, offset):
    """Innermost block containing `offset` (None at file scope)."""
    inner = None
    for block in blocks:
        if block.start < offset and block.end is not None and offset <= block.end:
            if inner is None or block.start > inner.start:
                inner = block
    return inner


def enclosing_function(blocks, offset):
    """Outermost function/lambda block containing `offset` (None if free)."""
    chain = []
    for block in blocks:
        if block.start < offset and block.end is not None and offset <= block.end:
            chain.append(block)
    chain.sort(key=lambda b: b.start)
    for block in chain:
        if block.kind in ("function", "lambda"):
            return block
    return None


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def has_waiver(raw_lines, line, rule):
    """Waiver on the flagged line or up to three lines above it."""
    want = WAIVER_OF_RULE.get(rule)
    if want is None:
        return False
    for candidate in range(max(1, line - 3), line + 1):
        for match in WAIVER_RE.finditer(raw_lines[candidate - 1]):
            if match.group(1) == want and match.group(2).strip():
                return True
    return False


class FileUnit:
    def __init__(self, path, rel):
        self.path = path
        self.rel = rel
        self.raw = path.read_text(encoding="utf-8", errors="replace")
        self.raw_lines = self.raw.splitlines()
        self.stripped = strip_comments_and_strings(self.raw)
        self.blocks = parse_blocks(self.stripped)

    def context_at(self, offset):
        block = enclosing_function(self.blocks, offset)
        if block is None:
            return ""
        if block.kind == "lambda":
            outer = block.parent
            while outer is not None and outer.kind not in ("function",):
                outer = outer.parent
            return outer.name if outer is not None else "<lambda>"
        return block.name

    def function_text(self, offset):
        block = enclosing_function(self.blocks, offset)
        if block is None:
            return ""
        return self.stripped[block.start:block.end or len(self.stripped)]


# --------------------------------------------------------------------- rules

ADVANCE_RE = re.compile(r"\b([A-Za-z_][A-Za-z0-9_]*)\s*\.\s*advance\s*\(\s*\)")
CHARGE_RE = re.compile(r"\bwork_counters_add\s*\(|\bdigit_moves\s*\(\s*\)")
# Member-call syntax only: declarations/definitions of run_blocks (the
# pool's own, or a test double's) are not call sites.
RUN_BLOCKS_RE = re.compile(r"(?:\.|->)\s*run_blocks\s*\(")
# Pooled call sites: raw run_blocks member calls and the util block runners
# (free calls, with or without a namespace qualifier). A runner name right
# after a return type (`void for_blocks(`) is a declaration, not a call.
POOLED_CALL_RE = re.compile(
    r"(?:\.|->)\s*run_blocks\s*\(|(?<![\w.>])(?:[\w:]*::)?(?:first_hit|for_blocks)\s*\(")
RUNNER_DECL_RE = re.compile(r"(?:(?!\breturn\b)\b\w+|>)\s+$")
GRANT_RE = re.compile(
    r"\bactive_grant\s*\(|\bGrantScope\b|\bExecutionGrant\b|\bwork_counters_add\s*\(")
THREAD_RE = re.compile(
    r"\bstd\s*::\s*(thread|jthread)\b(?!\s*::)|\bstd\s*::\s*async\s*\(|\bpthread_create\s*\(")
THIS_THREAD_RE = re.compile(r"\bstd\s*::\s*this_thread\b")
RAND_RE = re.compile(
    r"\bstd\s*::\s*(?:random_device\b|s?rand\s*\()"
    r"|(?<![\w:])s?rand\s*\(|\barc4random\w*\s*\(")
STDOUT_RE = re.compile(
    r"\bstd\s*::\s*(?:cout\b|(?:printf|puts|putchar)\s*\()"
    r"|(?<![\w:])(?:printf|puts|putchar)\s*\("
    r"|\b(?:std\s*::\s*)?fprintf\s*\(\s*stdout\b")

# Member-call syntax only: the declaration and the out-of-line definition
# (`NormalFormGame::payoffs_flat()`) are not call sites.
DECODE_RE = re.compile(r"(?:\.|->)\s*payoffs_flat\s*\(")

# A vector of exact or double payoffs declared under an owned-state name.
PAYOFF_MEMBER_RE = re.compile(
    r"\bstd\s*::\s*vector\s*<\s*(?:(?:util\s*::\s*)?Rational|double)\s*>\s*"
    r"(payoffs\w*_)\s*[;{=]")
PAYOFF_STORE_HOME = ("game/normal_form.h", "game/normal_form.cpp")
CLASS_HEAD_RE = re.compile(r"\b(?:class|struct|union)\s+(\w+)")

WALKER_CHARGE_DIRS = ("core/", "game/")
THREAD_EXEMPT = ("util/thread_pool.h", "util/thread_pool.cpp", "serve/socket_front.cpp")


def check_walker_charge(unit, findings):
    if not unit.rel.startswith(WALKER_CHARGE_DIRS):
        return
    flagged_functions = set()
    for match in ADVANCE_RE.finditer(unit.stripped):
        line = line_of(unit.stripped, match.start())
        body = unit.function_text(match.start())
        if body and CHARGE_RE.search(body):
            continue
        if has_waiver(unit.raw_lines, line, "walker-charge"):
            continue
        context = unit.context_at(match.start())
        key = (context, line if not context else "")
        if key in flagged_functions:
            continue  # one finding per un-charged function, not per step
        flagged_functions.add(key)
        findings.append(Finding(
            "walker-charge", unit.rel, line,
            f"advance loop on '{match.group(1)}' never charges work counters "
            "in its enclosing function (util::work_counters_add or a "
            "digit_moves() hand-off); add the charge or waive with "
            "// lint: no-charge(<reason>)", context))


def check_grant_propagation(unit, findings):
    if unit.rel.startswith("util/"):
        return  # the pool itself and its helpers
    for match in POOLED_CALL_RE.finditer(unit.stripped):
        if RUNNER_DECL_RE.search(unit.stripped, max(0, match.start() - 64), match.start()):
            continue
        line = line_of(unit.stripped, match.start())
        body = unit.function_text(match.start())
        if body and GRANT_RE.search(body):
            continue
        if has_waiver(unit.raw_lines, line, "grant-propagation"):
            continue
        findings.append(Finding(
            "grant-propagation", unit.rel, line,
            "pooled call with no grant awareness in its enclosing "
            "function (no ExecutionGrant/active_grant/GrantScope use and no "
            "work_counters_add charge); budget enforcement relies on the "
            "block bodies charging the active grant — document where that "
            "happens with // lint: grant-ok(<reason>) or add the charge",
            unit.context_at(match.start())))


def check_pool_loop(unit, findings):
    if unit.rel.startswith("util/"):
        return  # the pool and the block runners themselves
    for match in RUN_BLOCKS_RE.finditer(unit.stripped):
        findings.append(Finding(
            "pool-loop", unit.rel, line_of(unit.stripped, match.start()),
            "raw run_blocks call outside src/util; a first-violation search "
            "goes through util::first_hit and an ordered reduction through "
            "util::for_blocks (the rule has no waiver)",
            unit.context_at(match.start())))


def check_no_decode(unit, findings):
    for match in DECODE_RE.finditer(unit.stripped):
        findings.append(Finding(
            "no-decode", unit.rel, line_of(unit.stripped, match.start()),
            "payoffs_flat() decodes the whole exact tensor into a new vector; "
            "read the payoff store instead (payoff_at, levels, "
            "ordinal_ranks; the rule has no waiver)",
            unit.context_at(match.start())))


def check_payoff_store(unit, findings):
    if unit.rel in PAYOFF_STORE_HOME:
        return
    for match in PAYOFF_MEMBER_RE.finditer(unit.stripped):
        block = innermost_block(unit.blocks, match.start())
        if block is None or block.kind != "class":
            continue  # a local or a global, not a data member
        heads = CLASS_HEAD_RE.findall(unit.stripped, max(0, block.start - 160), block.start)
        findings.append(Finding(
            "payoff-store", unit.rel, line_of(unit.stripped, match.start()),
            f"data member '{match.group(1)}' keeps a second payoff format; a "
            "game's payoffs live in NormalFormGame's store (a Bayesian game "
            "keeps one NormalFormGame per type profile; the rule has no waiver)",
            heads[-1] if heads else block.name))


def check_naked_thread(unit, findings):
    if unit.rel in THREAD_EXEMPT:
        return
    for match in THREAD_RE.finditer(unit.stripped):
        if THIS_THREAD_RE.search(unit.stripped, max(0, match.start() - 4),
                                 match.end() + 16):
            continue
        line = line_of(unit.stripped, match.start())
        if has_waiver(unit.raw_lines, line, "naked-thread"):
            continue
        findings.append(Finding(
            "naked-thread", unit.rel, line,
            "raw thread construction outside util::ThreadPool / the socket front; "
            "pooled work must go through ThreadPool::run_blocks so execution "
            "grants propagate (waive with // lint: thread-ok(<reason>))",
            unit.context_at(match.start())))


def check_no_rand(unit, findings):
    for match in RAND_RE.finditer(unit.stripped):
        line = line_of(unit.stripped, match.start())
        if has_waiver(unit.raw_lines, line, "no-rand"):
            continue
        findings.append(Finding(
            "no-rand", unit.rel, line,
            "ambient randomness in deterministic sweep code; seed util::Rng "
            "explicitly instead (waive with // lint: rand-ok(<reason>))",
            unit.context_at(match.start())))


def check_no_stdout(unit, findings):
    for match in STDOUT_RE.finditer(unit.stripped):
        line = line_of(unit.stripped, match.start())
        if has_waiver(unit.raw_lines, line, "no-stdout"):
            continue
        findings.append(Finding(
            "no-stdout", unit.rel, line,
            "stdout write in library code; the serve fronts own the wire and "
            "everything else reports through return values or std::cerr "
            "(waive with // lint: stdout-ok(<reason>))",
            unit.context_at(match.start())))


def check_header_guard(unit, findings):
    if not unit.rel.endswith(".h"):
        return
    if re.search(r"^\s*#\s*ifndef\s+\w+_H", unit.raw, re.MULTILINE):
        findings.append(Finding(
            "header-guard", unit.rel, 1,
            "#ifndef-style include guard; this repo uses #pragma once"))
        return
    for i, line in enumerate(unit.stripped.splitlines(), start=1):
        text = line.strip()
        if not text:
            continue
        if re.match(r"#\s*pragma\s+once\b", text):
            return
        findings.append(Finding(
            "header-guard", unit.rel, i,
            "header reaches code before #pragma once"))
        return
    findings.append(Finding("header-guard", unit.rel, 1, "header has no #pragma once"))


# A body that is one return statement calling something on the identity
# view, spelled GameView::full(...), GameView(...) or GameView{...}.
IDENTITY_FORWARD_RE = re.compile(
    r"\{\s*return\s+[A-Za-z_][\w:]*\s*\([^;]*\bGameView\s*(?:::\s*full\s*)?[({][^;]*;\s*\}",
    re.DOTALL)
NORMAL_FORM_RE = re.compile(r"\bNormalFormGame\b")
# A body that is one return statement passing *this to a call (or to a
# braced GameView{*this}).
MEMBER_FORWARD_RE = re.compile(
    r"\{\s*return\b[^;]*[({,]\s*\*\s*this\s*[,)}][^;]*;\s*\}", re.DOTALL)
QUALIFIED_MEMBER_RE = re.compile(r"\bNormalFormGame\s*::\s*~?\w+\s*$")
NORMAL_FORM_CLASS_RE = re.compile(r"\b(?:class|struct)\s+NormalFormGame\b[^;{}]*$")


def _is_normal_form_member(stripped, block, open_paren):
    """True when the function block is a NormalFormGame member."""
    if QUALIFIED_MEMBER_RE.search(stripped, max(0, open_paren - 160), open_paren):
        return True
    outer = block.parent
    return (outer is not None and outer.kind == "class" and
            NORMAL_FORM_CLASS_RE.search(stripped, max(0, outer.start - 160), outer.start)
            is not None)


def check_identity_forward(unit, findings):
    for block in unit.blocks:
        if block.kind != "function" or block.end is None:
            continue
        close = unit.stripped.rfind(")", 0, block.start)
        open_paren = _match_paren_backwards(unit.stripped, close)
        if open_paren < 0:
            continue
        if (MEMBER_FORWARD_RE.fullmatch(unit.stripped, block.start, block.end + 1) and
                _is_normal_form_member(unit.stripped, block, open_paren)):
            findings.append(Finding(
                "identity-forward", unit.rel, line_of(unit.stripped, block.start),
                f"NormalFormGame member '{block.name}' only passes *this on; a "
                "NormalFormGame converts to GameView implicitly, so delete the "
                "member and call the view entry",
                block.name))
            continue
        if not IDENTITY_FORWARD_RE.fullmatch(unit.stripped, block.start, block.end + 1):
            continue
        if not NORMAL_FORM_RE.search(unit.stripped, open_paren, close):
            continue
        findings.append(Finding(
            "identity-forward", unit.rel, line_of(unit.stripped, block.start),
            f"'{block.name}' takes a NormalFormGame only to forward its "
            "identity view; a NormalFormGame converts to "
            "GameView implicitly, so delete this twin and keep the view entry",
            block.name))


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(<[^>]+>|"[^"]+")', re.MULTILINE)


def check_include_hygiene(unit, findings, src_root):
    first_quoted = None
    for match in INCLUDE_RE.finditer(unit.raw):
        token = match.group(1)
        target = token[1:-1]
        line = line_of(unit.raw, match.start())
        if token.startswith("<") and target.startswith("bits/"):
            findings.append(Finding(
                "include-hygiene", unit.rel, line,
                f"non-portable libstdc++ internal header <{target}>"))
            continue
        if not token.startswith('"'):
            continue
        if first_quoted is None:
            first_quoted = (target, line)
        if target.startswith("../") or "/../" in target:
            findings.append(Finding(
                "include-hygiene", unit.rel, line,
                f'relative-up include "{target}"; include src-rooted paths '
                '("util/...", "game/...") instead'))
            continue
        if not (src_root / target).is_file():
            findings.append(Finding(
                "include-hygiene", unit.rel, line,
                f'quoted include "{target}" does not resolve under src/'))
    if unit.rel.endswith(".cpp") and first_quoted is not None:
        own_header = unit.rel[:-len(".cpp")] + ".h"
        if (src_root / own_header).is_file() and first_quoted[0] != own_header:
            findings.append(Finding(
                "include-hygiene", unit.rel, first_quoted[1],
                f'first include is "{first_quoted[0]}" but the unit\'s own '
                f'header "{own_header}" exists; include it first so the '
                "header stays self-contained"))


def lint_tree(src_root):
    findings = []
    for path in sorted(src_root.rglob("*")):
        if path.suffix not in (".h", ".cpp"):
            continue
        unit = FileUnit(path, path.relative_to(src_root).as_posix())
        check_walker_charge(unit, findings)
        check_grant_propagation(unit, findings)
        check_pool_loop(unit, findings)
        check_no_decode(unit, findings)
        check_payoff_store(unit, findings)
        check_naked_thread(unit, findings)
        check_no_rand(unit, findings)
        check_no_stdout(unit, findings)
        check_header_guard(unit, findings)
        check_include_hygiene(unit, findings, src_root)
        check_identity_forward(unit, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def load_baseline(path):
    if not path.is_file():
        return set()
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return set(data.get("suppressions", []))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent's parent)")
    parser.add_argument("--src", default="src",
                        help="source subtree to lint, relative to root (default: src)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write machine-readable findings JSON here")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="suppression baseline (default: <root>/scripts/"
                             "lint_baseline.json)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="report every finding, ignoring the baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="bless the current findings into the baseline and exit 0")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule ids and exit")
    args = parser.parse_args()

    if args.list_rules:
        for rule, doc in RULE_DOCS.items():
            print(f"{rule:<18} {doc}")
        return 0

    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent
    src_root = root / args.src
    if not src_root.is_dir():
        print(f"bnash_lint: no source tree at {src_root}", file=sys.stderr)
        return 2
    baseline_path = Path(args.baseline) if args.baseline else (
        root / "scripts" / "lint_baseline.json")

    findings = lint_tree(src_root)
    suppressions = set() if args.no_baseline else load_baseline(baseline_path)
    fresh = [f for f in findings if f.fingerprint not in suppressions]
    baselined = len(findings) - len(fresh)

    if args.json:
        payload = {
            "root": str(src_root),
            "findings": [f.as_json() for f in findings],
            "fresh": [f.fingerprint for f in fresh],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    for finding in fresh:
        where = f"{args.src}/{finding.path}:{finding.line}"
        context = f" [{finding.context}]" if finding.context else ""
        print(f"{where}: {finding.rule}{context}: {finding.message}")

    if args.update_baseline:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump({"version": 1,
                       "suppressions": sorted(f.fingerprint for f in findings)},
                      handle, indent=2)
            handle.write("\n")
        print(f"bnash_lint: baseline updated with {len(findings)} finding(s) "
              f"-> {baseline_path}")
        return 0

    summary = f"bnash_lint: {len(fresh)} finding(s)"
    if baselined:
        summary += f" ({baselined} baselined)"
    print(summary)
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repo-specific lint rules the compilers can't express.

Rules (C++ sources under src/, tests/, bench/, examples/):

  forbidden-rand        std::rand / rand() / srand / time(0)-style seeding
                        anywhere outside common/rng and common/time. All
                        randomness must flow through bglpred::Rng so folds
                        and simulations stay reproducible.
  naked-new             `new` outside a smart-pointer factory. Ownership is
                        std::unique_ptr / containers everywhere; a naked
                        new is either a leak or a double-free waiting.
  pragma-once           every header's first preprocessor directive must be
                        `#pragma once`.
  include-order         within a contiguous #include block, paths are
                        sorted; a .cpp with a same-named header must
                        include it first (catches hidden-dependency bugs).
  submit-ref-capture    ThreadPool::submit with a `[&]` capture-default.
                        Type-erased tasks outlive scopes; capture what you
                        need explicitly so reviewers can audit lifetimes.
  naked-sto             std::stoul / std::stoi and friends outside
                        common/parse. They accept a leading '-' (the value
                        wraps modulo 2^N), ignore trailing garbage, and
                        throw unnamed std:: exceptions; field parsing must
                        go through parse_u32/parse_u64, which reject all
                        three with a ParseError naming the field.
  naked-send-recv       send()/recv()/sendmsg()/recvmsg()/writev()/readv()
                        outside src/serve/net_util. The wrappers there own
                        the portability hazards (SIGPIPE via MSG_NOSIGNAL,
                        EINTR retries, partial writes — including
                        mid-iovec resume, EAGAIN vs EOF); a raw call
                        silently reintroduces them.
  naked-poll            poll()/select() (and the ppoll/pselect variants,
                        and the headers declaring them) anywhere in
                        src/serve/. Readiness flows through EventPoller,
                        the one edge-triggered epoll backend; a raw
                        poll() loop is a second, O(connections) event
                        loop.
  slow-ingest           std::istringstream / std::ostringstream or
                        std::string::substr in the ingest hot paths
                        (src/raslog/, src/preprocess/). Both allocate per
                        record; the fast path tokenizes with string_view
                        (raslog/fast_io.hpp) and formats by buffer append.
                        The reference oracle in io.cpp — kept slow on
                        purpose as the differential-testing baseline —
                        carries explicit allow markers.
  naked-store-write     std::ofstream / fopen() / O_WRONLY-style open()
                        flags / filesystem::rename in the durable-store
                        sources (src/logstore/, raslog/binary_io,
                        serve/shard_manager). Every byte of a segment,
                        manifest, binary log, or checkpoint reaches disk
                        through atomic_write_file (common/atomic_io:
                        tmp + fsync + rename + parent fsync); a direct
                        write reintroduces torn files on crash.
  serve-wall-clock      std::chrono::system_clock in src/serve/. Every
                        serve-plane deadline (idle, write-stall, drain,
                        budget windows) must come from the monotonic
                        serve/clock.hpp monotonic_micros(); the wall
                        clock jumps under NTP and would fire or starve
                        timers spuriously. The one sanctioned wall-clock
                        read — the STATS dump timestamp — carries an
                        explicit allow marker.
  simgen-materialize    LogGenerator / GeneratedLog (whole-log
                        materialization) in bench/ or src/serve/.
                        Benchmark workloads and the serve plane stream
                        records through StreamingGenerator /
                        StreamRecordSource (simgen/stream.hpp) in
                        O(chunk) memory; materializing the full log at
                        fleet scale is exactly the cost the streaming
                        path removes. The differential oracles and
                        calibration drivers that must materialize carry
                        explicit allow markers.

Suppress a finding with `// repo-lint: allow(<rule>)` on the offending
line or on the line directly above it, or add a (path, rule) pair to
ALLOWLIST below with a justification.

`--json` prints findings as a JSON array (machine-readable for CI
annotation) instead of the human `path:line: [rule] msg` lines; both
modes end with a per-rule summary on stderr.

Deeper architecture checks — module-layering DAG, hot-path allocation
regions, GCC -fanalyzer triage, cross-artifact drift — live in the
sibling tools/repo_analyze.py.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import re
import sys

SCAN_DIRS = ("src", "tests", "bench", "examples")
CXX_EXTENSIONS = (".cpp", ".hpp")

# (relative path, rule) pairs exempt from a rule, with justification.
ALLOWLIST: dict[tuple[str, str], str] = {
    # parallel_for's submit lambdas capture `&body` explicitly and the
    # caller blocks on every future before returning, so no reference can
    # dangle; listed here only as the documented exemplar of the pattern.
    ("src/parallel/parallel_for.hpp", "submit-ref-capture"):
        "futures are joined before parallel_for returns",
}

# Files allowed to touch the raw C PRNG / wall clock: they *are* the
# sanctioned wrappers.
RAND_EXEMPT = re.compile(r"^src/common/(rng|time)\.(cpp|hpp)$")

# The checked-parse helpers are the one sanctioned home for std::sto*.
STO_EXEMPT = re.compile(r"^src/common/parse\.(cpp|hpp)$")

# The socket wrappers are the one sanctioned home for raw send()/recv().
SEND_RECV_EXEMPT = re.compile(r"^src/serve/net_util\.(cpp|hpp)$")

# Ingest hot paths: record parsing/formatting and Phase-1 preprocessing
# must stay allocation-free per field (see raslog/fast_io.hpp).
SLOW_INGEST_DIRS = re.compile(r"^src/(raslog|preprocess)/")

RE_ALLOW = re.compile(r"//\s*repo-lint:\s*allow\(([a-z-]+)\)")
RE_RAND = re.compile(
    r"\bstd::rand\b|(?<![_\w:])rand\s*\(|\bsrand\s*\(|"
    r"(?<![_\w])time\s*\(\s*(0|NULL|nullptr)\s*\)")
RE_NEW = re.compile(r"(?<![_\w.])new\s+[A-Za-z_:(<]")
RE_PLACEMENT_NEW = re.compile(r"new\s*\(")
RE_INCLUDE = re.compile(r'^\s*#\s*include\s+(["<][^">]+[">])')
RE_PREPROC = re.compile(r"^\s*#\s*(\w+)")
RE_SUBMIT_REF = re.compile(r"\bsubmit\s*\(\s*\[\s*&\s*[\],]")
RE_STO = re.compile(r"\bstd\s*::\s*sto[a-z]+\s*\(")
# Raw socket I/O calls, including the ::-qualified spellings; identifiers
# like send_all / recv_some / writev_nonblocking must not match.
RE_SEND_RECV = re.compile(
    r"(?<![_\w.])(?:::\s*)?"
    r"(send(?:msg|to)?|recv(?:msg|from)?|writev|readv)\s*\(")
# Raw readiness syscalls in the serve plane. `poll` is also a protocol
# verb (ShardManager::poll, POLL_WARNINGS), so the unqualified spelling
# stays legal for the syscall name itself — but the headers that declare
# the syscalls are banned too, so an unqualified ::poll cannot slip in
# by omitting the `::`. ShardManager::poll( does not match (the `::` is
# preceded by \w); epoll_wait survives the select-alternation.
RE_POLL = re.compile(
    r"(?<![\w>])::\s*(p?poll|p?select)\s*\(|"
    r"(?<![\w.:>])(ppoll|p?select)\s*\(|"
    r"^\s*#\s*include\s*<(poll|sys/poll|sys/select)\.h>")
SERVE_DIR = re.compile(r"^src/serve/")
# Per-record allocation patterns banned from the ingest hot paths:
# stringstream round-trips and member .substr() calls.
RE_SLOW_STREAM = re.compile(r"\bstd\s*::\s*[io]?stringstream\b")
RE_SUBSTR = re.compile(r"\.substr\s*\(")
# The wall clock is banned from the serve plane: timers and deadlines
# must be monotonic (serve/clock.hpp).
RE_WALL_CLOCK = re.compile(r"\bstd\s*::\s*chrono\s*::\s*system_clock\b")
# Durable-store sources: every on-disk artifact there must be published
# through common/atomic_io's atomic_write_file. Reads (ifstream, mmap's
# O_RDONLY open) stay legal; write-mode idioms do not.
STORE_WRITE_DIRS = re.compile(
    r"^src/(logstore/|raslog/binary_io\.|serve/shard_manager\.)")
RE_STORE_WRITE = re.compile(
    r"\bstd\s*::\s*ofstream\b|\bfopen\s*\(|\bO_WRONLY\b|\bO_CREAT\b|"
    r"\bO_TRUNC\b|\bfilesystem\s*::\s*rename\b|(?<![_\w])::\s*rename\s*\(")
# Whole-log materialization is banned from benchmark workloads and the
# serve plane: they stream through simgen/stream.hpp instead. The
# materializing generator is reserved for marked oracle sites.
MATERIALIZE_DIRS = re.compile(r"^(bench/|src/serve/)")
RE_MATERIALIZE = re.compile(r"\bLogGenerator\b|\bGeneratedLog\b")


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving newlines
    so line numbers survive. Good enough for regex heuristics; not a
    lexer (raw strings are treated as plain strings)."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join("\n" if c == "\n" else " "
                               for c in text[i:j]))
            i = j
        elif ch in "\"'":
            quote = ch
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + quote if j - i >= 2
                       else text[i:j])
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class Linter:
    def __init__(self, root: str) -> None:
        self.root = root
        self.findings: list[tuple[str, int, str, str]] = []

    def report(self, path: str, line_no: int, rule: str, msg: str,
               raw_line: str = "") -> None:
        # `raw_line` may span two lines (offending line plus the one
        # above it), so a marker on either suppresses the finding.
        if (path, rule) in ALLOWLIST:
            return
        if any(m.group(1) == rule for m in RE_ALLOW.finditer(raw_line)):
            return
        self.findings.append((path, line_no, rule, msg))

    def lint_file(self, path: str) -> None:
        abs_path = os.path.join(self.root, path)
        with open(abs_path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        raw_lines = text.split("\n")
        code_lines = strip_comments_and_strings(text).split("\n")

        self.check_line_rules(path, raw_lines, code_lines)
        if path.endswith(".hpp"):
            self.check_pragma_once(path, code_lines)
        # Include paths are string literals, so the stripped text blanks
        # them out — parse includes from the raw lines.
        self.check_include_order(path, raw_lines)

    def check_line_rules(self, path: str, raw_lines: list[str],
                         code_lines: list[str]) -> None:
        rand_exempt = bool(RAND_EXEMPT.match(path))
        sto_exempt = bool(STO_EXEMPT.match(path))
        send_recv_exempt = bool(SEND_RECV_EXEMPT.match(path))
        serve_file = bool(SERVE_DIR.match(path))
        slow_ingest = bool(SLOW_INGEST_DIRS.match(path))
        store_file = bool(STORE_WRITE_DIRS.match(path))
        materialize_scope = bool(MATERIALIZE_DIRS.match(path))
        for idx, code in enumerate(code_lines):
            # Allow markers may sit on the offending line or just above.
            raw = (raw_lines[idx - 1] + "\n" if idx > 0 else "") \
                + raw_lines[idx]
            no = idx + 1
            if not rand_exempt and RE_RAND.search(code):
                self.report(path, no, "forbidden-rand",
                            "use bglpred::Rng / common/time instead of the "
                            "C PRNG or wall clock", raw)
            if not sto_exempt and RE_STO.search(code):
                self.report(path, no, "naked-sto",
                            "use parse_u32/parse_u64 from common/parse: "
                            "std::sto* wraps negative input and ignores "
                            "trailing garbage", raw)
            if RE_NEW.search(code) and not RE_PLACEMENT_NEW.search(code):
                self.report(path, no, "naked-new",
                            "allocate via std::make_unique or a container",
                            raw)
            if RE_SUBMIT_REF.search(code):
                self.report(path, no, "submit-ref-capture",
                            "submit lambdas must capture explicitly, not "
                            "[&]: the task may outlive the enclosing scope",
                            raw)
            if not send_recv_exempt and RE_SEND_RECV.search(code):
                self.report(path, no, "naked-send-recv",
                            "use the send_all/writev_all/recv_into "
                            "wrappers from serve/net_util instead of raw "
                            "send()/recv()/sendmsg()/writev()", raw)
            if serve_file and RE_POLL.search(code):
                self.report(path, no, "naked-poll",
                            "readiness goes through EventPoller (epoll); "
                            "no raw poll()/select() in src/serve/", raw)
            if serve_file and RE_WALL_CLOCK.search(code):
                self.report(path, no, "serve-wall-clock",
                            "serve-plane time must be monotonic: use "
                            "monotonic_micros() from serve/clock.hpp, not "
                            "std::chrono::system_clock", raw)
            if store_file and RE_STORE_WRITE.search(code):
                self.report(path, no, "naked-store-write",
                            "durable artifacts are published via "
                            "atomic_write_file (common/atomic_io), never "
                            "a direct ofstream/fopen/O_WRONLY write or "
                            "rename", raw)
            if materialize_scope and RE_MATERIALIZE.search(code):
                self.report(path, no, "simgen-materialize",
                            "bench/serve workloads stream via "
                            "StreamingGenerator / StreamRecordSource "
                            "(simgen/stream.hpp); whole-log "
                            "materialization is reserved for marked "
                            "differential-oracle sites", raw)
            if slow_ingest and (RE_SLOW_STREAM.search(code) or
                                RE_SUBSTR.search(code)):
                self.report(path, no, "slow-ingest",
                            "ingest hot paths must not allocate per field: "
                            "tokenize with string_view (raslog/fast_io.hpp) "
                            "and format by buffer append, not stringstream "
                            "or substr", raw)

    def check_pragma_once(self, path: str, code_lines: list[str]) -> None:
        for idx, code in enumerate(code_lines):
            m = RE_PREPROC.match(code)
            if not m:
                continue
            if m.group(1) == "pragma" and "once" in code:
                return
            self.report(path, idx + 1, "pragma-once",
                        "first preprocessor directive in a header must be "
                        "#pragma once")
            return
        self.report(path, 1, "pragma-once", "header lacks #pragma once")

    def check_include_order(self, path: str, code_lines: list[str]) -> None:
        # Gather contiguous include blocks (blank or non-include lines
        # separate blocks; ifdef-guarded includes are skipped wholesale).
        blocks: list[list[tuple[int, str]]] = []
        current: list[tuple[int, str]] = []
        depth = 0
        for idx, code in enumerate(code_lines):
            m = RE_PREPROC.match(code)
            if m and m.group(1) in ("if", "ifdef", "ifndef"):
                depth += 1
            elif m and m.group(1) == "endif":
                depth = max(0, depth - 1)
            inc = RE_INCLUDE.match(code) if depth == 0 else None
            if inc:
                current.append((idx + 1, inc.group(1)))
            elif current:
                blocks.append(current)
                current = []
        if current:
            blocks.append(current)
        if not blocks:
            return

        # A .cpp's own header comes first, alone.
        if path.endswith(".cpp"):
            base = os.path.splitext(os.path.basename(path))[0]
            own = None
            for block in blocks:
                for no, inc in block:
                    if inc.startswith('"') and \
                            os.path.splitext(os.path.basename(inc[1:-1]))[0] \
                            == base:
                        own = (no, inc)
            first_no, _ = blocks[0][0]
            if own is not None and own[0] != first_no:
                self.report(path, own[0], "include-order",
                            f"own header {own[1]} must be the first include")

        for block in blocks:
            # Own-header block of size 1 is exempt from sorting trivially;
            # compare each block against its sorted self.
            names = [inc for _, inc in block]
            if names != sorted(names):
                no = block[0][0]
                self.report(path, no, "include-order",
                            "includes within a block must be sorted "
                            "alphabetically")

    def run(self, as_json: bool = False) -> int:
        files: list[str] = []
        for scan_dir in SCAN_DIRS:
            top = os.path.join(self.root, scan_dir)
            if not os.path.isdir(top):
                continue
            for dirpath, dirnames, filenames in os.walk(top):
                # analyze_fixtures holds deliberately-violating inputs for
                # repo_analyze.py --self-test; don't lint the bait.
                dirnames[:] = [d for d in dirnames
                               if not d.startswith(("build", "."))
                               and d != "analyze_fixtures"]
                for name in sorted(filenames):
                    if name.endswith(CXX_EXTENSIONS):
                        files.append(os.path.relpath(
                            os.path.join(dirpath, name), self.root))
        for path in sorted(files):
            self.lint_file(path)

        if as_json:
            print(json.dumps(
                [{"path": path, "line": line_no, "rule": rule, "msg": msg}
                 for path, line_no, rule, msg in self.findings],
                indent=2))
        else:
            for path, line_no, rule, msg in self.findings:
                print(f"{path}:{line_no}: [{rule}] {msg}")

        # Per-rule summary on stderr so it never pollutes --json stdout.
        by_rule = collections.Counter(rule for _, _, rule, _ in self.findings)
        breakdown = ", ".join(f"{rule}: {count}"
                              for rule, count in sorted(by_rule.items()))
        print(f"repo_lint: {len(files)} files scanned, "
              f"{len(self.findings)} finding(s)"
              + (f" ({breakdown})" if breakdown else ""),
              file=sys.stderr)
        return 1 if self.findings else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON array on stdout")
    args = parser.parse_args()
    if not os.path.isdir(args.root):
        print(f"repo_lint: no such directory: {args.root}", file=sys.stderr)
        return 2
    return Linter(args.root).run(as_json=args.json)


if __name__ == "__main__":
    sys.exit(main())

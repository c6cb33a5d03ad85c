#!/usr/bin/env python3
"""Architecture conformance analyzer — the deeper sibling of repo_lint.py.

Where repo_lint.py bans single-line idioms, this pass checks properties
that need the whole repository in view. Four analyses:

  A. Include-graph layering. The module DAG below (MODULE_DAG) declares,
     for every directory under src/, exactly which modules it may
     #include from. The analyzer parses every quoted include, fails on
     edges the DAG does not declare (upward edges included), on include
     cycles at file granularity, and on declared edges no file uses any
     more (so the DAG cannot rot into fiction). `--graph-out DIR` emits
     the observed graph as include_graph.json + include_graph.dot.

       layering-undeclared-edge   file includes a module its own module
                                  does not declare (upward edge or
                                  missing declaration)
       layering-cycle             #include cycle among src/ files
       layering-stale-edge        declared edge with no remaining use
       layering-unknown-module    src/ directory absent from the DAG

  B. Hot-path allocation/exception lint. Regions bracketed by
     `// bgl:hot-begin(<tag>)` ... `// bgl:hot-end` mark per-record code
     (ingest scanner, rule matcher, online submit, serve frame loop)
     that must not allocate or throw. Inside a region the analyzer bans:

       hot-alloc          new / std::make_unique / std::make_shared
       hot-string         std::string construction, std::to_string,
                          .str() materialization
       hot-stream         std::[i/o]stringstream
       hot-throw          throw expressions
       hot-byvalue-param  container/string parameters taken by value

     plus hot-region-unbalanced (markers that do not pair up) and
     hot-region-missing (a file listed in REQUIRED_HOT_FILES carries no
     region — so deleting the annotations cannot silently disarm the
     lint).

  C. GCC -fanalyzer triage. `--fanalyzer-log FILE` parses a build log
     produced with BGL_ANALYZE=ON and checks every `-Wanalyzer-*`
     diagnostic against tools/fanalyzer_allowlist.txt. Suppressions
     need a justification; unmatched findings and stale suppressions
     both fail:

       fanalyzer-finding            diagnostic with no allowlist entry
       fanalyzer-stale-suppression  allowlist entry matching nothing

  D. Cross-artifact drift. Wire opcodes, checkpoint tags, and metric
     names each live in three places (source, tests, DESIGN.md); the
     analyzer re-derives all three sides and fails on any gap:

       drift-opcode-untested     MessageType enumerator never named in a
                                 serve test
       drift-opcode-undocumented opcode's wire name missing from the
                                 DESIGN serving section
       drift-tag-untested        checkpoint tag written in src/ but not
                                 pinned by any test literal
       drift-metric-unasserted   metric registered in src/ but asserted
                                 in no dump_json/stats_json test

Suppress a finding with `// bgl-analyze: allow(<rule>)` on the line or
the line above (analyses A and B), or a justified entry in
tools/fanalyzer_allowlist.txt (analysis C). Layering violations must be
fixed, not suppressed: the DAG itself is the only allowlist.

`--self-test` runs the rules against the known-violation fixtures under
tests/analyze_fixtures/ (one directory per case, each with analyze.json
and expected.json) and fails if any rule stops firing — the lint that
guards the code is itself regression-tested.

Exit status: 0 clean, 1 findings, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from repo_lint import strip_comments_and_strings  # noqa: E402

# --------------------------------------------------------------------------
# Repository configuration
# --------------------------------------------------------------------------

# Allowed direct dependencies, bottom layer first. An edge absent here is
# an architecture violation even if it would not create a cycle; an edge
# present here but unused is stale and must be pruned. tests/, bench/,
# and examples/ sit above every module and may include anything.
MODULE_DAG: dict[str, list[str]] = {
    "common": [],
    "parallel": ["common"],
    "bgl": ["common"],
    "raslog": ["common", "bgl"],
    "taxonomy": ["common", "bgl", "raslog"],
    "preprocess": ["common", "raslog", "taxonomy"],
    "mining": ["common", "raslog", "taxonomy"],
    "stats": ["common", "raslog", "taxonomy"],
    "predict": ["common", "raslog", "taxonomy", "mining", "stats"],
    "meta": ["common", "predict"],
    "eval": ["common", "parallel", "raslog", "stats", "predict"],
    "simgen": ["common", "bgl", "raslog", "taxonomy"],
    "logstore": ["common", "raslog", "preprocess"],
    "faultinject": ["common", "raslog", "serve", "logstore"],
    "core": ["common", "raslog", "taxonomy", "preprocess", "predict",
             "meta", "eval"],
    "serve": ["common", "parallel", "raslog", "predict", "core"],
}

# Files that must carry at least one hot region (relative to the root).
# These are the per-record paths whose allocation discipline the repo's
# benchmarks depend on; keeping them listed here means deleting the
# markers fails the analyzer instead of silently disarming it.
REQUIRED_HOT_FILES = (
    "src/common/crc32.cpp",
    "src/raslog/fast_io.cpp",
    "src/raslog/fast_io.hpp",
    "src/simgen/stream.cpp",
    "src/logstore/cursor.cpp",
    "src/mining/rules.cpp",
    "src/preprocess/phase1.cpp",
    "src/core/online.cpp",
    "src/serve/protocol.cpp",
    "src/serve/session.cpp",
    "src/serve/shard_manager.cpp",
    "src/serve/server.cpp",
    "src/serve/event_poller.cpp",
)

REPO_CONFIG = {
    "src_dir": "src",
    "dag": MODULE_DAG,
    "top_dirs": ["tests", "bench", "examples"],
    "required_hot_files": list(REQUIRED_HOT_FILES),
    "drift": {
        "protocol_header": "src/serve/protocol.hpp",
        "opcode_enum": "MessageType",
        "opcode_test_globs": ["tests/test_serve.cpp",
                              "tests/test_serve_protocol.cpp",
                              "tests/test_serve_faults.cpp",
                              "tests/test_serve_lifecycle.cpp"],
        "design_doc": "DESIGN.md",
        "design_section": 8,
        "tag_test_globs": ["tests/*.cpp"],
        "metric_test_globs": ["tests/*.cpp"],
    },
}

FANALYZER_ALLOWLIST = "tools/fanalyzer_allowlist.txt"
FIXTURE_DIR = "tests/analyze_fixtures"

# --------------------------------------------------------------------------
# Regexes
# --------------------------------------------------------------------------

RE_INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
RE_ALLOW = re.compile(r"//\s*bgl-analyze:\s*allow\(([a-z0-9-]+)\)")
RE_HOT_BEGIN = re.compile(r"//\s*bgl:hot-begin\(([\w-]+)\)")
RE_HOT_END = re.compile(r"//\s*bgl:hot-end")

RE_HOT_NEW = re.compile(r"(?<![_\w.])new\s+[A-Za-z_:(<]")
RE_HOT_MAKE = re.compile(r"\bstd\s*::\s*make_(?:unique|shared)\b")
RE_HOT_STRING = re.compile(
    r"\bstd\s*::\s*string\s*[({]|"        # explicit temporary
    r"\bstd\s*::\s*string\s+\w+|"         # owning local/member declaration
    r"\bstd\s*::\s*to_string\s*\(|"
    r"\.str\s*\(\s*\)")
RE_HOT_STREAM = re.compile(r"\bstd\s*::\s*[io]?stringstream\b")
RE_HOT_THROW = re.compile(r"(?<![_\w])throw\b")
# A container/string parameter passed by value: the type name followed by
# an identifier and a ',' or ')' — references, pointers, and local
# declarations (which end in ';' or '=' or '{') do not match.
RE_HOT_BYVALUE = re.compile(
    r"\bstd\s*::\s*(?:string|vector|deque|map|unordered_map|set|"
    r"unordered_set)\s*(?:<[^<>;=]*(?:<[^<>;=]*>)?[^<>;=]*>)?\s+\w+\s*[,)]")

RE_FANALYZER = re.compile(
    r"^(?P<path>[^:\s][^:]*):(?P<line>\d+):(?:\d+:)?\s+warning:.*"
    r"\[(?P<rule>-Wanalyzer-[a-z0-9-]+)\]")

RE_ENUMERATOR = re.compile(r"^\s*(k[A-Za-z0-9]+)\s*[=,]")
RE_TAG = re.compile(
    r'write_tag\(\s*\w+\s*,\s*"([^"\\]+)|'
    r'write_checkpoint_header\(\s*\w+\s*,\s*"([^"\\]+)"|'
    r'constexpr\s+std::string_view\s+k\w*Tag\s*=\s*"([^"\\]+)')
RE_METRIC = re.compile(
    r"\b(?:counter|gauge|histogram)\(\s*(?:[A-Za-z_][\w.]*\s*\+\s*)?"
    r'"([^"]+)"')
RE_METRIC_NAMES_BEGIN = re.compile(r"//\s*bgl:metric-names-begin")
RE_METRIC_NAMES_END = re.compile(r"//\s*bgl:metric-names-end")
RE_STRING_LITERAL = re.compile(r'"([^"\\]+)"')

HOT_LINE_RULES = (
    ("hot-alloc", RE_HOT_NEW,
     "hot regions must not allocate: no naked new"),
    ("hot-alloc", RE_HOT_MAKE,
     "hot regions must not allocate: no make_unique/make_shared"),
    ("hot-stream", RE_HOT_STREAM,
     "hot regions must not build stringstreams"),
    ("hot-string", RE_HOT_STRING,
     "hot regions must not construct std::string (use string_view or "
     "buffer appends)"),
    ("hot-throw", RE_HOT_THROW,
     "hot regions must not throw; return a status and let the cold path "
     "classify"),
    ("hot-byvalue-param", RE_HOT_BYVALUE,
     "hot-region functions take containers/strings by reference, not by "
     "value"),
)


class Finding:
    def __init__(self, path: str, line: int, rule: str, msg: str) -> None:
        self.path = path
        self.line = line
        self.rule = rule
        self.msg = msg

    def key(self) -> tuple[str, int, str]:
        return (self.path, self.line, self.rule)


class Analyzer:
    def __init__(self, root: str, config: dict) -> None:
        self.root = root
        self.config = config
        self.findings: list[Finding] = []
        # path -> (raw lines, stripped code lines), lazily loaded
        self._cache: dict[str, tuple[list[str], list[str]]] = {}

    # ---- shared helpers --------------------------------------------------

    def load(self, path: str) -> tuple[list[str], list[str]]:
        if path not in self._cache:
            with open(os.path.join(self.root, path), encoding="utf-8",
                      errors="replace") as fh:
                text = fh.read()
            self._cache[path] = (text.split("\n"),
                                 strip_comments_and_strings(text).split("\n"))
        return self._cache[path]

    def report(self, path: str, line: int, rule: str, msg: str,
               suppressible: bool = True) -> None:
        if suppressible and line > 0:
            raw_lines, _ = self.load(path)
            window = raw_lines[max(0, line - 2):line]
            for raw in window:
                if any(m.group(1) == rule for m in RE_ALLOW.finditer(raw)):
                    return
        self.findings.append(Finding(path, line, rule, msg))

    def cxx_files(self, top: str) -> list[str]:
        out: list[str] = []
        absolute = os.path.join(self.root, top)
        if not os.path.isdir(absolute):
            return out
        for dirpath, dirnames, filenames in os.walk(absolute):
            dirnames[:] = [d for d in dirnames
                           if not d.startswith(("build", "."))
                           and d != "analyze_fixtures"]
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp")):
                    out.append(os.path.relpath(os.path.join(dirpath, name),
                                               self.root))
        return sorted(out)

    def glob_files(self, patterns: list[str]) -> list[str]:
        import glob as _glob
        out: list[str] = []
        for pattern in patterns:
            for path in sorted(_glob.glob(os.path.join(self.root, pattern))):
                rel = os.path.relpath(path, self.root)
                if "analyze_fixtures" not in rel.split(os.sep):
                    out.append(rel)
        return out

    # ---- A. include-graph layering ---------------------------------------

    def analyze_layering(self, graph_out: str | None = None) -> None:
        dag: dict[str, list[str]] = self.config.get("dag") or {}
        if not dag:
            return
        src_dir = self.config.get("src_dir", "src")
        files = self.cxx_files(src_dir)

        # Validate the *declared* graph is a DAG before trusting it.
        state: dict[str, int] = {}

        def dfs_declared(module: str, trail: list[str]) -> None:
            state[module] = 1
            for dep in dag.get(module, []):
                if dep not in dag:
                    self.report("tools/repo_analyze.py", 0,
                                "layering-unknown-module",
                                f"declared dependency '{dep}' of '{module}' "
                                "is not a declared module",
                                suppressible=False)
                    continue
                if state.get(dep) == 1:
                    cycle = " -> ".join(trail + [module, dep])
                    self.report("tools/repo_analyze.py", 0, "layering-cycle",
                                f"declared module graph has a cycle: {cycle}",
                                suppressible=False)
                elif state.get(dep) is None:
                    dfs_declared(dep, trail + [module])
            state[module] = 2

        for module in dag:
            if state.get(module) is None:
                dfs_declared(module, [])

        # Observed file-level include graph (quoted includes only).
        includes: dict[str, list[tuple[int, str]]] = {}
        for path in files:
            raw_lines, _ = self.load(path)
            edges: list[tuple[int, str]] = []
            for idx, raw in enumerate(raw_lines):
                m = RE_INCLUDE.match(raw)
                if m:
                    edges.append((idx + 1, m.group(1)))
            includes[path] = edges

        def module_of(path: str) -> str | None:
            parts = path.split(os.sep)
            if len(parts) >= 3 and parts[0] == src_dir:
                return parts[1]
            return None

        used_edges: dict[tuple[str, str], list[str]] = {}
        for path in files:
            mod = module_of(path)
            if mod is None:
                continue
            if mod not in dag:
                self.report(path, 1, "layering-unknown-module",
                            f"module '{mod}' is not declared in MODULE_DAG; "
                            "add it at its layer", suppressible=False)
                continue
            for line_no, inc in includes[path]:
                inc_parts = inc.split("/")
                if len(inc_parts) < 2:
                    continue  # non-module include (own-dir relative)
                dep = inc_parts[0]
                if dep == mod or dep not in dag:
                    continue
                used_edges.setdefault((mod, dep), []).append(path)
                if dep not in dag.get(mod, []):
                    self.report(
                        path, line_no, "layering-undeclared-edge",
                        f"'{mod}' may not include '{dep}' "
                        f"(declared deps: {', '.join(dag[mod]) or 'none'}); "
                        "reroute through a lower layer or declare the edge "
                        "in MODULE_DAG", suppressible=False)

        for mod, deps in dag.items():
            for dep in deps:
                if (mod, dep) not in used_edges:
                    self.report("tools/repo_analyze.py", 0,
                                "layering-stale-edge",
                                f"declared edge {mod} -> {dep} has no "
                                "remaining #include; prune it from "
                                "MODULE_DAG", suppressible=False)

        # File-level include cycles. Quoted includes resolve against
        # src_dir (the repo convention: module-qualified paths).
        graph: dict[str, list[tuple[int, str]]] = {}
        for path in files:
            resolved: list[tuple[int, str]] = []
            for line_no, inc in includes[path]:
                target = os.path.join(src_dir, inc)
                if target in includes:
                    resolved.append((line_no, target))
            graph[path] = resolved

        visit: dict[str, int] = {}
        stack: list[str] = []
        reported_cycles: set[frozenset[str]] = set()

        def dfs_files(node: str) -> None:
            visit[node] = 1
            stack.append(node)
            for line_no, dep in graph.get(node, []):
                if visit.get(dep) == 1:
                    cycle = stack[stack.index(dep):] + [dep]
                    key = frozenset(cycle)
                    if key not in reported_cycles:
                        reported_cycles.add(key)
                        self.report(node, line_no, "layering-cycle",
                                    "include cycle: " + " -> ".join(cycle),
                                    suppressible=False)
                elif visit.get(dep) is None:
                    dfs_files(dep)
            stack.pop()
            visit[node] = 2

        for path in files:
            if visit.get(path) is None:
                dfs_files(path)

        if graph_out is not None:
            self.emit_graph(graph_out, dag, used_edges)

    def emit_graph(self, out_dir: str,
                   dag: dict[str, list[str]],
                   used: dict[tuple[str, str], list[str]]) -> None:
        os.makedirs(out_dir, exist_ok=True)
        doc = {
            "declared": {mod: sorted(deps) for mod, deps in sorted(
                dag.items())},
            "observed": [
                {"from": mod, "to": dep, "includes": len(paths),
                 "files": sorted(set(paths))}
                for (mod, dep), paths in sorted(used.items())
            ],
        }
        with open(os.path.join(out_dir, "include_graph.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        lines = ["digraph include_graph {", "  rankdir=BT;",
                 "  node [shape=box, fontname=monospace];"]
        for mod in sorted(dag):
            lines.append(f"  {mod};")
        for (mod, dep), paths in sorted(used.items()):
            lines.append(f"  {mod} -> {dep} [label=\"{len(paths)}\"];")
        lines.append("}")
        with open(os.path.join(out_dir, "include_graph.dot"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    # ---- B. hot-path allocation/exception lint ---------------------------

    def analyze_hot_paths(self) -> None:
        scan_dirs = [self.config.get("src_dir", "src")]
        files: list[str] = []
        for top in scan_dirs:
            files.extend(self.cxx_files(top))

        files_with_regions: set[str] = set()
        for path in files:
            raw_lines, code_lines = self.load(path)
            open_line = 0  # 1-based line of the unmatched hot-begin, or 0
            for idx, raw in enumerate(raw_lines):
                no = idx + 1
                if RE_HOT_BEGIN.search(raw):
                    if open_line != 0:
                        self.report(path, no, "hot-region-unbalanced",
                                    "bgl:hot-begin inside an open region "
                                    f"(opened at line {open_line})",
                                    suppressible=False)
                    open_line = no
                    files_with_regions.add(path)
                    continue
                if RE_HOT_END.search(raw):
                    if open_line == 0:
                        self.report(path, no, "hot-region-unbalanced",
                                    "bgl:hot-end without a matching "
                                    "bgl:hot-begin", suppressible=False)
                    open_line = 0
                    continue
                if open_line == 0:
                    continue
                code = code_lines[idx]
                for rule, regex, msg in HOT_LINE_RULES:
                    if regex.search(code):
                        self.report(path, no, rule, msg)
            if open_line != 0:
                self.report(path, open_line, "hot-region-unbalanced",
                            "bgl:hot-begin never closed (missing "
                            "bgl:hot-end)", suppressible=False)

        for required in self.config.get("required_hot_files", []):
            if required not in files_with_regions:
                self.report(required, 1, "hot-region-missing",
                            "file is on the hot-path inventory but carries "
                            "no bgl:hot-begin region", suppressible=False)

    # ---- C. GCC -fanalyzer triage ----------------------------------------

    def analyze_fanalyzer_log(self, log_path: str) -> None:
        allow_path = os.path.join(self.root, FANALYZER_ALLOWLIST)
        entries: list[tuple[str, str, str, int]] = []  # prefix, rule, just, n
        if os.path.isfile(allow_path):
            with open(allow_path, encoding="utf-8") as fh:
                for no, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    parts = [p.strip() for p in line.split("|")]
                    if len(parts) != 3 or not all(parts):
                        self.report(FANALYZER_ALLOWLIST, no,
                                    "fanalyzer-stale-suppression",
                                    "malformed entry; expected "
                                    "'path-prefix | -Wanalyzer-id | "
                                    "justification'", suppressible=False)
                        continue
                    entries.append((parts[0], parts[1], parts[2], no))

        matched = [False] * len(entries)
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            for line in fh:
                m = RE_FANALYZER.match(line.strip())
                if not m:
                    continue
                path = os.path.relpath(m.group("path"), self.root) \
                    if os.path.isabs(m.group("path")) else m.group("path")
                rule = m.group("rule")
                hit = False
                for i, (prefix, allowed_rule, _just, _no) in \
                        enumerate(entries):
                    if rule == allowed_rule and path.startswith(prefix):
                        matched[i] = True
                        hit = True
                if not hit:
                    self.report(path, int(m.group("line")),
                                "fanalyzer-finding",
                                f"untriaged {rule}: fix it or add a "
                                f"justified entry to {FANALYZER_ALLOWLIST}",
                                suppressible=False)
        for i, (prefix, allowed_rule, _just, no) in enumerate(entries):
            if not matched[i]:
                self.report(FANALYZER_ALLOWLIST, no,
                            "fanalyzer-stale-suppression",
                            f"'{prefix} | {allowed_rule}' matched no "
                            "diagnostic in this build; remove it",
                            suppressible=False)

    # ---- D. cross-artifact drift checks ----------------------------------

    @staticmethod
    def wire_name(enumerator: str) -> str:
        # kSubmitRecord -> SUBMIT_RECORD, kOk -> OK
        body = enumerator[1:] if enumerator.startswith("k") else enumerator
        return re.sub(r"(?<!^)(?=[A-Z])", "_", body).upper()

    def design_section_text(self, doc_path: str, section: int) -> str:
        raw_lines, _ = self.load(doc_path)
        out: list[str] = []
        active = False
        for line in raw_lines:
            m = re.match(r"^##\s+(\d+)\.", line)
            if m:
                active = int(m.group(1)) == section
            if active:
                out.append(line)
        return "\n".join(out)

    def analyze_drift(self) -> None:
        drift = self.config.get("drift")
        if not drift:
            return

        # -- opcodes ------------------------------------------------------
        header = drift["protocol_header"]
        raw_lines, _ = self.load(header)
        enum_name = drift.get("opcode_enum", "MessageType")
        enumerators: list[tuple[int, str]] = []
        in_enum = False
        for idx, raw in enumerate(raw_lines):
            if re.search(rf"enum\s+class\s+{enum_name}\b", raw):
                in_enum = True
                continue
            if in_enum:
                if raw.strip().startswith("};"):
                    break
                m = RE_ENUMERATOR.match(raw)
                if m:
                    enumerators.append((idx + 1, m.group(1)))
        test_text = "".join(
            "\n".join(self.load(p)[0])
            for p in self.glob_files(drift["opcode_test_globs"]))
        design_text = self.design_section_text(drift["design_doc"],
                                               drift["design_section"])
        for line_no, enumerator in enumerators:
            if enumerator not in test_text:
                self.report(header, line_no, "drift-opcode-untested",
                            f"wire opcode {enumerator} appears in no serve "
                            "test; add a codec/roundtrip test naming it")
            if self.wire_name(enumerator) not in design_text:
                self.report(header, line_no, "drift-opcode-undocumented",
                            f"wire opcode {enumerator} "
                            f"({self.wire_name(enumerator)}) is missing "
                            f"from {drift['design_doc']} "
                            f"§{drift['design_section']}")

        # -- checkpoint tags ----------------------------------------------
        src_files = self.cxx_files(self.config.get("src_dir", "src"))
        tags: dict[str, tuple[str, int]] = {}
        for path in src_files:
            file_raw, _ = self.load(path)
            for idx, raw in enumerate(file_raw):
                for m in RE_TAG.finditer(raw):
                    tag = next(g for g in m.groups() if g)
                    tags.setdefault(tag, (path, idx + 1))
        tag_test_text = "".join(
            "\n".join(self.load(p)[0])
            for p in self.glob_files(drift["tag_test_globs"]))
        for tag, (path, line_no) in sorted(tags.items()):
            if f'"{tag}"' not in tag_test_text:
                self.report(path, line_no, "drift-tag-untested",
                            f"checkpoint tag \"{tag}\" has no test pinning "
                            "it (add a save/load roundtrip asserting the "
                            "blob prefix)")

        # -- metric names -------------------------------------------------
        metrics: dict[str, tuple[str, int]] = {}
        for path in src_files:
            file_raw, _ = self.load(path)
            in_name_block = False
            for idx, raw in enumerate(file_raw):
                if RE_METRIC_NAMES_BEGIN.search(raw):
                    in_name_block = True
                    continue
                if RE_METRIC_NAMES_END.search(raw):
                    in_name_block = False
                    continue
                for m in RE_METRIC.finditer(raw):
                    metrics.setdefault(m.group(1), (path, idx + 1))
                if in_name_block:
                    for m in RE_STRING_LITERAL.finditer(raw):
                        metrics.setdefault(m.group(1), (path, idx + 1))
        metric_texts = [
            "\n".join(self.load(p)[0])
            for p in self.glob_files(drift["metric_test_globs"])]
        asserting = [t for t in metric_texts
                     if "dump_json" in t or "stats_json" in t]
        for name, (path, line_no) in sorted(metrics.items()):
            if not any(name in t for t in asserting):
                self.report(path, line_no, "drift-metric-unasserted",
                            f"metric \"{name}\" appears in no "
                            "dump_json/stats_json assertion; extend the "
                            "metrics inventory test")

    # ---- driver ----------------------------------------------------------

    def run(self, graph_out: str | None, fanalyzer_log: str | None) -> None:
        self.analyze_layering(graph_out)
        self.analyze_hot_paths()
        if fanalyzer_log is not None:
            self.analyze_fanalyzer_log(fanalyzer_log)
        self.analyze_drift()


def print_findings(findings: list[Finding], label: str,
                   as_json: bool) -> None:
    findings = sorted(findings, key=Finding.key)
    if as_json:
        print(json.dumps(
            [{"path": f.path, "line": f.line, "rule": f.rule,
              "message": f.msg} for f in findings], indent=2))
        return
    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.msg}")
    by_rule: dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    summary = ", ".join(f"{rule}: {n}" for rule, n in sorted(by_rule.items()))
    print(f"repo_analyze: {label}, {len(findings)} finding(s)"
          + (f" [{summary}]" if summary else ""))


def run_self_test(root: str) -> int:
    fixtures = os.path.join(root, FIXTURE_DIR)
    if not os.path.isdir(fixtures):
        print(f"repo_analyze: no fixture directory at {fixtures}",
              file=sys.stderr)
        return 2
    cases = sorted(d for d in os.listdir(fixtures)
                   if os.path.isdir(os.path.join(fixtures, d)))
    if not cases:
        print("repo_analyze: fixture directory is empty", file=sys.stderr)
        return 2
    failures = 0
    for case in cases:
        case_dir = os.path.join(fixtures, case)
        with open(os.path.join(case_dir, "analyze.json"),
                  encoding="utf-8") as fh:
            config = json.load(fh)
        with open(os.path.join(case_dir, "expected.json"),
                  encoding="utf-8") as fh:
            expected = sorted(json.load(fh))
        analyzer = Analyzer(case_dir, config)
        log = config.get("fanalyzer_log")
        analyzer.run(None, os.path.join(case_dir, log) if log else None)
        got = sorted({f"{f.rule} {f.path}" for f in analyzer.findings})
        if got != expected:
            failures += 1
            print(f"self-test FAIL [{case}]")
            for line in expected:
                if line not in got:
                    print(f"  missing: {line}")
            for line in got:
                if line not in expected:
                    print(f"  unexpected: {line}")
        else:
            print(f"self-test ok   [{case}] "
                  f"({len(expected)} expected finding(s))")
    print(f"repo_analyze: self-test, {len(cases)} case(s), "
          f"{failures} failure(s)")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="architecture conformance analyzer (see module "
                    "docstring for the rule list)")
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)")
    parser.add_argument("--graph-out", metavar="DIR", default=None,
                        help="write include_graph.{json,dot} into DIR")
    parser.add_argument("--fanalyzer-log", metavar="FILE", default=None,
                        help="triage a BGL_ANALYZE build log against "
                             "tools/fanalyzer_allowlist.txt")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON (CI annotations)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the rules against tests/analyze_fixtures/")
    args = parser.parse_args()
    if not os.path.isdir(args.root):
        print(f"repo_analyze: no such directory: {args.root}",
              file=sys.stderr)
        return 2
    if args.self_test:
        return run_self_test(args.root)
    if args.fanalyzer_log is not None and \
            not os.path.isfile(args.fanalyzer_log):
        print(f"repo_analyze: no such log: {args.fanalyzer_log}",
              file=sys.stderr)
        return 2
    analyzer = Analyzer(args.root, REPO_CONFIG)
    analyzer.run(args.graph_out, args.fanalyzer_log)
    scanned = len(analyzer._cache)
    print_findings(analyzer.findings, f"{scanned} files scanned",
                   args.json)
    return 1 if analyzer.findings else 0


if __name__ == "__main__":
    sys.exit(main())

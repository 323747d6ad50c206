#!/usr/bin/env python3
"""Documentation gate for the public surfaces.

Four checks, all run by CI (and runnable locally from the repo root
with no arguments):

1. C-ABI doc coverage — every public symbol declared in
   src/capi/fastod_c.h (functions, #define constants, typedefs) must be
   preceded by a comment block. A declaration immediately following
   another declaration shares its comment (grouped declarations like
   fastod_load_csv / fastod_load_csv_opts document the group once).

2. Link integrity — every relative markdown link in README.md and
   docs/**/*.md must resolve to an existing file (anchors are stripped;
   external http(s)/mailto links are skipped).

3. ABI version single source — the FASTOD_VERSION_MAJOR/MINOR/PATCH
   defines in src/capi/fastod_c.h are the C ABI version. The VERSION of
   the fastod_c library in CMakeLists.txt must be read from them (or, if
   spelled out, equal them).

4. Test citations — every backticked gtest name in README.md and
   docs/**/*.md, `Suite.Case` or `Suite.*`, must name a TEST, TEST_F or
   TEST_P (or, for `Suite.*`, a suite) declared under tests/, so the
   docs cannot cite a test that was renamed or removed.

Exit code 0 when all pass; 1 with a per-violation report otherwise.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CAPI_HEADER = os.path.join(REPO, "src", "capi", "fastod_c.h")
CMAKE_LISTS = os.path.join(REPO, "CMakeLists.txt")
DOC_FILES = [os.path.join(REPO, "README.md")]
DOCS_DIR = os.path.join(REPO, "docs")
TESTS_DIR = os.path.join(REPO, "tests")


def capi_doc_coverage(path):
    """Returns a list of 'file:line: message' violations."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()

    violations = []
    in_comment = False
    # True while the current run of lines is "documented": a comment
    # block, or declarations immediately following one. Any blank line
    # or undocumented construct resets it.
    documented = False

    # Lines that declare a public symbol we require docs for.
    fn_decl = re.compile(r"^[A-Za-z_][\w\s\*]*\bfastod_\w+\s*\(")
    define = re.compile(r"^#define\s+(FASTOD_\w+)")
    typedef = re.compile(r"^typedef\b.*;")
    continuation = re.compile(r"^[\s\w\*,\)\[\]]*[,\)];?\s*$")

    prev_was_decl = False
    for num, raw in enumerate(lines, 1):
        line = raw.strip()

        if in_comment:
            documented = True
            if "*/" in line:
                in_comment = False
            continue
        if line.startswith("/*") or line.startswith("//"):
            documented = True
            if line.startswith("/*") and "*/" not in line:
                in_comment = True
            continue

        if not line:
            documented = False
            prev_was_decl = False
            continue

        is_decl = bool(fn_decl.match(line) or define.match(line)
                       or typedef.match(line))
        if is_decl and line.endswith("_H_"):
            is_decl = False  # the include guard is not API surface
        if is_decl:
            if not (documented or prev_was_decl):
                symbol = re.search(r"(fastod_\w+|FASTOD_\w+)", line)
                name = symbol.group(1) if symbol else line[:40]
                violations.append(
                    f"{os.path.relpath(path, REPO)}:{num}: "
                    f"undocumented public symbol '{name}'")
            prev_was_decl = True
            # A multi-line prototype keeps prev_was_decl through its
            # continuation lines (handled below); documented is consumed.
            documented = False
            continue

        # Non-declaration code: preprocessor guards, extern "C" braces,
        # continuation lines of a multi-line prototype.
        if prev_was_decl and continuation.match(line):
            continue  # still inside the previous prototype
        prev_was_decl = False
        documented = False
    return violations


LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def markdown_files():
    files = [p for p in DOC_FILES if os.path.exists(p)]
    if os.path.isdir(DOCS_DIR):
        for root, _dirs, names in os.walk(DOCS_DIR):
            for name in sorted(names):
                if name.endswith(".md"):
                    files.append(os.path.join(root, name))
    return files


def link_integrity():
    violations = []
    for path in markdown_files():
        base = os.path.dirname(path)
        with open(path, encoding="utf-8") as f:
            for num, line in enumerate(f, 1):
                for target in LINK.findall(line):
                    if target.startswith(("http://", "https://",
                                          "mailto:", "#")):
                        continue
                    resolved = os.path.normpath(
                        os.path.join(base, target.split("#")[0]))
                    if not os.path.exists(resolved):
                        violations.append(
                            f"{os.path.relpath(path, REPO)}:{num}: "
                            f"broken relative link '{target}'")
    return violations


def abi_version_single_source(header_path, cmake_path):
    """Returns violations if the library VERSION can drift from the header."""
    with open(header_path, encoding="utf-8") as f:
        header = f.read()
    parts = []
    for part in ("MAJOR", "MINOR", "PATCH"):
        m = re.search(rf"^#define FASTOD_VERSION_{part} (\d+)$", header,
                      re.MULTILINE)
        if not m:
            return [f"{os.path.relpath(header_path, REPO)}: "
                    f"missing FASTOD_VERSION_{part}"]
        parts.append(m.group(1))
    header_version = ".".join(parts)

    with open(cmake_path, encoding="utf-8") as f:
        cmake = f.read()
    where = os.path.relpath(cmake_path, REPO)
    props = re.search(r"set_target_properties\(\s*fastod_c\s+PROPERTIES"
                      r"(.*?)\)", cmake, re.DOTALL)
    version = props and re.search(r"\bVERSION\s+(\S+)", props.group(1))
    if not version:
        return [f"{where}: no VERSION on the fastod_c library"]
    value = version.group(1)
    derived = "${FASTOD_C_VERSION}"
    reads_header = re.search(r"file\(STRINGS\s+\S*src/capi/fastod_c\.h",
                             cmake)
    if value == derived and reads_header:
        return []
    if value == header_version:
        return []
    return [f"{where}: fastod_c VERSION {value} differs from "
            f"FASTOD_VERSION_* {header_version} in src/capi/fastod_c.h"]


GTEST_NAME = re.compile(r"`([A-Z][A-Za-z0-9]*)\.(\*|[A-Z]\w*)`")
TEST_DECL = re.compile(r"\bTEST(?:_F|_P)?\(\s*(\w+)\s*,\s*(\w+)\s*\)")


def declared_tests(tests_dir):
    """Returns the set of (suite, case) pairs declared under tests_dir."""
    declared = set()
    for root, _dirs, names in os.walk(tests_dir):
        for name in names:
            if name.endswith((".cc", ".h")):
                with open(os.path.join(root, name), encoding="utf-8") as f:
                    declared.update(TEST_DECL.findall(f.read()))
    return declared


def test_citations_resolve(tests_dir):
    declared = declared_tests(tests_dir)
    suites = {suite for suite, _case in declared}
    violations = []
    for path in markdown_files():
        with open(path, encoding="utf-8") as f:
            for num, line in enumerate(f, 1):
                for suite, case in GTEST_NAME.findall(line):
                    found = (suite in suites if case == "*"
                             else (suite, case) in declared)
                    if not found:
                        violations.append(
                            f"{os.path.relpath(path, REPO)}:{num}: "
                            f"cites unknown test '{suite}.{case}'")
    return violations


def main():
    violations = capi_doc_coverage(CAPI_HEADER)
    violations += link_integrity()
    violations += abi_version_single_source(CAPI_HEADER, CMAKE_LISTS)
    violations += test_citations_resolve(TESTS_DIR)
    for v in violations:
        print(v)
    checked = len(markdown_files())
    if violations:
        print(f"\ncheck_docs: FAILED ({len(violations)} violation(s))")
        return 1
    print(f"check_docs: OK (C ABI documented; ABI version has one "
          f"source; links and cited tests resolve in {checked} markdown "
          f"file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())

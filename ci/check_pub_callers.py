#!/usr/bin/env python3
"""Fail when a first-party `pub` item has no non-test caller.

Every `pub fn`, `struct`, `enum`, `trait`, `type` and `const` declared
under `crates/*/src` must be named by some *non-test* code other than its
own definition, the `impl` headers that attach to it, and `pub use`
re-exports. Callers are the product crates' `src/` trees (bench binaries
included), the root package's `src/`, the documented examples
(`examples/`, `crates/*/examples/`) and all of the `e2e/` ledger. Tests,
`#[cfg(test)]` items and criterion benches do not count: an item only
they reach is an orphan API and goes, unless it is a test oracle listed
in `ALLOW` with its reason.

The check is by name, so an item that shares its name with any other
used identifier passes (`new`, `len`, ...). It errs toward passing; what
it reports is certainly unreferenced. An allow-listed name that gains a
caller, or no longer exists, fails too, so the list cannot go stale.

Usage: python3 ci/check_pub_callers.py [--root DIR]
"""

import argparse
import pathlib
import re
import sys

# Test oracles and harness entry points: `pub` so integration tests can
# call them, and deliberately called by no product path. At most nine,
# each with a reason.
ALLOW = {
    "check_consistency": "mesh adjacency/orientation oracle behind every mesh test",
    "is_constrained_delaunay": "empty-circumcircle oracle of the CDT and refinement tests",
    "check_well_formed": "span-nesting oracle every traced test runs on its trace",
    "chain_respects_bounds": "equation-(1) segment-length oracle of the decoupling tests",
    "triangulate_all": "serial reference the decomposed boundary-layer triangulation is held to",
    "generate_pslg": "seeded adversarial PSLG corpus of the fuzz gates",
    "write_poly": "writes the .poly replay file of a failing fuzz case",
    "chaos_run": "seeded chaos schedule behind the job server's replay-determinism test",
    "signed_area": "polygon-area oracle of the tiling and meshed-area tests",
}

DEF = re.compile(
    r"^\s*pub\s+(?:const\s+fn|unsafe\s+fn|async\s+fn|fn|struct|enum|trait|type|const)\s+"
    r"([A-Za-z_][A-Za-z0-9_]*)"
)
IMPL = re.compile(r"^\s*(?:unsafe\s+)?impl\b")
PUB_USE = re.compile(r"^\s*pub\s+use\b")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, keeping line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            depth, i = 1, i + 2
            while i < n and depth:
                if text.startswith("/*", i):
                    depth, i = depth + 1, i + 2
                elif text.startswith("*/", i):
                    depth, i = depth - 1, i + 2
                else:
                    if text[i] == "\n":
                        out.append("\n")
                    i += 1
        elif c == "r" and re.match(r'r#*"', text[i:]) and not (
            i and (text[i - 1].isalnum() or text[i - 1] == "_")
        ):
            hashes = re.match(r"r(#*)\"", text[i:]).group(1)
            end = text.find('"' + hashes, i + 2 + len(hashes))
            end = n if end < 0 else end + 1 + len(hashes)
            out.append('""' + "\n" * text.count("\n", i, end))
            i = end
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append('""' + "\n" * text.count("\n", i, j))
            i = j + 1
        elif c == "'" and re.match(r"'(?:\\.|[^\\'])'", text[i : i + 4] + " "):
            j = text.find("'", i + 2 if text[i + 1] == "\\" else i + 1)
            out.append("' '")
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_cfg_test(text: str) -> str:
    """Blanks every item annotated `#[cfg(test)]` or `#[test]`."""
    lines = text.split("\n")
    out, i = [], 0
    while i < len(lines):
        if lines[i].strip() in ("#[cfg(test)]", "#[test]"):
            depth, opened = 0, False
            while i < len(lines):
                line = lines[i]
                depth += line.count("{") - line.count("}")
                opened |= "{" in line
                out.append("")
                i += 1
                if (opened and depth <= 0) or (not opened and line.rstrip().endswith(";")):
                    break
        else:
            out.append(lines[i])
            i += 1
    return "\n".join(out)


def product_sources(root: pathlib.Path):
    patterns = (
        "crates/*/src/**/*.rs",
        "src/**/*.rs",
        "examples/**/*.rs",
        "crates/*/examples/**/*.rs",
        "e2e/src/**/*.rs",
    )
    for pattern in patterns:
        yield from sorted(root.glob(pattern))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".")
    root = pathlib.Path(ap.parse_args().root)

    defs = []  # (name, file, line number)
    uses = {}  # identifier -> count outside definitions, impls, `pub use`
    for path in product_sources(root):
        top = path.relative_to(root).parts[0]
        code = strip_comments_and_strings(path.read_text())
        # All of e2e/ counts, its unit tests included: it cannot change
        # in step with the crates, so whatever it names has to stay.
        if top != "e2e":
            code = strip_cfg_test(code)
        in_pub_use = False
        for no, line in enumerate(code.split("\n"), 1):
            m = DEF.match(line)
            if m and top == "crates":
                defs.append((m.group(1), path.relative_to(root), no))
            if PUB_USE.match(line) or in_pub_use:
                in_pub_use = ";" not in line
                continue
            if IMPL.match(line):
                continue
            names = IDENT.findall(line)
            if m:
                names.remove(m.group(1))
            for name in names:
                uses[name] = uses.get(name, 0) + 1

    orphans = [d for d in defs if d[0] not in uses and d[0] not in ALLOW]
    defined = {d[0] for d in defs}
    stale = sorted(name for name in ALLOW if name not in defined or name in uses)
    for name, path, no in orphans:
        print(f"{path}:{no}: `pub` item `{name}` has no non-test caller", file=sys.stderr)
    for name in stale:
        print(
            f"ci/check_pub_callers.py: allow-listed `{name}` is undefined or has a caller",
            file=sys.stderr,
        )
    if len(ALLOW) > 9:
        print("ci/check_pub_callers.py: the allow-list holds more than nine names", file=sys.stderr)
    if orphans or stale or len(ALLOW) > 9:
        return 1
    print(f"pub callers ok: {len(defs)} `pub` items, each named by non-test code")
    return 0


if __name__ == "__main__":
    sys.exit(main())

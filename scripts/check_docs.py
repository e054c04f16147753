#!/usr/bin/env python
"""Documentation checker: links, anchors, and runnable code blocks.

Walks README.md and docs/*.md and verifies that

1. every relative markdown link points at an existing file, and every
   ``#anchor`` (intra- or cross-document) resolves to a real heading
   (GitHub slug rules);
2. every command in a fenced ``bash``/``console`` block actually runs
   (exit 0), and every fenced ``python`` block executes — so the docs
   cannot drift from the CLI and API they describe;
3. every ``python -m repro`` subcommand appears in at least one
   documented command — new CLI verbs cannot ship undocumented;
4. every long CLI flag (``--no-cache``, ``--no-vec``, ...) is mentioned
   somewhere in README.md or docs/ — new flags cannot ship
   undocumented either.

Commands matching SKIP_PATTERNS (package installs, test-suite runs
covered by other CI jobs, path placeholders) are listed but not
executed.  ``--no-run`` restricts the check to links/anchors only.

Run from the repository root (the CI docs job does):

    PYTHONPATH=src python scripts/check_docs.py
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Commands documented but deliberately not executed here.
SKIP_PATTERNS = [
    r"\bpip install\b",      # environment mutation
    r"\bpytest\b",           # the tier-1/bench CI jobs run the suites
    r"bench_sweep\.py",      # the bench CI job runs the benchmark
    r"bench_serve\.py",      # the serve CI job runs the load generator
    r"bench_simmpi\.py",     # the simmpi CI job runs the scheduler benchmark
    r"check_bench_regression\.py",  # the vec/serve CI jobs run the gate
    r"\brepro serve\b",      # long-running server: the serve CI job smokes it
    r"\bcurl\b",             # examples assume a running server
    r"/path/to",             # placeholder paths
    r"calibrate\.py",        # calibration sweep: long-running, optional
    r"drift --update",       # rewrites the committed fidelity baseline
    r"\bgit diff\b",         # the temp workdir is not a git checkout
    r"capture_goldens\.py",  # re-records the committed golden baseline
]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
FENCE_RE = re.compile(r"^```(\w*)\s*$")


def doc_files() -> list[Path]:
    return [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading text."""
    # Drop markdown emphasis/code markup, then non-word punctuation.
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def headings_of(path: Path) -> set[str]:
    slugs: set[str] = set()
    in_fence = False
    for line in path.read_text().splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = HEADING_RE.match(line)
        if m:
            slugs.add(github_slug(m.group(2)))
    return slugs


def check_links(files: list[Path]) -> list[str]:
    errors = []
    anchors = {f: headings_of(f) for f in files}
    for f in files:
        for target in LINK_RE.findall(f.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            dest = f if not path_part else (f.parent / path_part).resolve()
            if not dest.exists():
                errors.append(f"{f.relative_to(ROOT)}: broken link -> {target}")
                continue
            if anchor and dest.suffix == ".md":
                known = anchors.get(dest, headings_of(dest))
                if anchor.lower() not in known:
                    errors.append(
                        f"{f.relative_to(ROOT)}: missing anchor -> {target}"
                    )
    return errors


def code_blocks(path: Path) -> list[tuple[str, list[str]]]:
    """(language, lines) for each fenced block with a language tag."""
    blocks = []
    lang, buf = None, []
    for line in path.read_text().splitlines():
        m = FENCE_RE.match(line)
        if m:
            if lang is None:
                lang = m.group(1) or ""
                buf = []
            else:
                blocks.append((lang, buf))
                lang = None
        elif lang is not None:
            buf.append(line)
    return [(l, b) for l, b in blocks if l]


def commands_in(lang: str, lines: list[str]) -> list[str]:
    if lang == "console":
        return [l[2:].strip() for l in lines if l.startswith("$ ")]
    if lang in ("bash", "sh", "shell"):
        return [l.strip() for l in lines
                if l.strip() and not l.strip().startswith("#")]
    return []


def cli_subcommands() -> list[str]:
    """Every ``python -m repro`` subcommand, parsed from the CLI source."""
    src = (ROOT / "src" / "repro" / "cli" / "__init__.py").read_text()
    verbs = re.findall(r'sub\.add_parser\(\s*"(\w+)"', src)
    if not verbs:
        raise SystemExit("check_docs: found no subcommands in repro/cli — "
                         "did the argparse tree move?")
    return verbs


def cli_flags() -> list[str]:
    """Every long option of the CLI, parsed from the argparse tree."""
    src = (ROOT / "src" / "repro" / "cli" / "__init__.py").read_text()
    flags = sorted(set(re.findall(r'add_argument\(\s*"(--[\w-]+)"', src)))
    if not flags:
        raise SystemExit("check_docs: found no flags in repro/cli — "
                         "did the argparse tree move?")
    return flags


def check_flag_coverage(files: list[Path]) -> list[str]:
    """Every long CLI flag must be mentioned in the docs (prose or
    code block) — undocumented flags are invisible flags."""
    corpus = "\n".join(f.read_text() for f in files)
    return [
        f"CLI flag {flag!r} is mentioned nowhere in README.md or docs/"
        for flag in cli_flags()
        if not re.search(rf"{re.escape(flag)}\b", corpus)
    ]


def check_cli_coverage(files: list[Path]) -> list[str]:
    """Every CLI verb must appear in at least one documented command, so
    new subcommands cannot ship undocumented."""
    documented = "\n".join(
        cmd
        for f in files
        for lang, lines in code_blocks(f)
        for cmd in commands_in(lang, lines)
    )
    return [
        f"CLI subcommand {verb!r} appears in no documented command "
        "(add an example to README.md or docs/)"
        for verb in cli_subcommands()
        if not re.search(rf"python -m repro {verb}\b", documented)
    ]


def run_all(files: list[Path]) -> list[str]:
    errors = []
    cache = tempfile.mkdtemp(prefix="check-docs-cache-")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = cache  # shared: later commands reuse warm results
    workdir = tempfile.mkdtemp(prefix="check-docs-run-")

    def execute(label: str, argv: list[str] | str, **kw) -> None:
        shell = isinstance(argv, str)
        proc = subprocess.run(
            argv, shell=shell, cwd=workdir, env=env,
            capture_output=True, text=True, timeout=1800, **kw,
        )
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-8:]
            errors.append(f"{label}\n    " + "\n    ".join(tail))
            print(f"  FAIL {label}")
        else:
            print(f"  ok   {label}")

    for f in files:
        rel = f.relative_to(ROOT)
        for lang, lines in code_blocks(f):
            if lang == "python":
                src = "\n".join(lines)
                execute(f"{rel}: python block", [sys.executable, "-c", src])
                continue
            for cmd in commands_in(lang, lines):
                if any(re.search(p, cmd) for p in SKIP_PATTERNS):
                    print(f"  skip {rel}: {cmd}")
                    continue
                execute(f"{rel}: {cmd}", cmd)
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--no-run", action="store_true",
                        help="check links/anchors only, skip executing blocks")
    args = parser.parse_args(argv)

    files = doc_files()
    print(f"checking {len(files)} documents: "
          + ", ".join(str(f.relative_to(ROOT)) for f in files))
    errors = check_links(files)
    if not errors:
        print("  ok   links and anchors")
    coverage = check_cli_coverage(files)
    if not coverage:
        print(f"  ok   CLI coverage ({len(cli_subcommands())} subcommands)")
    errors += coverage
    flag_coverage = check_flag_coverage(files)
    if not flag_coverage:
        print(f"  ok   CLI flag coverage ({len(cli_flags())} flags)")
    errors += flag_coverage
    for e in errors:
        print(f"  FAIL {e}")

    if not args.no_run:
        errors += run_all(files)

    if errors:
        print(f"\n{len(errors)} documentation problem(s)")
        return 1
    print("\nall documentation checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

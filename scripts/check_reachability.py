#!/usr/bin/env python3
"""Fails when a src/ header is not reachable from any program.

Usage: check_reachability.py [repo_root]

A program is a file under bench/ or examples/, or a perfbench/*.cc file.
Starting from those files, the check follows every quoted #include. An
include resolves against the including file's directory first, then
against src/. Reaching a src/ header also reaches its .cc file, whose
includes are followed too. Code that only tests include is unreached.

Every src/ header left unreached is printed, and the exit status is 1.
The modules in KEEP are exempt, each for the reason given there; a Keep
entry that a program does reach, or that no longer exists, is reported
too, so the list cannot go stale.
"""

import pathlib
import re
import sys

# Modules no program reaches that stay, with the reason each stays.
KEEP = {
    "lightrw/wrs_pipeline.h":
        "fig10's cross-validation in EXPERIMENTS.md "
        "(tests/wrs_pipeline_test.cc)",
    "hwsim/fifo.h":
        "the FIFO that lightrw/wrs_pipeline.h models fig10's sampler with",
    "rng/battery.h":
        "the RNG-substitution evidence in PAPER.md "
        "(tests/rng_battery_test.cc)",
    "rng/stat_tests.h":
        "the chi-square oracle of the sampler law tests, and "
        "rng/battery.h's statistics",
}

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def roots(root):
    for directory, pattern in (("bench", "**/*"), ("examples", "**/*"),
                               ("perfbench", "*.cc")):
        for path in sorted((root / directory).glob(pattern)):
            if path.suffix in (".h", ".cc", ".cpp"):
                yield path


def resolve(name, including, src):
    for base in (including.parent, src):
        candidate = base / name
        if candidate.is_file():
            return candidate.resolve()
    return None


def reached_files(root):
    src = (root / "src").resolve()
    seen = set()
    stack = [path.resolve() for path in roots(root)]
    while stack:
        path = stack.pop()
        if path in seen:
            continue
        seen.add(path)
        if path.suffix == ".h" and src in path.parents:
            source = path.with_suffix(".cc")
            if source.is_file():
                stack.append(source)
        text = path.read_text(encoding="utf-8", errors="replace")
        for name in INCLUDE.findall(text):
            target = resolve(name, path, src)
            if target is not None:
                stack.append(target)
    return seen


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    src = (root / "src").resolve()
    reached = reached_files(root)
    headers = sorted(path.relative_to(src).as_posix()
                     for path in src.rglob("*.h"))
    problems = []
    for header in headers:
        is_reached = (src / header) in reached
        if header in KEEP:
            if is_reached:
                problems.append(f"src/{header}: in KEEP but reached by a "
                                "program; drop it from KEEP")
        elif not is_reached:
            problems.append(f"src/{header}: no bench, example or "
                            "perfbench file reaches it")
    for header in sorted(set(KEEP) - set(headers)):
        problems.append(f"src/{header}: in KEEP but does not exist")
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} reachability problem(s)")
        return 1
    print(f"ok: {len(headers) - len(KEEP)} src/ headers reached, "
          f"{len(KEEP)} kept unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

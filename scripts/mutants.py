#!/usr/bin/env python3
"""Run a table of hand-made mutants against the tests meant to kill them.

Usage:
    python scripts/mutants.py

Each entry of MUTANTS names a file, an exact old text that occurs in it
once, the text that replaces it, and the pytest node ids to run.  Each
mutant is applied in a temporary copy of the tree, whose tests then run
with ``-x``; the mutant is killed when they fail and survives when they
pass.  An entry marked equivalent carries the reason no test can kill
it, and is expected to survive.  One line per mutant gives its verdict
and the seconds taken.  Exits 1 when a mutant not marked equivalent
survives or an entry's old text does not occur exactly once, else 0.

The table is the record of what the tests are known to catch: a change
that rewrites a mutated line updates its entry, which the Tier-1 test
tests/test_mutants.py holds to the tree.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# what a copy of the tree leaves out
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                              ".hypothesis", "out", "*.egg-info")
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str = ""  # why no test can kill it, for one that cannot


MUTANTS = (
    Mutant("exhaustive-range-seeded-from-zero", "src/kextend/verifier.py",
           "        adj, flip = [0] * n, start\n",
           "        adj, flip = [0] * n, 0\n",
           ("tests/test_verifier.py::TestCorpusRange",)),
    Mutant("code-flip-one-end", "src/kextend/verifier.py",
           "        adj[u] ^= 1 << v\n        adj[v] ^= 1 << u\n",
           "        adj[u] ^= 1 << v\n",
           ("tests/test_verifier.py::TestCorpusRange",)),
    Mutant("two-colouring-without-clash-test", "src/kextend/graphs.py",
           "            if reached & own:\n                return None\n",
           "",
           ("tests/test_graphs.py::TestBipartition::"
            "test_two_colouring_agrees_with_bipartition",)),
    Mutant("levels-shortcut-tests-connected-alone",
           "src/kextend/extendibility.py",
           "if top < 1 or not (self.connected and self.perfect):",
           "if top < 1 or not self.connected:",
           ("tests/test_verifier.py::TestGraphFacts",)),
    Mutant("perfect-without-odd-order-test", "src/kextend/extendibility.py",
           "return self.g.n % 2 == 0 and 2 * self.matching_number",
           "return 2 * self.matching_number",
           ("tests/test_verifier.py::TestPerGraphFloor",)),
    Mutant("leaf-path-5-guard-at-6", "src/kextend/matching.py",
           "if left >= 6 and _path_of_length_5(",
           "if left > 6 and _path_of_length_5(",
           ("tests/test_matching.py::TestPerfectMatching",)),
    Mutant("step-path-5-guard-at-6", "src/kextend/matching.py",
           "_path_of_length_5(adj, mask, match, a, b) if left >= 6 else None",
           "_path_of_length_5(adj, mask, match, a, b) if left > 6 else None",
           ("tests/test_matching.py::TestPerfectMatching",)),
    Mutant("walk-lo-at-u", "src/kextend/extendibility.py",
           "if blocked_below(d + 1, u + 1):",
           "if blocked_below(d + 1, u):",
           ("tests/test_extendibility.py::TestLeastBlockedWitness",),
           equivalent="u has left frees[d + 1], so free >> lo << lo is the "
                      "same mask for lo = u and lo = u + 1"),
    Mutant("walk-lo-not-advanced", "src/kextend/extendibility.py",
           "if blocked_below(d + 1, u + 1):",
           "if blocked_below(d + 1, lo):",
           ("tests/test_extendibility.py::TestLeastBlockedWitness",),
           equivalent="each set is first visited sorted, the least of its "
                      "orders, so only repeat visits of decided sets are "
                      "added"),
    Mutant("leaf-loop-skips-first-v", "src/kextend/extendibility.py",
           "            pu = prefix | 1 << u\n",
           "            pu = prefix | 1 << u\n            vs &= vs - 1\n",
           ("tests/test_extendibility.py::TestLeastBlockedWitness",)),
    Mutant("leaf-key-without-prefix", "src/kextend/extendibility.py",
           "            pu = prefix | 1 << u\n",
           "            pu = 1 << u\n",
           ("tests/test_extendibility.py::TestLeastBlockedWitness",)),
)


def table_problems(root: Path = ROOT) -> list[str]:
    """One line per entry whose old text does not occur exactly once, or
    whose name is not unique."""
    problems = []
    names = [m.name for m in MUTANTS]
    for m in MUTANTS:
        if names.count(m.name) != 1:
            problems.append(f"{m.name}: name is not unique")
        path = root / m.path
        count = path.read_text().count(m.old) if path.is_file() else 0
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in "
                            f"{m.path}")
    return problems


def run_mutant(m: Mutant) -> tuple[bool, float]:
    """(killed, seconds) of one mutant, run in a temporary copy."""
    with tempfile.TemporaryDirectory(prefix="kextend-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        path = tree / m.path
        path.write_text(path.read_text().replace(m.old, m.new, 1))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p",
                 "no:cacheprovider", *m.tests],
                cwd=tree, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:  # a hang is caught too
            return True, time.perf_counter() - start
        seconds = time.perf_counter() - start
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{m.name}: pytest exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.returncode == 1, seconds


def main() -> int:
    problems = table_problems()
    for line in problems:
        print(f"mutants: {line}", file=sys.stderr)
    if problems:
        return 1
    failed = False
    for m in MUTANTS:
        killed, seconds = run_mutant(m)
        verdict = "killed" if killed else "survived"
        if m.equivalent:
            verdict += f" (equivalent: {m.equivalent})"
        elif not killed:
            failed = True
        print(f"{m.name}: {verdict} in {seconds:.1f} s", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

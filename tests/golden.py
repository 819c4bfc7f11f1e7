"""The pinned outputs: the sha256 of the stdout of every CLI command whose
output must stay byte-identical.

``golden/golden.json`` lists ``{"argv": [...], "sha256": "..."}`` entries.
Each command runs in-process with ``golden/`` as its working directory, so
its input files are named relative to that directory and no checkout path
reaches an output.  An entry whose argv has ``--full`` is paper tier; every
other entry is desk tier and runs in tier-1
(``tests/test_cli.py::test_golden_output``).

Run the paper tier with ``python tests/golden.py``: each of its entries runs
in a fresh interpreter, so none starts with the memos, or any other state,
an earlier entry left; ``memo.clear()`` would reset the memos alone.  Each
line it prints ends with the entry's wall time, start-up of the fresh
interpreter included.
"""

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from qgap.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN_DIR / "golden.json"

# the one normalisation: a survey's --json summary line ends with the time
# it ran, which is dropped
_TIMESTAMP = re.compile(r', "timestamp": "[^"]*"\}$', re.M)


def load(path: Path = MANIFEST) -> list[dict]:
    """The manifest's entries; a repeated argv raises ValueError."""
    entries = json.loads(path.read_text(encoding="utf-8"))
    seen = set()
    for entry in entries:
        argv = tuple(entry["argv"])
        if argv in seen:
            raise ValueError(f"{path.name}: duplicate argv: {' '.join(argv)}")
        seen.add(argv)
    return entries


def is_paper(entry: dict) -> bool:
    return "--full" in entry["argv"]


def digest(argv: list[str]) -> str:
    """sha256 of the normalised stdout of ``qgap *argv`` run in GOLDEN_DIR;
    an exit code other than 0 raises AssertionError."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN_DIR)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    if code != 0:
        raise AssertionError(f"qgap {' '.join(argv)}: exit {code}, expected 0")
    return hashlib.sha256(_TIMESTAMP.sub("}", out.getvalue()).encode()).hexdigest()


def check(entry: dict) -> None:
    """Raise AssertionError naming the argv and both digests unless the
    output of ``entry["argv"]`` hashes to ``entry["sha256"]``."""
    got = digest(entry["argv"])
    if got != entry["sha256"]:
        raise AssertionError(f"qgap {' '.join(entry['argv'])}: sha256 {got}, "
                             f"pinned {entry['sha256']}")


def run_paper_tier() -> int:
    failed = 0
    spawn = multiprocessing.get_context("spawn")
    for entry in filter(is_paper, load()):
        start = time.perf_counter()
        try:
            with ProcessPoolExecutor(1, mp_context=spawn) as fresh:
                fresh.submit(check, entry).result()
        except AssertionError as exc:
            line = f"FAIL {exc}"
            failed += 1
        else:
            line = f"ok   qgap {' '.join(entry['argv'])}"
        print(f"{line} ({time.perf_counter() - start:.1f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run_paper_tier())

#!/usr/bin/env python3
"""Lint: all product code must take time from ``repro.telemetry.clock``.

Phase attribution is only trustworthy when every layer reads the same
clock — a stray ``time.perf_counter()`` in a hot loop produces timings
the profiler cannot see or calibrate away. This script fails (exit 1)
on any raw clock *call* anywhere under ``src/repro/``:

* ``time.time(`` / ``time.perf_counter(`` / ``time.monotonic(``
* bare ``perf_counter(`` / ``monotonic(`` (from-imports; import the
  sanctioned clock under another name, e.g. ``monotonic as _monotonic``)

``repro/telemetry/clock.py`` itself is the sanctioned source, the one
file exempt. String/comment matches are excluded by scanning tokenized
source, not raw text, so e.g. a ``"time.bin"`` filename never trips it.

Usage: python tools/lint_clocks.py [root]
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

#: Dotted and bare call spellings of the banned raw clocks.
BANNED = {
    ("time", "time"),
    ("time", "perf_counter"),
    ("time", "monotonic"),
}
BANNED_BARE = {"perf_counter", "monotonic"}

#: The tree whose files must use repro.telemetry.clock ...
SCAN_ROOT = Path("src") / "repro"
#: ... and the one file that may call the raw clocks: the clock itself.
EXEMPT = SCAN_ROOT / "telemetry" / "clock.py"


def scan_file(path: Path):
    """Yield ``(line, spelling)`` for each raw clock call in ``path``."""
    source = path.read_bytes()
    try:
        tokens = list(tokenize.tokenize(io.BytesIO(source).readline))
    except tokenize.TokenizeError:  # pragma: no cover - unparseable file
        return
    # Token windows: NAME(value in module) OP(.) NAME(attr) OP(()
    # for dotted calls, NAME OP(() for bare from-import calls.
    names = [
        t for t in tokens
        if t.type in (tokenize.NAME, tokenize.OP)
    ]
    for i, tok in enumerate(names):
        if tok.type != tokenize.NAME:
            continue
        # Dotted: time . perf_counter (
        if (
            i + 3 < len(names)
            and names[i + 1].string == "."
            and names[i + 2].type == tokenize.NAME
            and names[i + 3].string == "("
            and (tok.string, names[i + 2].string) in BANNED
        ):
            yield tok.start[0], f"{tok.string}.{names[i + 2].string}("
        # Bare: perf_counter ( — but not obj.perf_counter( (the dotted
        # window above already classifies those by their module name).
        elif (
            tok.string in BANNED_BARE
            and i + 1 < len(names)
            and names[i + 1].string == "("
            and (i == 0 or names[i - 1].string != ".")
        ):
            yield tok.start[0], f"{tok.string}("


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    target = root / SCAN_ROOT
    if not target.is_dir():
        print(f"lint_clocks: no such directory {target}", file=sys.stderr)
        return 2
    problems = []
    for path in sorted(target.rglob("*.py")):
        if path == root / EXEMPT:
            continue
        for line, spelling in scan_file(path):
            problems.append(f"{path.relative_to(root)}:{line}: raw clock "
                            f"call {spelling!r} — use repro.telemetry.clock")
    scanned = f"{SCAN_ROOT} except {EXEMPT}"
    if problems:
        print("\n".join(problems))
        print(f"lint_clocks: {len(problems)} raw clock call(s) in {scanned}; "
              f"import from repro.telemetry.clock instead")
        return 1
    print(f"lint_clocks: clean ({scanned})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

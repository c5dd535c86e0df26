"""Kernel smoke: which backend is serving on this machine.

``python -m repro.kernels.smoke`` opens the Makefile's ``kernel-smoke``
gate with what only a run *here* can say: what ``auto`` resolved to,
that with a ``cc`` on PATH the compiled backend **did** build, load and
pass its self-test (a failure, not a skip), and that without one the
fallback note says why. Parity and the constant-calls gate the target
runs next are tier-1 tests (``tests/test_kernel_passes.py``).
"""

from __future__ import annotations

import sys

from repro.kernels import backend_fallback_note, resolve_backend
from repro.kernels.c_backend import find_cc


def main() -> int:
    backend = resolve_backend("auto")
    note = backend_fallback_note()
    print(f"kernel backend: auto -> {backend.name}"
          + (f"  ({note})" if note else ""))
    if find_cc() is not None:
        assert backend.name == "c" and backend.hop is not None, (
            f"cc is on PATH but the compiled backend did not load: {note}"
        )
    else:
        assert backend.name == "numpy" and note and "cc" in note, (
            "without a compiler auto must serve numpy and say why"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())

"""Run as ``python -m pytest bench_e2e/tests -q`` from the repo root (the
tier-1 ``testpaths`` stays ``tests``). The program under ``src/`` is not
installed, so put it on the path the way ``python -m bench_e2e`` does."""

import sys

from bench_e2e.common import SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

"""``python3 -m benchmarks.e2e``, from the repository root."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for entry in (os.path.join(ROOT, "src"), ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)

try:
    import repro  # noqa: F401  (the program under test must be importable)
except ImportError as exc:
    sys.exit("benchmarks.e2e: the program under test is missing (%s); "
             "run from a checkout that has src/repro" % exc)

from benchmarks.e2e.cli import main  # noqa: E402

sys.exit(main())

"""``python -m benchmarks.perf`` from the repository root: the same command as ``run.py``."""

import sys

from benchmarks.perf.run import main

sys.exit(main())

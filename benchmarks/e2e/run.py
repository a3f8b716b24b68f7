"""Script entry point: ``python3 benchmarks/e2e/run.py [options]``.

Same command line as ``python -m benchmarks.e2e`` (see ``cli.py``), with
the import path set up from the checkout this file lives in, so it runs
without ``PYTHONPATH``.
"""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
# replace the script's own directory: its module names must not shadow
# top-level imports
sys.path[0] = _ROOT
sys.path.insert(1, os.path.join(_ROOT, "src"))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())

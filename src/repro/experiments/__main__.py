"""``python -m repro.experiments`` -- forwards to ``python -m repro run``."""

import sys

from repro.__main__ import main

sys.exit(main(["run", *sys.argv[1:]]))

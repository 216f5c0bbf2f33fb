"""``python -m latdir``: the same command-line interface as the ``latdir`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

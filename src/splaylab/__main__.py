"""`python -m splaylab`: the command-line harness of `splaylab.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""`python -m qouter`: the same entry point as the installed `qouter` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""``python -m retlab <command> <config>``: the ``retlab`` command from a
source checkout, with no install."""

import sys

from .cli.main import main

if __name__ == "__main__":
    sys.exit(main())

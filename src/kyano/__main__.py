"""``python -m kyano``: the command-line interface of :mod:`kyano.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

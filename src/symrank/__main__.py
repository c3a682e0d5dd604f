"""``python -m symrank``: the same command line as the ``symrank`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

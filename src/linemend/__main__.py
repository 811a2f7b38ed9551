"""``python -m linemend``: the same commands as the ``linemend`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

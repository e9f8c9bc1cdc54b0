"""``python -m tma``: the same entry point as the ``tma`` console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

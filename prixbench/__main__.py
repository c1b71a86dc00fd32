"""``python3 -m prixbench`` -- see :mod:`prixbench.cli`."""

import sys

from prixbench.cli import main

if __name__ == "__main__":
    sys.exit(main())

"""``python -m zfpd``: the same command line as ``zfpd``."""

import sys

from .cli import main

sys.exit(main())

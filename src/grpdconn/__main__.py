"""``python -m grpdconn``: the command-line interface of :mod:`grpdconn.cli`."""
import sys

from .cli import main

sys.exit(main())

"""`python -m cotype`: the command-line front end of `cotype.cli`."""

import sys

from .cli import main

sys.exit(main())

"""`python -m ttolab <command>`: the ttolab command line."""
import sys

from .cli import main

sys.exit(main())

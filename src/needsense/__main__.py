import gc
import sys

# `python -m needsense` and the installed script import numpy and the
# package with the collector off, as nearly all of it stays, then freeze it:
# a permanent generation that no later collection walks, the one at exit
# included.  The few hundred cycles the imports drop (~250 KB) stay too.
# `import needsense.cli` leaves the collector as Python sets it.
gc.disable()
from .cli import main
gc.freeze()
gc.enable()

if __name__ == "__main__":
    sys.exit(main())

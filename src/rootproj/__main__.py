"""``python -m rootproj``: the command-line interface, as the ``rootproj``
console script runs it.  The guard keeps an import of this module (a
spawned --jobs worker, say) from running a command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

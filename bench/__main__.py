"""``python -m bench``: see :mod:`bench.cli`."""

from bench.cli import main

raise SystemExit(main())

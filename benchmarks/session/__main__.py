import sys

from benchmarks.session.cli import main

sys.exit(main())

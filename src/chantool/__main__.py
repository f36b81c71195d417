import sys

from chantool.cli import entry

sys.exit(entry())

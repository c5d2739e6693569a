"""``python -m cliquellt``: the same program as the ``cliquellt`` script."""
import sys

from .cli import _program

if __name__ == "__main__":
    sys.exit(_program())

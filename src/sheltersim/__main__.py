"""``python -m sheltersim``: the same command line as the ``sheltersim``
script."""

from .cli import entry

# A spawned worker imports the main module again, as ``__mp_main__``.
if __name__ == "__main__":
    entry()

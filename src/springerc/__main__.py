"""The process entry of ``python -m springerc`` and of the ``springerc`` script."""

import gc

from .cli import main


def run():
    """Run one command, then freeze the garbage collector, however the command exits.

    At exit the interpreter runs a full cyclic collection over every object it tracks, some
    12 thousand, but skips frozen ones.  No command leaves cyclic garbage (tests/test_process.py
    pins this), so that pass would free nothing.  Reference counting still frees every object,
    ``atexit`` handlers still run and the streams are still flushed.  ``cli.main`` leaves the
    collector alone, so it can be called in-process.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())

"""Run one focklab report in a fresh interpreter and record its clock readings.

Usage: python child.py TIMES_PATH SUBCOMMAND --config CONFIG

This is ``python -m focklab.cli SUBCOMMAND --config CONFIG`` with two
``time.monotonic()`` readings written to TIMES_PATH: after ``import
focklab.cli`` and after ``focklab.cli.main`` returned and the report was
flushed.  The parent reads its own clock before the spawn, so the first
reading minus that is interpreter start plus import.  CLOCK_MONOTONIC is one
clock for every process on the machine.
"""

import sys
import time


def main() -> int:
    times_path, argv = sys.argv[1], sys.argv[2:]
    import focklab.cli
    imported = time.monotonic()
    code = focklab.cli.main(argv)
    sys.stdout.flush()
    done = time.monotonic()
    with open(times_path, "w", encoding="utf-8") as fh:
        fh.write(f"{imported!r} {done!r}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

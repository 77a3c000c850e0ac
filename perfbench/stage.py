"""Run one wordcam CLI stage and print its time, net of interpreter start-up.

    python3 perfbench/stage.py prepare --data corpus.csv --data-format csv ...

``wordcam.cli`` and numpy are imported before the clock starts, so the time
is that of the stage alone. It is printed as the last line of standard
output, ``stage_seconds <float>``; the exit code is the stage's.
"""

import sys
import time

from wordcam import cli

if __name__ == "__main__":
    t0 = time.perf_counter()
    rc = cli.main(sys.argv[1:])
    print(f"stage_seconds {time.perf_counter() - t0!r}")
    sys.exit(rc)

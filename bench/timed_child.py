"""Import a module, and run a ``twopoint`` command, timed by ``clock.Laps``.

    python bench/timed_child.py LAPS_JSON MODULE [ARG...]

Imports ``MODULE`` (stage ``import``) and, when ``ARG...`` is given,
runs ``MODULE.main(ARG...)`` (stage ``main``): ``twopoint.cli`` with
the command line ``twopoint`` would get.  Stdout, stderr and the exit
code are the command's own.  Both stages are timed against the reference
kernel, sampled every ``clock.SAMPLE_S`` seconds, and written to
``LAPS_JSON`` when the process ends.
"""

import importlib
import json
import sys

from clock import SAMPLE_S, Laps


def main() -> int:
    laps_path, module, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    lap = Laps(every=SAMPLE_S)
    try:
        mod = importlib.import_module(module)
        lap("import")
        if argv:
            code = mod.main(argv)
            lap("main")
            return code
        return 0
    finally:
        lap.stop()
        with open(laps_path, "w", encoding="utf-8") as fh:
            json.dump({"wall": lap.wall, "ref": lap.ref,
                       "kernel_s": lap.kernel_s}, fh)


if __name__ == "__main__":
    sys.exit(main())

"""Run one ``twopoint`` command in this process with the span wrappers on.

    python bench/traced_cli.py SPANS_JSON (alloc|time) ARG...

``ARG...`` is the command line ``twopoint`` would get.  Stdout, stderr
and the exit code are the command's own; the spans are written to
``SPANS_JSON`` when the command ends.  ``alloc`` also measures the peak
allocation of the spans named in ``tracing.ALLOC_SPANS``.
"""

import json
import sys

from tracing import Recorder


def main() -> int:
    spans_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from twopoint import cli
    rec = Recorder(measure_alloc=mode == "alloc")
    try:
        with rec.installed():
            return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh)


if __name__ == "__main__":
    sys.exit(main())

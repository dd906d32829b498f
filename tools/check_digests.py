"""Compare the output digests of a base and a head checkout against the
output files the head declares it changes.

    python tools/check_digests.py base-digests.json head-digests.json \
        tools/digest_changes.json

The first two files are written by ``output_digests.py``.  The third is a
JSON list of output file names (keys of the digest files), empty unless a
change means to alter some outputs.  Exits 1, naming each file, when a file
off the list differs between base and head (a new digest, or a file on one
side only), or when a file on the list does not differ.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def check(base: dict, head: dict, declared: list) -> list:
    """One line per file that breaks the declaration; empty if none."""
    changed = {name for name in base.keys() | head.keys()
               if base.get(name) != head.get(name)}
    return ([f"changed but not declared: {name}"
             for name in sorted(changed - set(declared))] +
            [f"declared but unchanged: {name}"
             for name in sorted(set(declared) - changed)])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, head, declared = (json.loads(Path(a).read_text()) for a in argv)
    if not (isinstance(declared, list)
            and all(isinstance(name, str) for name in declared)):
        print(f"{argv[2]}: expected a JSON list of file names", file=sys.stderr)
        return 2
    problems = check(base, head, declared)
    for line in problems:
        print(line)
    print(f"{len(base)} base and {len(head)} head digests, "
          f"{len(declared)} declared changes: "
          f"{'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Exit with code 0 when two JSON documents are the same bytes once their
``wall_time_s`` field, which each must hold exactly once, is masked; fail an
assertion otherwise.

    python .github/same_document.py FIRST.json SECOND.json
"""

import re
import sys


def masked(path: str) -> bytes:
    with open(path, "rb") as fh:
        text = fh.read()
    out, n = re.subn(rb'"wall_time_s": [^,\n}]*', b'"wall_time_s": null', text)
    assert n == 1, (path, n)
    return out


first, second = sys.argv[1:]
assert masked(first) == masked(second), f"{first} and {second} differ beyond wall_time_s"

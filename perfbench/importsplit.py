"""Split ``import qdephase`` time by package from ``python -X importtime``.

Every module imported under ``qdephase`` is charged to the dependency
whose import caused it: the outermost numpy or scipy module on its import
path, else qdephase itself.  So numpy submodules and stdlib modules that
only scipy pulls in count as scipy, and the three shares add up to the
cumulative time of ``import qdephase`` (to the microsecond rounding of
``-X importtime``).
"""

from __future__ import annotations

import re

BUCKETS = ("numpy", "scipy", "qdephase")
_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)\s*$")


def parse(stderr: str, root: str = "qdephase") -> dict[str, float]:
    """Seconds per bucket for the import of ``root`` (keys *_s and total_s)."""
    stack: list[dict] = []  # finished modules whose parent has not been seen yet
    top = None
    for line in stderr.splitlines():
        m = _LINE.match(line)
        if not m:
            continue
        node = {
            "self": int(m.group(1)),
            "cum": int(m.group(2)),
            "level": len(m.group(3)) // 2,
            "name": m.group(4),
            "children": [],
        }
        # importtime prints in post-order: deeper lines just before are children
        while stack and stack[-1]["level"] > node["level"]:
            node["children"].append(stack.pop())
        stack.append(node)
        if node["name"] == root and node["level"] == 0:
            top = node
    if top is None:
        raise ValueError(f"no top-level import of {root!r} in -X importtime output")
    shares = {b: 0 for b in BUCKETS}

    def walk(node: dict, bucket: str) -> None:
        head = node["name"].split(".")[0]
        if bucket == root and head in shares:
            bucket = head
        shares[bucket] += node["self"]
        for child in node["children"]:
            walk(child, bucket)

    walk(top, root)
    return {
        "total_s": top["cum"] * 1e-6,
        "numpy_s": shares["numpy"] * 1e-6,
        "scipy_s": shares["scipy"] * 1e-6,
        "qdephase_self_s": shares["qdephase"] * 1e-6,
    }

#!/usr/bin/env python3
"""Print the facet count and one sha256 over every facet of both tiers.

    PYTHONPATH=src python3 scripts/facet_digest.py

Each id of the catalog is built at its quick and then its full
parameters, with ``counts_max`` and ``triples_max`` clamped by
``registry._clamped``, as ``run_check`` clamps and reports them.  The
digest covers each facet's id, level, label, kind and both sides; a
series enters as its order2 and its sorted terms, so the digest does not
depend on how a series is stored.  Two checkouts whose digests are equal
build the same facets with the same values.
"""

from __future__ import annotations

import hashlib
import sys

from ggq.registry import REGISTRY, _clamped, registry_ids
from ggq.series import TruncSeries


def canonical(side: object) -> object:
    if isinstance(side, TruncSeries):
        return side.order2, sorted(side.terms.items())
    return list(side)


def digest() -> tuple[dict[str, int], str]:
    """Facets per level, and the sha256 over all of them."""
    h = hashlib.sha256()
    counts = {}
    for level in ("quick", "full"):
        counts[level] = 0
        for check_id in registry_ids():
            entry = REGISTRY[check_id]
            for f in entry.builder(**_clamped(getattr(entry, level))):
                row = (check_id, level, f.label, f.kind, canonical(f.got), canonical(f.expected))
                h.update(repr(row).encode())
                counts[level] += 1
    return counts, h.hexdigest()


def main() -> int:
    counts, hexdigest = digest()
    print(f"{sum(counts.values())} facets ({counts['quick']} quick + {counts['full']} full)")
    print(f"sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

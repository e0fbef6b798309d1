#!/usr/bin/env python
"""Regenerate the DESIGN.md §10 event-taxonomy table from TOPIC_REGISTRY.

The canonical topic registry lives in ``src/repro/obs/bus.py``; the
markdown table between the ``<!-- topic-table:begin -->`` /
``<!-- topic-table:end -->`` markers in DESIGN.md is generated from it::

    python tools/make_event_taxonomy.py            # rewrite DESIGN.md
    python tools/make_event_taxonomy.py --check    # exit 1 if stale

Like ``python -m repro``, it needs the package importable (``PYTHONPATH=src``
or an installed checkout).  ``python -m repro lint`` rule R004 enforces the
same freshness in CI, so run this after any registry change.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.analysis.contracts import TABLE_BEGIN, TABLE_END
from repro.obs.bus import render_topic_table

DESIGN = Path(__file__).resolve().parent.parent / "DESIGN.md"


def main() -> int:
    check = "--check" in sys.argv[1:]
    text = DESIGN.read_text()
    begin, end = text.find(TABLE_BEGIN), text.find(TABLE_END)
    if begin < 0 or end < 0 or end < begin:
        print(f"error: {TABLE_BEGIN} / {TABLE_END} markers not found in "
              f"{DESIGN.name}", file=sys.stderr)
        return 2
    updated = (
        text[:begin + len(TABLE_BEGIN)]
        + "\n" + render_topic_table() + "\n"
        + text[end:]
    )
    if updated == text:
        print(f"{DESIGN.name} topic table is up to date")
        return 0
    if check:
        print(f"{DESIGN.name} topic table is stale — run "
              "python tools/make_event_taxonomy.py", file=sys.stderr)
        return 1
    DESIGN.write_text(updated)
    print(f"wrote {DESIGN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fold a traced run's spans file into per-layer shares by request kind.

Usage, from the root of the repository::

    python3 servicebench/shares.py servicebench/out/spans-commute-seed7.csv.gz

For every request kind of the timed phase (``tick``, ``op``) it prints
the kind's traced time, each layer's share of it in self time, the
largest spans by self time with their inclusive share, and the share of
``server.store_private`` (inclusive) plus ``continuous.notify`` -- the
tick profile ROADMAP item 1 predicts.  The README's table of shares was
made with it.
"""

from __future__ import annotations

import csv
import gzip
import sys
from collections import defaultdict

TOP_SPANS = 8


def fold(path: str) -> None:
    with gzip.open(path, "rt", newline="") as handle:
        rows = list(csv.DictReader(handle))
    duration = [float(r["end_us"]) - float(r["start_us"]) for r in rows]
    child = [0.0] * len(rows)
    for i, row in enumerate(rows):
        parent = int(row["parent"])
        if parent >= 0:
            child[parent] += duration[i]
    total: defaultdict[str, float] = defaultdict(float)
    own: defaultdict[str, defaultdict[str, float]] = defaultdict(lambda: defaultdict(float))
    incl: defaultdict[str, defaultdict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, row in enumerate(rows):
        kind = row["kind"]
        if kind == "setup":
            continue
        own[kind][row["name"]] += duration[i] - child[i]
        incl[kind][row["name"]] += duration[i]
        if int(row["parent"]) < 0:
            total[kind] += duration[i]

    print(path)
    for kind in sorted(own):
        whole = total[kind]
        layers: defaultdict[str, float] = defaultdict(float)
        for name, seconds in own[kind].items():
            layers[name.split(".")[0]] += seconds
        print(f"  {kind}: {whole / 1e6:.3f} s traced")
        print("    layers " + ", ".join(
            f"{layer} {seconds / whole:.1%}"
            for layer, seconds in sorted(layers.items(), key=lambda item: -item[1])
        ))
        largest = sorted(own[kind].items(), key=lambda item: -item[1])[:TOP_SPANS]
        for name, seconds in largest:
            print(f"    {name:40s} self {seconds / whole:6.1%}  "
                  f"incl {incl[kind][name] / whole:6.1%}")
        if "server.store_private" in incl[kind]:
            tick_profile = incl[kind]["server.store_private"] + own[kind].get(
                "continuous.notify", 0.0
            )
            print(f"    server.store_private (incl) + continuous.notify "
                  f"{tick_profile / whole:.1%}")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    for spans in sys.argv[1:]:
        fold(spans)

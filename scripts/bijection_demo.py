#!/usr/bin/env python3
"""Walk the staged bijection on every weighted member of a given size.

Prints each pipeline stage per member and mark choice, then the column
split of one large partition whose rows exercise the graph dissection.
"""

import argparse

from ggq.bijection import ferrers_graph, ferrers_split, identify, trace_pipeline
from ggq.partitions import Partition, enumerate_members


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=13, help="partition size to walk")
    args = ap.parse_args()

    for pi in enumerate_members("S", args.n):
        for choice in identify(pi).choices():
            for stage, value in trace_pipeline(pi, choice):
                print(f"  {stage:>16}: {value}")
            print()

    big = Partition((5, 15, 24, 29))
    print("column split of", "+".join(map(str, big.parts)))
    for row in ferrers_graph(big):
        print("  ", " ".join(map(str, row)))
    pi3, pi4 = ferrers_split(big)
    print("  fours ->", "+".join(map(str, pi3.parts)))
    print("  ones  ->", "+".join(map(str, pi4.parts)))


if __name__ == "__main__":
    main()

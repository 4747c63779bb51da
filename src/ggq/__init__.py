"""Exact q-series and partition verification toolkit.

Truncated integer power series on a half-exponent grid, constrained
partition enumeration with chain weights, a staged partition bijection,
Bailey pair machinery, bounded polynomial analogues, and a catalog of
runnable checks tying them together.
"""

# Names are imported from the submodules.  ``import ggq`` still loads
# every layer but the command line front end, because perfbench's setup_s
# times that import on three of its workloads.  No layer imports dataclasses
# or typing; with them, start-up took about 13 ms more (Python 3.11).
from . import bailey, bijection, partitions, registry, series, trinomials

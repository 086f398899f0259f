"""Indexes and synopses (paper Section 5.1-5.2), all held on the driver.

aR-trees are realized as two-level bucketed structures (DESIGN.md §2.3):
root = buckets/cells carrying the paper's aggregates, leaves = members.
The CDD-index is rule rows per dependent attribute; the DR-index probes R
through token postings and a precomputed ``dom_pairs`` table; the ER-grid
evaluates the aggregate bounds with numpy.
"""

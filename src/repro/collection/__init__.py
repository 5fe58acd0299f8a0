"""Data collection: endpoint selection, crawling, storage, characterisation.

This package reproduces §3.1 of the paper: connect to each chain's RPC
endpoints, crawl blocks in reverse chronological order from the head down to
the start of the observation window, store the raw blocks gzip-compressed,
and characterise the resulting dataset (Figure 2).
"""

"""Ranking microfinance institutions from aggregator click logs.

The pipeline runs in three stages: per-MFI feature extraction
(:mod:`mfirank.features`), pairwise-comparison Markov-chain ranking
(:mod:`mfirank.rank`), and offline evaluation by replaying the log
under weekly re-ranking (:mod:`mfirank.evaluate`).  Group-comparison
statistics live in :mod:`mfirank.stats` and dataset IO in
:mod:`mfirank.data`.
"""

__version__ = "0.1.0"

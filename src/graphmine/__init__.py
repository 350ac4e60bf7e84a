"""Frequent and closed subgraph mining over labeled undirected graphs.

gSpan grows patterns along minimum DFS codes; the closed miner adds a
closure check at every node, so only closed patterns (no frequent
supergraph with equivalent occurrence) are emitted. Mode
``closed_no_etf`` also prunes by the paper's hash-table early termination,
without failure detection. A brute-force oracle provides independent
verification.
"""

from .cgspan import mine_closed
from .datasets import DatasetError, dump_dataset, parse_dataset, parse_dataset_text, write_patterns
from .dfscode import DFSCode, EdgeTuple, is_min, min_dfs_code
from .graphs import GraphDatabase, LabeledGraph
from .gspan import MODES, MinedPattern, MiningConfig, MiningStats, mine_frequent
from .oracle import VerifyReport, filter_closed, is_closed, verify_run

__version__ = "0.1.0"

__all__ = [
    "DFSCode",
    "DatasetError",
    "EdgeTuple",
    "GraphDatabase",
    "LabeledGraph",
    "MODES",
    "MinedPattern",
    "MiningConfig",
    "MiningStats",
    "VerifyReport",
    "__version__",
    "dump_dataset",
    "filter_closed",
    "is_closed",
    "is_min",
    "min_dfs_code",
    "mine_closed",
    "mine_frequent",
    "parse_dataset",
    "parse_dataset_text",
    "verify_run",
    "write_patterns",
]

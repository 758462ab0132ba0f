"""Sparse candidate-network baseline."""

from repro.sparse.candidate_networks import (
    CandidateNetwork,
    CNNode,
    enumerate_candidate_networks,
)
from repro.sparse.executor import CNExecutor, JoiningTree
from repro.sparse.sparse_search import SparseResult, SparseSearch
from repro.sparse.tuple_sets import TupleSets

__all__ = [
    "CandidateNetwork",
    "CNNode",
    "enumerate_candidate_networks",
    "CNExecutor",
    "JoiningTree",
    "SparseResult",
    "SparseSearch",
    "TupleSets",
]

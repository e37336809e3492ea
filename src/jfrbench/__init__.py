"""Single-source shortest paths with jump-frontier relaxation, classical
baselines, adversarial graph generators, and benchmark tooling."""

from .baselines import bellman_ford, spfa_fifo, spfa_slf
from .errors import (GraphTooLarge, HeaderMismatch, IndexOutOfRange,
                     InexactWeight, JfrError, MissingEdge, ModeMismatch,
                     NegativeSelfLoop, NegCycleResult, NoCycleRecorded,
                     NonFiniteWeight, ParseError, SpecInvalid,
                     UnknownAlgorithm, ZeroOps)
from .generators import (FAMILIES, family_params, gen_neg_dense,
                         gen_pq_killer, gen_slf_killer, gen_sparse_random,
                         gen_windmill, generate, plant_negative_cycle)
from .graph import (EdgeListDoc, Graph, from_edge_list, read_file, read_text,
                    write_file, write_text)
from .jfr import LmhWorkspace, jfr_pq, jfr_strict, lmh_propagate
from .metrics import BoundReport, Comparison, bound_check, compare
from .results import RunStats, SsspResult
from .verify import (VerifyReport, certify, check_optimality_conditions,
                     cycle_weight, detect_negative_cycle, oracle_compare,
                     oracle_verdict)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "Comparison", "EdgeListDoc", "FAMILIES", "Graph",
    "GraphTooLarge", "HeaderMismatch", "IndexOutOfRange", "InexactWeight",
    "JfrError", "LmhWorkspace", "MissingEdge", "ModeMismatch",
    "NegCycleResult", "NegativeSelfLoop", "NoCycleRecorded", "NonFiniteWeight",
    "ParseError", "RunStats", "SpecInvalid", "SsspResult", "UnknownAlgorithm",
    "VerifyReport", "ZeroOps", "bellman_ford", "bound_check", "certify",
    "check_optimality_conditions", "compare", "cycle_weight",
    "detect_negative_cycle", "family_params", "from_edge_list",
    "gen_neg_dense", "gen_pq_killer", "gen_slf_killer", "gen_sparse_random",
    "gen_windmill", "generate", "jfr_pq", "jfr_strict", "lmh_propagate",
    "oracle_compare", "oracle_verdict", "plant_negative_cycle", "read_file",
    "read_text", "spfa_fifo", "spfa_slf", "write_file", "write_text",
]

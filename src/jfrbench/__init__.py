"""Single-source shortest paths with jump-frontier relaxation, classical
baselines, adversarial graph generators, and benchmark tooling."""

from .baselines import bellman_ford, dijkstra_oracle, spfa_fifo, spfa_slf
from .errors import (HeaderMismatch, IndexOutOfRange, JfrError, ModeMismatch,
                     NegativeSelfLoop, NegativeWeightPresent, NegCycleResult,
                     NoCycleRecorded, NonFiniteWeight, ParseError,
                     PotentialUnavailable, SpecInvalid, UnknownAlgorithm,
                     Unreachable, ZeroOps)
from .generators import (GenSpec, add_edges, gen_neg_dense, gen_slf_killer,
                         gen_sparse_random, gen_windmill, generate,
                         plant_negative_cycle)
from .graph import (EdgeListDoc, Graph, from_edge_list, read_file, read_text,
                    write_file, write_text)
from .jfr import LmhWorkspace, jfr_pq, jfr_strict, lmh_propagate
from .metrics import BoundReport, Comparison, bound_check, compare
from .paths import cycle_weight, detect_negative_cycle, reconstruct_path
from .results import RunStats, SsspResult
from .verify import (VerifyReport, check_optimality_conditions, oracle_compare,
                     oracle_verdict)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "Comparison", "EdgeListDoc", "GenSpec",
    "Graph", "HeaderMismatch", "IndexOutOfRange", "JfrError",
    "LmhWorkspace", "ModeMismatch", "NegCycleResult", "NegativeSelfLoop",
    "NegativeWeightPresent", "NoCycleRecorded", "NonFiniteWeight",
    "ParseError", "PotentialUnavailable", "RunStats", "SpecInvalid",
    "SsspResult", "UnknownAlgorithm", "Unreachable", "VerifyReport",
    "ZeroOps", "add_edges", "bellman_ford", "bound_check",
    "check_optimality_conditions", "compare", "cycle_weight",
    "detect_negative_cycle", "dijkstra_oracle",
    "from_edge_list", "gen_neg_dense", "gen_slf_killer", "gen_sparse_random",
    "gen_windmill", "generate", "jfr_pq", "jfr_strict", "lmh_propagate",
    "oracle_compare", "oracle_verdict", "plant_negative_cycle", "read_file",
    "read_text", "reconstruct_path", "spfa_fifo", "spfa_slf", "write_file",
    "write_text",
]

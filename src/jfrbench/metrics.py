"""Machine-independent efficiency indicators and the amortized
inspection-bound audit.

The comparison model: ``rho_ops`` is how many times more edge inspections
the baseline performed, ``rho_tpr`` is how much more each jump-frontier
inspection costs in wall time, and their ratio is the clock ratio:

    rho_ops / rho_tpr == time_base / time_jfr        (exactly)

so "fewer operations win out" (``rho_ops > rho_tpr``) is the clock
comparison itself, not a prediction of it.
"""

from dataclasses import dataclass
from operator import mul, sub

from .errors import ModeMismatch, ZeroOps
from .graph import Graph
from .results import RunStats


@dataclass
class Comparison:
    rho_ops: float
    rho_tpr: float


def compare(base: RunStats, jfr: RunStats) -> Comparison:
    """Build a Comparison from two instrumented runs of the same instance.

    Raises ZeroOps when either run recorded no inspections or no elapsed
    time (the ratios would be undefined).
    """
    ops_b = base.edge_inspections
    ops_j = jfr.edge_inspections
    t_b = base.wall_time_ns
    t_j = jfr.wall_time_ns
    if ops_b <= 0 or ops_j <= 0:
        raise ZeroOps("both runs must have a positive inspection count")
    if t_b <= 0 or t_j <= 0:
        raise ZeroOps("both runs must have a positive wall time")
    return Comparison(rho_ops=ops_b / ops_j,
                      rho_tpr=(t_j / ops_j) / (t_b / ops_b))


@dataclass
class BoundReport:
    lhs: int
    rhs: float
    holds: bool


def bound_check(stats: RunStats, g: Graph, k: int) -> BoundReport:
    """Audit the per-run amortized activation bound for strict-depth runs.

    lhs counts the frontier hop's edge scans: each activation of v is one
    scan of its deg(v) out-edges, save a promoted sink's, which is counted
    but never scanned and adds deg = 0 either way, so lhs is exactly
    ``edge_inspections - lmh_inspections``; rhs is deg-sum plus
    improvements weighted by deg and discounted by the hop depth k.
    ``holds`` allows an additive n for the one-time initial activations.
    Raises ModeMismatch unless the stats came from a strict-depth run with
    the same k.
    """
    if stats.mode != "jfr-strict":
        raise ModeMismatch(f"stats are from mode {stats.mode!r}, "
                           "bound_check needs jfr-strict")
    if stats.k != k:
        raise ModeMismatch(f"stats were collected with k={stats.k}, "
                           f"asked to audit k={k}")
    if k < 1:
        raise ModeMismatch("k must be >= 1")
    deg = list(map(sub, g.offsets[1:], g.offsets))
    lhs = sum(map(mul, stats.activations, deg))
    imp_deg = sum(map(mul, stats.improvements, deg))
    deg_sum = g.m
    rhs = deg_sum + imp_deg / k
    # evaluate lhs <= rhs + n without float division: multiply through by k
    holds = k * lhs <= k * deg_sum + imp_deg + k * g.n
    return BoundReport(lhs=lhs, rhs=rhs, holds=holds)

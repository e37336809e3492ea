"""Machine-independent efficiency indicators and the amortized
inspection-bound audit.

The comparison model: ``rho_ops`` is how many times more edge inspections
the baseline performed, ``rho_tpr`` is how much more each jump-frontier
inspection costs in wall time, and their ratio is the clock ratio:

    rho_ops / rho_tpr == time_base / time_jfr        (exactly)

so "fewer operations win out" (``rho_ops > rho_tpr``) is the clock
comparison itself, not a prediction of it.  ``nwr`` is the normalized
work ratio ops_jfr / ops_base: the fraction of baseline relaxation work
the jump-frontier run needed (``rho_ops * nwr == 1``).
"""

from dataclasses import dataclass

from .errors import ModeMismatch, ZeroOps
from .graph import Graph
from .results import RunStats


@dataclass
class Comparison:
    ops_base: int
    ops_jfr: int
    time_base_ns: int
    time_jfr_ns: int
    rho_ops: float
    rho_tpr: float
    nwr: float


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
    rho_ops = ops_b / ops_j
    rho_tpr = (t_j / ops_j) / (t_b / ops_b)
    nwr = ops_j / ops_b
    return Comparison(ops_base=ops_b, ops_jfr=ops_j,
                      time_base_ns=t_b, time_jfr_ns=t_j,
                      rho_ops=rho_ops, rho_tpr=rho_tpr, nwr=nwr)


@dataclass
class BoundReport:
    lhs: int
    rhs: float
    holds: bool


def bound_check(stats: RunStats, g: Graph, k: int) -> BoundReport:
    """Audit the per-run amortized activation bound for strict-depth runs.

    lhs counts the edge scans implied by activations (each activation of v
    scans deg(v) out-edges); rhs is deg-sum plus improvements weighted by
    deg and discounted by the hop depth k.  ``holds`` allows an additive n
    for the one-time initial activations.  Raises ModeMismatch unless the
    stats came from a strict-depth run with the same k.
    """
    if stats.mode != "jfr-strict":
        raise ModeMismatch(f"stats are from mode {stats.mode!r}, "
                           "bound_check needs jfr-strict")
    if stats.k != k:
        raise ModeMismatch(f"stats were collected with k={stats.k}, "
                           f"asked to audit k={k}")
    if k < 1:
        raise ModeMismatch("k must be >= 1")
    deg = [g.out_degree(v) for v in range(g.n)]
    lhs = sum(a * d for a, d in zip(stats.activations, deg))
    imp_deg = sum(i * d for i, d in zip(stats.improvements, deg))
    deg_sum = sum(deg)
    rhs = deg_sum + imp_deg / k
    # evaluate lhs <= rhs + n without float division: multiply through by k
    holds = k * lhs <= k * deg_sum + imp_deg + k * g.n
    return BoundReport(lhs=lhs, rhs=rhs, holds=holds)

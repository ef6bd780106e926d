"""Exact combinatorics of Durfee rectangles.

Partitions, successive m-Durfee-rectangle decompositions, selection and
insertion on bounded partition sequences, rank statistics, the conjugation
and m-shift bijections, and a coefficient-exact q-series engine verifying
the staircase partition identities.
"""

from .bijections import dyson_map, gen_conjugate, gen_dyson, gen_dyson_inverse
from .decomposition import DurfeeDecomposition, compose, decompose, profile
from .partition import (
    Partition,
    durfee_square_widths,
    enumerate_partitions,
    p_table,
    partitions_of,
)
from .qseries import (
    IDENTITIES,
    CensusTable,
    QSeries,
    VerificationReport,
    census,
    h_census_series,
    h_count,
    inv_euler,
    jacobi_specialization,
    multisum_lhs,
    pochhammer,
    q_table,
    rank_census,
    rr_product,
    schur_rhs,
    verify_identity,
)
from .rank import RankStats, dyson_rank, garvan_conjugate, garvan_rank, rank_km
from .select_insert import (
    PartitionSequence,
    SelectionTrace,
    insert,
    iterate_remove,
    remove_selected,
    select,
)

__version__ = "0.1.0"

__all__ = [
    "CensusTable",
    "DurfeeDecomposition",
    "IDENTITIES",
    "Partition",
    "PartitionSequence",
    "QSeries",
    "RankStats",
    "SelectionTrace",
    "VerificationReport",
    "census",
    "compose",
    "decompose",
    "durfee_square_widths",
    "dyson_map",
    "dyson_rank",
    "enumerate_partitions",
    "garvan_conjugate",
    "garvan_rank",
    "gen_conjugate",
    "gen_dyson",
    "gen_dyson_inverse",
    "h_census_series",
    "h_count",
    "insert",
    "inv_euler",
    "iterate_remove",
    "jacobi_specialization",
    "multisum_lhs",
    "p_table",
    "partitions_of",
    "pochhammer",
    "profile",
    "q_table",
    "rank_census",
    "rank_km",
    "remove_selected",
    "rr_product",
    "schur_rhs",
    "select",
    "verify_identity",
]

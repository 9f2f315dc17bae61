"""Determinantal codes over GF(q): construction, weight distributions,
generalized Hamming weights, and exhaustive verification oracles."""

from .counting import Rank1Bound, gaussian_binomial, lengths, mu, mu_hat, rank1_bound
from .detcode import (
    EvaluationDomain,
    SpectrumReport,
    brute_ghw,
    brute_weight_enumerator,
    evaluate,
    generator_matrix,
    make_domain,
    naive_weight_enumerator,
    subcode_spectrum,
    support_weight,
    weight_table,
)
from .formulas import (
    GhwResult,
    closed_weight_enumerator,
    delsarte_N,
    ghw_bounds,
    ghw_t1,
    griesmer_wei,
    serre_example_bound,
    what_r,
    witness_subcode,
)
from .gf import Field, make_field, parse_q
from .matq import (
    enumerate_matrices,
    normal_form,
    outer,
    partial_trace,
    rank,
    rref,
)
from .rank1 import (
    Rank1SpaceClass,
    classify_space,
    count_rank1,
    factor,
    max_rank1_exhaustive,
    rank1_sum_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

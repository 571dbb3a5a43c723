"""Exact SL(2) character calculus over quadratically closed towers."""

from .qfield import TowerContext, TowerElement, characteristic, solve_quadratic
from .sl2 import Line, Mat2, Rep, delta, is_reducible_family, is_reducible_pair, realize_triple
from .fricke import TracePolynomial, Word, reduce_trace_word, trace_of_word_direct, variety_residual
from .farey import Slope, complete_triangle, farey_walk, is_neighbor, slope_word_torus
from .surfchar import TF04, TF11, pm2_check, sigma03_check, tf04_extend, tf11_extend
from .planar import (
    PartitionTF,
    TraceData05,
    certify_exceptional,
    check_trace_function_05,
    exceptional_enumerate,
    glue_sigma05,
)

__all__ = [
    "TowerContext", "TowerElement", "characteristic", "solve_quadratic",
    "Line", "Mat2", "Rep", "delta", "is_reducible_family", "is_reducible_pair",
    "realize_triple",
    "TracePolynomial", "Word", "reduce_trace_word", "trace_of_word_direct",
    "variety_residual",
    "Slope", "complete_triangle", "farey_walk", "is_neighbor", "slope_word_torus",
    "TF04", "TF11", "pm2_check", "sigma03_check", "tf04_extend", "tf11_extend",
    "PartitionTF", "TraceData05", "certify_exceptional", "check_trace_function_05",
    "exceptional_enumerate", "glue_sigma05",
]

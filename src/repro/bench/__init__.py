"""Benchmark harness: one experiment generator per paper table/figure."""

from .decode import decode_attention
from .robustness import model_robustness, perturbed_model
from .motivation import fig2_motivation
from .ablations import (
    ablation_candidate_depth,
    ablation_early_quit,
    ablation_uta_vs_split,
)
from .compile_time import table4_mha_breakdown, table5_model_compile_times
from .end_to_end import (
    fig14_end_to_end,
    fig16a_ablation,
    fig16b_input_sensitivity,
    fig16c_arch_sensitivity,
)
from .patterns import evaluation_suite, table6_fusion_patterns
from .reporting import ExperimentResult, geomean
from .subgraphs import (
    fig11a_mlp,
    fig11b_lstm,
    fig12_layernorm,
    fig13_mha,
    fig15_memory_cache,
)

__all__ = [
    "ExperimentResult",
    "ablation_candidate_depth",
    "decode_attention",
    "ablation_early_quit",
    "ablation_uta_vs_split",
    "fig2_motivation",
    "model_robustness",
    "perturbed_model",
    "evaluation_suite",
    "fig11a_mlp",
    "fig11b_lstm",
    "fig12_layernorm",
    "fig13_mha",
    "fig14_end_to_end",
    "fig15_memory_cache",
    "fig16a_ablation",
    "fig16b_input_sensitivity",
    "fig16c_arch_sensitivity",
    "geomean",
    "table4_mha_breakdown",
    "table5_model_compile_times",
    "table6_fusion_patterns",
]

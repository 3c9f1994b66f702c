"""Hierarchical sparse coding for video with a reweighted quadratic solver.

The package infers sparse states and causes for video frames through a
stack of layers, learns the layer matrices unsupervised, and ships
reference solvers plus metrics and a command-line interface for
benchmarking, training, clustering, and reconstruction.
"""

__version__ = "0.1.0"

from .baselines import (BaselineConfig, adam_solve, fista_solve, ista_solve,
                        state_objective)
from .causes import infer_cause, infer_cause_topdown, top_down_prediction
from .config import BenchSettings, parse_bench_config, parse_network_config
from .learning import FitReport, LearnConfig, fit_layer, init_model
from .majorize import smooth_l1, soft_clip
from .metrics import (ClusterReport, adjusted_rand_index, completeness,
                      evaluate_clustering, kmeans, matching_accuracy,
                      pca_project, sparsity)
from .model import (CauseVector, HyperParams, LayerDims, LayerModel,
                    PooledStateMagnitude, cause_energy, state_energy,
                    total_energy)
from .network import (InferenceResult, Layer, LayerSpec, NetworkConfig,
                      decompose_frame, infer_variables, load_network,
                      recompose_frame, reconstruct_frames, save_network,
                      train_network)
from .shapes import ShapesDataset, generate_shapes
from .states import SolveTrace, infer_state, infer_states_batch

__all__ = [
    "BaselineConfig", "BenchSettings", "CauseVector", "ClusterReport",
    "FitReport", "HyperParams", "InferenceResult", "Layer", "LayerDims",
    "LayerModel", "LayerSpec", "LearnConfig", "NetworkConfig",
    "PooledStateMagnitude", "ShapesDataset", "SolveTrace", "adam_solve",
    "adjusted_rand_index", "cause_energy", "completeness", "decompose_frame",
    "evaluate_clustering", "fista_solve", "fit_layer", "generate_shapes",
    "infer_cause", "infer_cause_topdown", "infer_state", "infer_states_batch",
    "infer_variables", "init_model", "ista_solve", "kmeans", "load_network",
    "matching_accuracy", "parse_bench_config", "parse_network_config",
    "pca_project", "recompose_frame", "reconstruct_frames", "save_network",
    "smooth_l1", "soft_clip", "sparsity", "state_energy", "state_objective",
    "top_down_prediction", "total_energy", "train_network",
]

"""Volumization: box-constraint-flavored regularization for first-order
optimizers, with the theory oracles, quantization, and audit tooling that
make its behavior checkable end to end.

The package keeps every numeric path deterministic: counter-based RNG
streams, summation-order-pinned numpy kernels, and bitwise-faithful
checkpoints.
"""

from ._kernels import backend
from .data import Dataset, gen_blobs, inject_label_noise
from .errors import (CheckpointError, ConfigError, DomainError, NumericError,
                     ShapeError, VolumizeError)
from .linalg import SeededRng, stable_hash
from .net import (GradientBundle, LayerSpec, Network, empirical_lipschitz,
                  forward, init_network, loss_and_grad)
from .optimizers import OptimizerSpec, OptimizerState, step
from .quantizer import (QuantizationScheme, WeightHistogram,
                        load_quantized_weights,
                        mass_near_walls, quantize, quantize_network,
                        quantized_training, save_quantized_weights,
                        weight_histogram)
from .spectral import (LipschitzReport, SpectralReport, check_entrywise_bound,
                       check_network_lipschitz, contractive_volumes,
                       power_iteration_smax)
from .sweep import CellResult, SweepSpec, run_cell, run_sweep
from .theory import (ErrorCurve, McEstimate, NoiseSpec, TeacherStudentProblem,
                     alpha_for_weight_decay, cauchy_comparison,
                     clip_error_closed_form, clip_error_mc, closed_form_curve,
                     flow_curve, gradient_flow_sim, mc_curve, optimal_volume,
                     weight_decay_error_mc, weight_decay_optimum)
from .training import (MetricTrajectory, TrainingRun, evaluate, new_run,
                       run_epochs, train_model)
from .checkpoint import load_checkpoint, save_checkpoint
from .volumization import (VolumizationConfig, apply_volumization,
                           derive_layer_volumes)

__version__ = "0.1.0"

__all__ = [
    "backend",
    "Dataset", "gen_blobs", "inject_label_noise",
    "CheckpointError", "ConfigError", "DomainError", "NumericError",
    "ShapeError", "VolumizeError",
    "SeededRng", "stable_hash",
    "GradientBundle", "LayerSpec", "Network", "empirical_lipschitz",
    "forward", "init_network", "loss_and_grad",
    "OptimizerSpec", "OptimizerState", "step",
    "QuantizationScheme", "WeightHistogram",
    "load_quantized_weights", "mass_near_walls", "quantize",
    "quantize_network", "quantized_training", "save_quantized_weights",
    "weight_histogram",
    "LipschitzReport", "SpectralReport", "check_entrywise_bound",
    "check_network_lipschitz", "contractive_volumes", "power_iteration_smax",
    "CellResult", "SweepSpec", "run_cell", "run_sweep",
    "ErrorCurve", "McEstimate", "NoiseSpec", "TeacherStudentProblem",
    "alpha_for_weight_decay", "cauchy_comparison", "clip_error_closed_form",
    "clip_error_mc", "closed_form_curve", "flow_curve", "gradient_flow_sim",
    "mc_curve", "optimal_volume", "weight_decay_error_mc",
    "weight_decay_optimum",
    "MetricTrajectory", "TrainingRun", "evaluate", "new_run", "run_epochs",
    "train_model",
    "load_checkpoint", "save_checkpoint",
    "VolumizationConfig", "apply_volumization",
    "derive_layer_volumes",
    "__version__",
]

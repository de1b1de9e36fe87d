"""taskmerge: data-free merging of fine-tuned checkpoints.

Computes per-task scaling coefficients in closed form from task-vector
norms alone, merges any number of fine-tuned models into one (optionally
through TIES trimming or drop-and-rescale transforms), and ships a
numerical lab that verifies the underlying bounds and the optimality of
the closed form on synthetic quadratic task ensembles.
"""

from .coefficients import (
    CoefficientSet,
    coefficients_from_dict,
    fixed_coefficients,
    metagpt_coefficients,
    weight_average_coefficients,
)
from .errors import FormatError, RecipeError, TaskmergeError, ValidationError
from .merge_engine import (
    MergeRecipe,
    MergeReport,
    TaskSpec,
    dare_transform,
    run_recipe,
    ties_trim,
)
from .task_vectors import (
    CosineMatrix,
    TaskVectorStats,
    compute_stats,
    cosine_matrix,
    stats_from_arrays,
)
from .tensor_store import (
    CheckpointHandle,
    CheckpointWriter,
    KeyReport,
    TensorBuffer,
    TensorMeta,
    open_checkpoint,
    read_tensor,
    validate_compatibility,
    write_checkpoint,
)

__version__ = "0.1.0"

__all__ = [
    "CheckpointHandle",
    "CheckpointWriter",
    "CoefficientSet",
    "CosineMatrix",
    "FormatError",
    "KeyReport",
    "MergeRecipe",
    "MergeReport",
    "RecipeError",
    "TaskSpec",
    "TaskVectorStats",
    "TaskmergeError",
    "TensorBuffer",
    "TensorMeta",
    "ValidationError",
    "coefficients_from_dict",
    "compute_stats",
    "cosine_matrix",
    "dare_transform",
    "fixed_coefficients",
    "metagpt_coefficients",
    "open_checkpoint",
    "read_tensor",
    "run_recipe",
    "stats_from_arrays",
    "ties_trim",
    "validate_compatibility",
    "weight_average_coefficients",
    "write_checkpoint",
]

"""Episodic few-shot classification by spectral filtering of relative
prototypes in kernel feature space.

The distance between a query and a class is the norm of the query's
relative prototype (query minus class mean in feature space) after
attenuating its components along the class's support eigendirections
with a filter function: Tikhonov 1/(gamma + lambda), truncated SVD, or
the zero filter, which recovers the plain prototype distance.
"""

from .centering import center_cross, center_support, centered_query_norm
from .classifier import (
    EpisodeResult,
    class_probabilities,
    classify_episode,
    distance_sq,
    episode_loss,
)
from .data import (
    Dataset,
    Episode,
    Jitter,
    SYNTH_PRESETS,
    SynthConfig,
    apply_one_shot_policy,
    augment_one_shot,
    load_csv,
    sample_episode,
    save_csv,
    synth_generate,
)
from .errors import (
    ConfigurationError,
    DataError,
    DimensionMismatchError,
    NumericalError,
    ProtofilterError,
)
from .harness import (
    DEFAULT_LAMBDA_GRID,
    EvalConfig,
    EvalReport,
    build_episode,
    compare_methods,
    episode_rngs,
    evaluate,
    format_table,
    lambda_sweep,
    report_record,
)
from .kernels import (
    KernelKind,
    KernelSpec,
    default_rbf_bandwidth,
    gram_query,
    gram_support,
    resolve_kernel,
)
from .spectral import (
    AbsoluteLambda,
    EIGENVALUE_CLAMP,
    EigenSystem,
    FilterKind,
    FilterSpec,
    RelativeToMaxEigenvalue,
    format_lambda_policy,
    parse_lambda_policy,
    resolve_lambda,
    shrinkage_weights,
    symmetric_eig,
)
from .training import (
    LinearEmbedding,
    TrainConfig,
    TrainResult,
    batch_loss,
    episodes_loss,
    finite_difference_gradient,
    sample_training_batch,
    save_embedding,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AbsoluteLambda",
    "ConfigurationError",
    "DEFAULT_LAMBDA_GRID",
    "DataError",
    "Dataset",
    "DimensionMismatchError",
    "EIGENVALUE_CLAMP",
    "EigenSystem",
    "Episode",
    "EpisodeResult",
    "EvalConfig",
    "EvalReport",
    "FilterKind",
    "FilterSpec",
    "Jitter",
    "KernelKind",
    "KernelSpec",
    "LinearEmbedding",
    "NumericalError",
    "ProtofilterError",
    "RelativeToMaxEigenvalue",
    "SYNTH_PRESETS",
    "SynthConfig",
    "TrainConfig",
    "TrainResult",
    "apply_one_shot_policy",
    "augment_one_shot",
    "batch_loss",
    "build_episode",
    "center_cross",
    "center_support",
    "centered_query_norm",
    "class_probabilities",
    "classify_episode",
    "compare_methods",
    "default_rbf_bandwidth",
    "distance_sq",
    "episode_loss",
    "episode_rngs",
    "episodes_loss",
    "evaluate",
    "finite_difference_gradient",
    "format_lambda_policy",
    "format_table",
    "gram_query",
    "gram_support",
    "lambda_sweep",
    "load_csv",
    "parse_lambda_policy",
    "report_record",
    "resolve_kernel",
    "resolve_lambda",
    "sample_episode",
    "sample_training_batch",
    "save_csv",
    "save_embedding",
    "shrinkage_weights",
    "symmetric_eig",
    "synth_generate",
    "train",
]

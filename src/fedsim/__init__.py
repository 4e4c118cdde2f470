"""Deterministic federated-learning simulator with curvature diagnostics.

Seven local-training methods (fedavg, fedprox, moon, mixup, stochdepth,
gradaug, fedalign) over a small numpy autodiff core, plus Hessian-based
diagnostics and a reproducible round orchestrator.
"""

from .tensor import (
    Tensor,
    ParamVector,
    clip_grad_norm,
    gradients,
    load_vector,
    params_to_vector,
    sgd_step,
    softmax_cross_entropy,
)
from .models import (
    BlockNet,
    BlockNetSpec,
    keep_probability,
    slim_width,
)
from .data import (
    LabeledDataset,
    Partition,
    dirichlet_partition,
    downsample_transform,
    make_synthetic_mixture,
    mixup_batch,
    train_test_split,
)
from .methods import (
    ClientTask,
    MethodConfig,
    METHODS,
    METHOD_TABLE,
    client_update,
    count_cost,
    loss_ce,
    loss_fedalign,
    loss_fedprox,
    loss_gradaug,
    loss_moon,
    spectral_norm,
    transmitting_matrices,
)
from .hessian import (
    CrossClientReport,
    HessianReport,
    Linearization,
    ce_loss_fn,
    cross_client_metrics,
    hessian_diagonal,
    hessian_report,
    hutchinson_trace,
    hvp,
    landscape_slice,
    linearize,
    top_eigenpairs,
)
from .orchestrator import (
    CheckpointError,
    ConfigError,
    DatasetConfig,
    ExperimentConfig,
    ExperimentState,
    MetricsError,
    ModelConfig,
    RoundMetrics,
    aggregate,
    build_state,
    comm_cost,
    evaluate,
    load_checkpoint,
    run_experiment,
    run_round,
    sample_clients,
    save_checkpoint,
)

__version__ = "0.1.0"

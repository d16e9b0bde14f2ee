"""PCA-based multivariate sensor fault detection, isolation and estimation.

Pipeline: standardize training data, optionally lag-extend it, fit a
principal/residual subspace model, monitor new samples with the SPE and
Hotelling T2 indices, attribute alarms to individual sensors via
contribution or reconstruction-based scores, temporally filter the
per-sample decision with an evidence accumulator, and reconstruct the
fault amplitude. A synthetic generator, fault injector, and sweep-based
evaluation harness support end-to-end experiments.
"""

from .dataset import (
    RawDataset,
    ScaledDataset,
    ScalerParams,
    apply_scaler,
    embed_lags,
    fit_scaler,
    read_raw_csv,
    write_raw_csv,
)
from .detection import IndexSample, fit_threshold, index_sample, spe, t2
from .ebf import (
    NO_DECLARATION,
    EbfParams,
    EbfState,
    ebf_decide,
    ebf_step,
    filter_stream,
)
from .harness import (
    DEFAULT_VARIANTS,
    EvalReport,
    FaultSpec,
    ReportRow,
    SimConfig,
    default_sim_config,
    inject_fault,
    isolation_percentage,
    reconstruction_error,
    simulate,
    sweep,
)
from .isolation import (
    ContributionMethod,
    ContributionVector,
    DetectionIndex,
    FaultEstimate,
    IsolationMethod,
    contribution_matrix,
    contributions,
    direction,
    estimate_fault,
    estimate_matrix,
)
from .pca import (
    PcaModel,
    covariance,
    fit_pca,
    load_model,
    model_digest,
    save_model,
)

__version__ = "0.1.0"

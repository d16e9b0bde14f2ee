"""PCA-based multivariate sensor fault detection, isolation and estimation.

Pipeline: standardize training data, optionally lag-extend it, fit a
principal/residual subspace model, monitor new samples with the SPE and
Hotelling T2 indices, attribute alarms to individual sensors via
contribution or reconstruction-based scores, temporally filter the
per-sample decision with an evidence accumulator, and reconstruct the
fault amplitude. A synthetic generator, fault injector, and sweep-based
evaluation harness support end-to-end experiments.
"""

from .dataset import *
from .detection import *
from .ebf import *
from .harness import *
from .isolation import *
from .pca import *

__version__ = "0.1.0"

"""Virtual sensing toolkit for BWR in-core power range detectors.

A small numpy-based stack: a reverse-mode differentiation engine, an
axial-attention block, the core/detector data model with a synthetic
plant-data generator, two detector-prediction network families, and the
training/evaluation machinery to run them end to end.
"""

from .autodiff import (
    DegenerateBatchError,
    Graph,
    RunningStats,
    ShapeError,
    Tensor,
    backward,
    batch_norm,
    batch_norm2d,
    concat,
    conv2d,
    gelu,
    grad_check,
    matmul,
    mse_loss,
    no_grad,
    reshape,
    softmax,
    transpose,
    tsum,
)
from .attention import (
    AxialAttentionParams,
    affinity,
    aggregate,
    axial_attention,
    axial_pass,
    pair_count,
)
from .coredata import (
    CoreGeometry,
    DataError,
    DetectorId,
    FrameTable,
    GeometryError,
    bypass_augment,
    default_geometry,
    derive_rod_variable,
    filter_transients,
    load_archive,
    load_geometry,
    save_archive,
    split_holdout_cycle,
    split_surrogate,
)
from .evaluation import (
    AxisDetectorPredictor,
    CompositePredictor,
    CoverageError,
    DriftReport,
    LprmNetPredictor,
    OraclePredictor,
    RmseReport,
    SetSurrogatePredictor,
    VirtualSensor,
    drift_report,
    rmse_report,
)
from .models import (
    LprmNet,
    LprmNetSpec,
    SurrogateNet,
    SurrogateSpec,
    axis_surrogate_spec,
    center_output_bias,
    load_checkpoint,
    paired_surrogate_spec,
    save_checkpoint,
)
from .synthplant import (
    PlantScenario,
    generate_cycle,
    generate_plant,
    oracle_readings,
)
from .training import (
    AdamWState,
    DataSplit,
    DivergenceError,
    TrainConfig,
    TrainResult,
    adamw_step,
    batched_predict,
    history_to_csv,
    one_cycle_lr,
    predict_batch,
    train,
)

__version__ = "0.1.0"

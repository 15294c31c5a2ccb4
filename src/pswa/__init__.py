"""pswa: windowed attention with a high-frequency bridging branch.

A desk-scale reference implementation, built for inspection rather than
speed: a small autodiff core over numpy, the split-channel block
(window attention + depthwise-separable bridge), the progressive
channel-coverage schedule, a toy diffusion-transformer training
harness, and the diagnostics (attention distance, radial spectra, FLOPs
accounting) used to study all of it.  The bridge's depthwise
correlation is the order-K neighborhood aggregation; dense attention
is a window covering the whole grid.
"""

from .attention import (
    WindowSpec,
    relative_position_index,
    window_attention,
    window_merge,
    window_partition,
)
from .block import (
    BridgeParams,
    PSWALayerConfig,
    bridge_branch,
    channel_split,
    coverage_schedule,
    pswa_forward,
)
from .config import RunConfig
from .diagnostics import (
    FlopsReport,
    FlopsRow,
    SurveyRecord,
    attention_distance,
    distance_histogram,
    distance_survey,
    feature_spectrum,
    flops_report,
    hf_band_fraction,
    measured_flops,
)
from .diffusion import (
    AdamW,
    NoiseSchedule,
    ToyDataset,
    TrainResult,
    ddpm_sample,
    q_sample,
    train_model,
    training_loss,
)
from .errors import (
    ConfigurationError,
    DegenerateMapError,
    DimensionError,
    DomainError,
    NumericsError,
    PSWAError,
    UsageError,
)
from .model import (
    BlockParams,
    TimeEmbedParams,
    ToyDiT,
    ToyDiTConfig,
    block_forward,
    load_checkpoint,
    patchify,
    save_checkpoint,
    sinusoidal_features,
    timestep_embedding,
    unpatchify,
)
from .numerics import (
    GradTape,
    Rng,
    Tensor,
    dump_tensor,
    gradcheck,
    load_tensor,
    no_grad,
    ops,
    set_debug_checks,
    set_default_dtype,
)

__version__ = "0.1.0"

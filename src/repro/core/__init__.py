"""The paper's contribution: per-block-tuned Bayesian passive detection."""

from .aggregation import AggregationPlan, merge_streams_for_plan, plan_aggregation
from .belief import (
    BELIEF_CEIL,
    BELIEF_FLOOR,
    BeliefState,
    guarded_belief_pass,
)
from .checkpoint import (
    CheckpointFormatError,
    detector_from_json,
    detector_to_json,
    load_checkpoint,
    save_checkpoint,
)
from .correlation import (
    CorroboratedEvent,
    corroborate_events,
)
from .detector import BlockResult, PassiveDetector, StreamingDetector
from .drift import BlockDrift, DriftVerdict, audit_drift, refresh_model
from .events import RefinementConfig, refine_timeline, states_to_timeline
from .health import (
    BlockDataError,
    DeadLetterEntry,
    DeadLetterRegistry,
    ErrorBudget,
    ErrorBudgetExceeded,
    GuardrailCounters,
    RunHealthReport,
    StageStats,
    inputs_digest,
)
from .history import BlockHistory, train_histories, train_history
from .parameters import (
    DEFAULT_BIN_LADDER,
    BlockParameters,
    HomogeneousPlanner,
    ParameterPlanner,
    TuningPolicy,
)
from .pipeline import PassiveOutagePipeline, PipelineResult, TrainedModel
from .sentinel import SentinelConfig, VantageSentinel, suppress_quarantined
from .serialize import (
    ModelFormatError,
    atomic_write_text,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)

__all__ = [
    "AggregationPlan",
    "merge_streams_for_plan",
    "plan_aggregation",
    "BELIEF_CEIL",
    "BELIEF_FLOOR",
    "BeliefState",
    "guarded_belief_pass",
    "BlockDataError",
    "DeadLetterEntry",
    "DeadLetterRegistry",
    "ErrorBudget",
    "ErrorBudgetExceeded",
    "GuardrailCounters",
    "RunHealthReport",
    "StageStats",
    "inputs_digest",
    "CorroboratedEvent",
    "corroborate_events",
    "BlockResult",
    "PassiveDetector",
    "StreamingDetector",
    "BlockDrift",
    "DriftVerdict",
    "audit_drift",
    "refresh_model",
    "RefinementConfig",
    "refine_timeline",
    "states_to_timeline",
    "BlockHistory",
    "train_histories",
    "train_history",
    "DEFAULT_BIN_LADDER",
    "BlockParameters",
    "HomogeneousPlanner",
    "ParameterPlanner",
    "TuningPolicy",
    "PassiveOutagePipeline",
    "PipelineResult",
    "TrainedModel",
    "SentinelConfig",
    "VantageSentinel",
    "suppress_quarantined",
    "CheckpointFormatError",
    "detector_from_json",
    "detector_to_json",
    "load_checkpoint",
    "save_checkpoint",
    "ModelFormatError",
    "atomic_write_text",
    "load_model",
    "model_from_json",
    "model_to_json",
    "save_model",
]

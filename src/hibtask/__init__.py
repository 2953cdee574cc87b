"""Hierarchical information-bottleneck solvers over discrete distributions and
the task-driven scene-graph pipeline built on top of them."""

from .errors import (
    ConfidenceUndefinedError,
    DegenerateColumnError,
    DimensionError,
    HibTaskError,
    ParseError,
    RefinementError,
    StructuralError,
    ValidationError,
)
from .geometry import Box, union_box
from .hierarchy import (
    Primitive,
    Spatial,
    TaskEntity,
    TaskHierarchy,
    embedding_conditional,
    hierarchy_step_conditional,
    lift_conditional,
    select_relevant_primitives,
)
from .metrics import (
    PredictedSubtask,
    ReferenceAnnotation,
    ReferenceSubtask,
    grounding_accuracy,
    hta_metrics,
)
from .probability import (
    CondTable,
    Dist,
    bayes_invert,
    chain,
    entropy,
    kl_divergence,
    kl_divergence_matrix,
    marginal,
    mutual_information,
)
from .scene_graph import (
    SceneGraph,
    SceneNode,
    bottom_up_construct,
    confidence,
    prune_primitives,
    top_down_prune,
)
from .solver import (
    DISTORTION_DECODER_FIRST,
    DISTORTION_INPUT_FIRST,
    INIT_KRONECKER,
    INIT_PERTURBED,
    HibProblem,
    HibState,
    SolveOptions,
    SolveReport,
    derive_state,
    distortion,
    effective_cluster_count,
    fixed_point_residual,
    objective,
    solve_hib,
    solve_ib,
    solve_ib_sequential,
    update_level,
)
from .task_update import (
    PipelineOptions,
    RefinementOracle,
    RoundReport,
    TableOracle,
    WordBank,
    combine_conditionals,
    pipeline_round,
    refine_hierarchy,
    run_pipeline,
    spatial_conditional,
    spatial_task_conditional,
    spatial_update,
    suggest_words,
)

__all__ = [name for name in dir() if not name.startswith("_")]

"""careql: offline multimodal Q-learning toolkit.

Train conservative offline policies (DQN / CQL / discrete BCQ over a
dueling Q-network) on two-modality decision datasets, evaluate them with
WIS / DR / FQE / OPERA and a behavioral-discrepancy survival-rate metric,
and verify everything against exact dynamic-programming oracles on
synthetic tabular MDPs.
"""

from .dataset import (
    ActionIndex,
    DatasetError,
    DoseBins,
    Episode,
    FeatureStats,
    JointObservation,
    OfflineDataset,
    Transition,
    compute_bin_edges,
    export,
    ingest,
    normalize,
)
from .encoder import EncoderConfig, NoteStrategy, StateEncoder
from .synthgym import (
    BehaviorPolicy,
    GeneratorConfig,
    TabularMDP,
    exact_policy_value,
    generate_mdp,
    near_clinician_behavior,
    pseudo_embed,
    rollout,
)
from .trainer import (
    LearnedPolicy,
    TrainConfig,
    TrainResult,
    bellman_residuals,
    train,
)
from .ope import (
    OpeConfig,
    OPEReport,
    evaluate_policy,
    fit_behavior,
    opera,
    soften,
    wis,
)
from .bdesr import bdesr_report, cohort_split, discrepancy

__version__ = "0.1.0"

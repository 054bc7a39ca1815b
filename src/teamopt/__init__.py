"""Classifiers trained jointly with a policy for querying a human teammate.

Two families of approaches are provided. The discriminative pair trains a
predictor and a sigmoid query policy, either separately (fixed) or
end-to-end through a mixture loss (joint). The value-of-information pair
reasons with calibrated probability models: the fixed form queries when
the expected utility of observing the human response exceeds that of
deciding alone, and the joint form fine-tunes the underlying networks
through softened versions of the same quantities. An evaluation harness
sweeps query costs, selects cost weights on a validation split, and
renders reports; the `teamopt` CLI drives the full pipeline.
"""

from .calibration import (PlattCalibrator, PlattFit, calibrate,
                          calibrate_batch, expected_calibration_error,
                          fit_platt)
from .data import (Dataset, Instance, SynthConfig, generate_synthetic,
                   load_csv, planted_boundaries, save_csv, split)
from .discriminative import (DecisionParts, DiscriminativeSystem, TeamConfig,
                             TeamPrediction, decide, joint_loss,
                             runtime_query_decision, team_predict,
                             train_fixed, train_joint, utility_loss_weights)
from .errors import (ConfigError, InputError, NumericError, ParseError,
                     QueryError, ShapeError, StateError, TeamoptError,
                     TrainingError)
from .evaluation import (ErrorRegionTree, SweepResult, cost_sweep,
                         emit_report, human_error_tree, human_only_baseline,
                         paired_significance, per_class_analysis,
                         team_metrics)
from .numerics import MlpModel, TrainConfig, finite_diff_check, forward
from .voi import (CalibratedModel, VoiSystem, expected_utility_no_query,
                  expected_utility_query, joint_voi_loss,
                  soft_team_quantities, train_fixed_voi, train_joint_voi)

__version__ = "0.1.0"

__all__ = [
    "CalibratedModel", "ConfigError", "Dataset", "DecisionParts",
    "DiscriminativeSystem", "ErrorRegionTree", "InputError", "Instance",
    "MlpModel", "NumericError", "ParseError", "PlattCalibrator", "PlattFit",
    "QueryError", "ShapeError", "StateError", "SweepResult", "SynthConfig",
    "TeamConfig", "TeamPrediction", "TeamoptError", "TrainConfig",
    "TrainingError", "VoiSystem", "calibrate", "calibrate_batch",
    "cost_sweep", "decide", "emit_report", "expected_calibration_error",
    "expected_utility_no_query", "expected_utility_query",
    "finite_diff_check", "fit_platt", "forward", "generate_synthetic",
    "human_error_tree", "human_only_baseline", "joint_loss",
    "joint_voi_loss", "load_csv", "paired_significance",
    "per_class_analysis", "planted_boundaries", "runtime_query_decision",
    "save_csv", "soft_team_quantities", "split", "team_metrics",
    "team_predict", "train_fixed", "train_fixed_voi", "train_joint",
    "train_joint_voi", "utility_loss_weights",
]

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

from .calibration import (PlattCalibrator, PlattFit, calibrate_batch,
                          expected_calibration_error, fit_platt)
from .data import (Dataset, SynthConfig, generate_synthetic, load_csv,
                   save_csv, split)
from .discriminative import (DecisionParts, DiscriminativeSystem, TeamConfig,
                             TeamPrediction, decide, team_predict,
                             train_fixed, train_joint, utility_loss_weights)
from .errors import (ConfigError, InputError, NumericError, ParseError,
                     QueryError, ShapeError, StateError, TeamoptError,
                     TrainingError)
from .evaluation import (ErrorRegionTree, SweepResult, cost_sweep,
                         emit_report, human_error_tree, human_only_baseline,
                         per_class_analysis)
from .numerics import MlpModel, TrainConfig, finite_diff_check
from .voi import CalibratedModel, VoiSystem, train_fixed_voi, train_joint_voi

__version__ = "0.1.0"

__all__ = [
    "CalibratedModel", "ConfigError", "Dataset", "DecisionParts",
    "DiscriminativeSystem", "ErrorRegionTree", "InputError", "MlpModel",
    "NumericError", "ParseError", "PlattCalibrator", "PlattFit",
    "QueryError", "ShapeError", "StateError", "SweepResult", "SynthConfig",
    "TeamConfig", "TeamPrediction", "TeamoptError", "TrainConfig",
    "TrainingError", "VoiSystem", "calibrate_batch", "cost_sweep", "decide",
    "emit_report", "expected_calibration_error", "finite_diff_check",
    "fit_platt", "generate_synthetic", "human_error_tree",
    "human_only_baseline", "load_csv", "per_class_analysis", "save_csv",
    "split", "team_predict", "train_fixed", "train_fixed_voi", "train_joint",
    "train_joint_voi", "utility_loss_weights",
]

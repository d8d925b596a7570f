"""Exact-arithmetic projections of root systems and subsystem detection."""

from .catalog import (RealizedRootSystem, Target, TypeLabel, build,
                      cartan_matrix, detection_targets, parse_label,
                      parse_target)
from .classify import classify_theta, verify_paper
from .detect import (ClosureCertificate, ClosureFailure, DetectionReport,
                     classify_max_rank, find_subsystem, match_type,
                     reflection_closure, revalidate)
from .linalg import dot
from .projection import ProjectionResult, project_all

__all__ = [
    "RealizedRootSystem", "Target", "TypeLabel", "build", "cartan_matrix",
    "detection_targets", "parse_label", "parse_target",
    "classify_theta", "verify_paper",
    "ClosureCertificate", "ClosureFailure", "DetectionReport",
    "classify_max_rank", "find_subsystem", "match_type", "reflection_closure",
    "revalidate",
    "dot", "ProjectionResult", "project_all",
]

__version__ = "0.1.0"

"""DeepTune: the neural-network optimizer driving Wayfinder's search.

``model`` implements the DeepTune Model (DTM): a multitask network whose
prediction branch outputs the crash probability and the expected performance
of a configuration, and whose RBF-based uncertainty branch estimates how
unfamiliar a configuration is.  ``algorithm`` wraps the DTM in the candidate
generation / prediction / scoring / evaluation loop of Figure 3;
``scoring`` provides the exploration/exploitation scoring function (eq. 2-3);
``transfer`` reuses trained models across applications, directly or through
the surrogate model zoo; ``importance`` extracts per-parameter importance
scores used by the cross-similarity analysis (Figure 5) and the
"high-impact parameters" discussion of §4.1.
"""

from repro.deeptune.algorithm import DeepTuneSearch
from repro.deeptune.importance import (
    parameter_importance,
    variance_reduction_importance,
)
from repro.deeptune.model import DeepTuneModel, DTMPrediction
from repro.deeptune.scoring import dissimilarity, score_candidates
from repro.deeptune.transfer import transfer_model

__all__ = [
    "DeepTuneModel",
    "DTMPrediction",
    "DeepTuneSearch",
    "score_candidates",
    "dissimilarity",
    "transfer_model",
    "variance_reduction_importance",
    "parameter_importance",
]

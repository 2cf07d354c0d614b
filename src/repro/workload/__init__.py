"""Synthetic workloads standing in for the paper's datasets (Table 1).

The evaluation uses eight real datasets (MS MARCO, Natural Questions,
LMSys-Chat, Alpaca, OpenOrca, WMT-16, NL2Bash, Math500-Level5) plus the
Microsoft/Azure LLM serving trace.  None are shippable offline, so this
package generates synthetic equivalents that preserve the properties the
paper's results depend on:

* topic-cluster structure such that >70% of requests have a >=0.8-similar
  neighbour (Fig. 3a) while random pairs sit near 0.5 on the rescaled scale;
* Zipf-like topic popularity producing the long-tailed example-access
  distribution (Fig. 10);
* per-dataset task type, difficulty, and prompt/response length profiles;
* diurnal + bursty arrival processes with 25x peak-to-trough swings (Fig. 2)
  and the 30-minute evaluation window (Fig. 22).
"""

from repro.workload.request import Request, TaskType
from repro.workload.topics import TopicModel
from repro.workload.datasets import (
    DATASET_PROFILES,
    DatasetProfile,
    SyntheticDataset,
    get_profile,
)
from repro.workload.trace import (
    ArrivalTrace,
    azure_like_trace,
    diurnal_trace,
    evaluation_trace,
    poisson_trace,
)
from repro.workload.adversarial import (
    FlashCrowd,
    correlated_topic_requests,
    flash_crowd_trace,
)
from repro.workload.feedback import FeedbackSimulator, PreferenceFeedback
from repro.workload.drift import DriftingWorkload

__all__ = [
    "Request",
    "TaskType",
    "TopicModel",
    "DATASET_PROFILES",
    "DatasetProfile",
    "SyntheticDataset",
    "get_profile",
    "ArrivalTrace",
    "azure_like_trace",
    "diurnal_trace",
    "evaluation_trace",
    "poisson_trace",
    "FlashCrowd",
    "correlated_topic_requests",
    "flash_crowd_trace",
    "FeedbackSimulator",
    "PreferenceFeedback",
    "DriftingWorkload",
]

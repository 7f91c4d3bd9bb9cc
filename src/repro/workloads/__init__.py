"""Workload generators substituting the paper's datasets (Table 3).

ImageNet -> model-shaped synthetic gradients; Yelp -> Zipfian synthetic
corpus; CAIDA traces -> heavy-tailed synthetic flow traces; plus generic
key-distribution helpers.  Each generator reproduces the statistics the
evaluation actually exercises (tensor sizes, key skew, flow-size tail).
"""

from .keys import ZipfGenerator
from .models import MODELS, ModelProfile, synthetic_gradient
from .text import SyntheticCorpus, word_count
from .traces import FlowRecord, SyntheticTrace

__all__ = [
    "ZipfGenerator",
    "ModelProfile", "MODELS", "synthetic_gradient",
    "SyntheticCorpus", "word_count",
    "FlowRecord", "SyntheticTrace",
]

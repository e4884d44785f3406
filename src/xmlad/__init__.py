"""Anomaly detection and localization for schema-bound XML transactions."""

from .schema import AbstractType, ElementDescriptor, SchemaVector, \
    map_xsd_type, parse_xsd
from .extract import (FeatureMatrix, MeasurementVector, build_feature_matrix,
                      extract_row, measure_occurrence)
from .flatten import (FlatDataset, TfIdfDictionary, build_dictionary,
                      flatten_matrix, flatten_row, tfidf)
from .adifa import (AdifaModel, DetectionResult, attribute_entropy,
                    classify, compute_weights, localize, train)
from .inject import (AttackClass, InjectionRecord, InjectionSpec,
                     inject_document, make_anomalous_corpus)
from .model_io import load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "AbstractType", "ElementDescriptor", "SchemaVector", "map_xsd_type",
    "parse_xsd", "FeatureMatrix", "MeasurementVector",
    "build_feature_matrix", "extract_row", "measure_occurrence",
    "FlatDataset", "TfIdfDictionary", "build_dictionary", "flatten_matrix",
    "flatten_row", "tfidf", "AdifaModel", "DetectionResult",
    "attribute_entropy", "classify", "compute_weights", "localize",
    "train", "AttackClass",
    "InjectionRecord", "InjectionSpec", "inject_document",
    "make_anomalous_corpus", "load_model", "save_model",
]

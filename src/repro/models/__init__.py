"""DGNN models: GCN layers, recurrent cells, the paper's model zoo, and
the readout protocol for accuracy experiments."""

from .activations import ACTIVATIONS, relu, sigmoid, softmax, tanh
from .base import DGNNModel
from .layers import GCNLayer, GCNStack, glorot
from .linkpred import (
    auc_score,
    fit_link_decoder,
    link_prediction_auc,
    sample_negative_edges,
    temporal_link_prediction_auc,
)
from .readout import (
    RidgeReadout,
    evaluate_accuracy,
    fit_readout,
    make_teacher_labels,
    split_vertices,
    test_vertex_accuracy,
)
from .rnn import (
    EXACT_OPS,
    CellOps,
    ElmanCell,
    GRUCell,
    GRUState,
    IdentityCell,
    LSTMCell,
    LSTMState,
    RecurrentCell,
)
from .zoo import CDGCN, GCLSTM, GCRN, MODEL_ZOO, TGCN, EvolveGCN, GraphLSTMCell, make_model

__all__ = [
    "ACTIVATIONS",
    "relu",
    "sigmoid",
    "softmax",
    "tanh",
    "DGNNModel",
    "GCNLayer",
    "GCNStack",
    "glorot",
    "auc_score",
    "fit_link_decoder",
    "link_prediction_auc",
    "sample_negative_edges",
    "temporal_link_prediction_auc",
    "RidgeReadout",
    "evaluate_accuracy",
    "fit_readout",
    "test_vertex_accuracy",
    "make_teacher_labels",
    "split_vertices",
    "CellOps",
    "EXACT_OPS",
    "ElmanCell",
    "GRUCell",
    "IdentityCell",
    "GRUState",
    "LSTMCell",
    "LSTMState",
    "RecurrentCell",
    "CDGCN",
    "EvolveGCN",
    "GCRN",
    "GCLSTM",
    "TGCN",
    "GraphLSTMCell",
    "MODEL_ZOO",
    "make_model",
]

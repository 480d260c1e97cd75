"""Defense methods for federated recommendation (Section V).

Server-side Byzantine-robust baselines (NormBound, Median, TrimmedMean,
Krum, MultiKrum, Bulyan) implement the :class:`repro.federated.Aggregator`
interface; the paper shows (Eq. 11) and we reproduce (Table IV) that
they cannot protect cold target items. The paper's own defense is
client-side: benign users mine popular items themselves and add the
Re1 / Re2 regularization terms to their training loss (Eq. 14-16).
"""

from repro.defenses.coordinated import ItemScaleClip
from repro.defenses.regularization import ClientRegularizer, ReferenceRegularizer
from repro.defenses.registry import (
    DEFENSE_NAMES,
    build_client_regularizer,
    build_server_defense,
    client_regularizer_factory,
)
from repro.defenses.robust import (
    BulyanAggregator,
    KrumAggregator,
    MedianAggregator,
    MultiKrumAggregator,
    NormBoundFilter,
    TrimmedMeanAggregator,
)

__all__ = [
    "NormBoundFilter",
    "MedianAggregator",
    "TrimmedMeanAggregator",
    "KrumAggregator",
    "MultiKrumAggregator",
    "BulyanAggregator",
    "ClientRegularizer",
    "ReferenceRegularizer",
    "ItemScaleClip",
    "DEFENSE_NAMES",
    "build_client_regularizer",
    "build_server_defense",
    "client_regularizer_factory",
]

"""Queue-driven sparse-gradient boosting for momentum optimizers.

A bounded queue of recent gradients supplies per-coordinate mean and
standard deviation; incoming gradients are rescaled by their clamped
z-score so rare components are amplified and repeating ones dampened.
The package also provides cluster-based mini-batch aggregation, closed
forms with independent simulators for the boosted momentum dynamics, and
a small line-detection experiment exercising the whole mechanism.
"""

from . import core, optimizers, clustering, analysis, nn
from .core import *
from .optimizers import *
from .clustering import *
from .analysis import *
from .nn import *

__version__ = "0.1.0"

# each module's __all__ is its one export list
__all__ = core.__all__ + optimizers.__all__ + clustering.__all__ + analysis.__all__ + nn.__all__

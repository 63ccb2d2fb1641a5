"""Reproduction of "Class-Aware Pruning for Efficient Neural Networks".

(M. Jiang et al., DATE 2024.)

The package is self-contained — a numpy autograd engine and CNN stack stand
in for PyTorch, and a seeded synthetic image task stands in for CIFAR (see
DESIGN.md for the substitution rationale). Quick start::

    from repro.data import make_cifar_like
    from repro.models import vgg16
    from repro.core import ClassAwarePruningFramework, FrameworkConfig

    train, test = make_cifar_like(num_classes=10, image_size=16)
    model = vgg16(num_classes=10, image_size=16, width=0.25)
    fw = ClassAwarePruningFramework(model, train, test, num_classes=10,
                                    input_shape=(3, 16, 16))
    fw.pretrain()
    result = fw.run()
    print(result.summary_row("VGG16"))

Subpackages
-----------
``repro.tensor``     numpy autograd engine
``repro.nn``         layers, losses, module system
``repro.optim``      SGD + LR schedules
``repro.data``       loaders + synthetic CIFAR substitute
``repro.models``     VGG / ResNet / MLP zoo with pruning metadata
``repro.flops``      parameter & FLOP accounting
``repro.core``       the class-aware pruning method (the paper)
``repro.infer``      compiled inference engine (capture / fold / fuse)
``repro.serve``      async inference service (batching / shedding / hot-swap)
``repro.baselines``  L1 / SSS / HRank / TPP / OrthConv / DepGraph / ...
``repro.analysis``   histograms, comparisons, experiment records
"""

__version__ = "1.0.0"

from . import (analysis, baselines, core, data, flops, infer, io, models, nn,
               optim, tensor)

__all__ = ["tensor", "nn", "optim", "data", "models", "flops", "core",
           "infer", "baselines", "analysis", "io", "__version__"]

"""Datasets, loaders, the synthetic CIFAR substitute, and real-CIFAR files."""

from .cifar import CIFAR_MEAN, CIFAR_STD, load_cifar10, load_cifar100
from .dataset import (DataLoader, Dataset, EmptyDatasetError, Subset,
                      TensorDataset, per_class_images)
from .synthetic import (SyntheticConfig, SyntheticImageClassification,
                        make_cifar_like)
from .transforms import (Compose, GaussianNoise, Normalize, RandomCrop,
                         RandomHorizontalFlip)

__all__ = [
    "Dataset", "TensorDataset", "Subset", "DataLoader", "per_class_images",
    "EmptyDatasetError",
    "SyntheticConfig", "SyntheticImageClassification", "make_cifar_like",
    "Compose", "RandomHorizontalFlip", "RandomCrop", "Normalize",
    "GaussianNoise",
    "load_cifar10", "load_cifar100", "CIFAR_MEAN", "CIFAR_STD",
]

"""Dataset and batch-loading abstractions.

The interface intentionally mirrors ``torch.utils.data`` so the training
and pruning code reads like the reference implementation the paper authors
would have written, while remaining pure numpy.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

__all__ = ["Dataset", "TensorDataset", "Subset", "DataLoader",
           "per_class_images", "EmptyDatasetError"]


class EmptyDatasetError(ValueError):
    """A computation received a dataset (or class slice) with no samples.

    Subclasses ``ValueError`` so existing ``except ValueError`` callers
    keep working; the dedicated type lets evaluation and importance code
    fail with an explicit message instead of a silent divide-by-zero.
    """


class Dataset:
    """Abstract map-style dataset of ``(image, label)`` pairs."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:
        raise NotImplementedError

    @property
    def labels(self) -> np.ndarray:
        """Integer label of every item; enables fast per-class sampling."""
        raise NotImplementedError

    def gather(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Images ``(B, C, H, W)`` and ``intp`` labels ``(B,)`` of a batch.

        Reads item by item; array-backed datasets override it with one
        fancy index.
        """
        items = [self[int(i)] for i in indices]
        return (np.stack([image for image, _ in items]),
                np.array([label for _, label in items], dtype=np.intp))


class TensorDataset(Dataset):
    """Dataset over pre-materialised arrays ``images (N,C,H,W)``/``labels (N,)``."""

    def __init__(self, images: np.ndarray, labels: np.ndarray):
        if len(images) != len(labels):
            raise ValueError(
                f"images ({len(images)}) and labels ({len(labels)}) disagree on length")
        self.images = np.asarray(images, dtype=np.float32)
        self._labels = np.asarray(labels, dtype=np.intp)

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:
        return self.images[index], int(self._labels[index])

    def gather(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.images[indices], self._labels[indices]

    @property
    def labels(self) -> np.ndarray:
        return self._labels


class Subset(Dataset):
    """View of a dataset restricted to the given indices."""

    def __init__(self, dataset: Dataset, indices: np.ndarray):
        self.dataset = dataset
        self.indices = np.asarray(indices, dtype=np.intp)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:
        return self.dataset[int(self.indices[index])]

    def gather(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.dataset.gather(self.indices[indices])

    @property
    def labels(self) -> np.ndarray:
        return self.dataset.labels[self.indices]


class DataLoader:
    """Mini-batch iterator with optional shuffling and per-batch transforms.

    Parameters
    ----------
    dataset:
        Source dataset.
    batch_size:
        Number of samples per batch (last batch may be smaller unless
        ``drop_last``).
    shuffle:
        Reshuffle indices at the start of every epoch, using a generator
        seeded once at construction so runs are reproducible.
    transform:
        Optional callable applied to each *batch* of images
        ``(B, C, H, W) -> (B, C, H, W)``; data augmentation lives here.
    """

    def __init__(self, dataset: Dataset, batch_size: int = 32,
                 shuffle: bool = False, seed: int = 0, drop_last: bool = False,
                 transform: Callable[[np.ndarray, np.random.Generator], np.ndarray] | None = None):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.transform = transform
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            idx = order[start:start + self.batch_size]
            if self.drop_last and len(idx) < self.batch_size:
                break
            images, labels = self.dataset.gather(idx)
            if self.transform is not None:
                images = self.transform(images, self._rng)
            yield images, labels


def per_class_images(dataset: Dataset, class_index: int, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Randomly select ``count`` training images of one class.

    This is the sampling step of the paper's importance evaluation
    (Sec. III-B / IV: "10 images for each class were randomly selected in
    the training datasets").
    """
    if len(dataset) == 0:
        raise EmptyDatasetError(
            "per_class_images received an empty dataset — cannot sample "
            f"images of class {class_index}")
    candidates = np.flatnonzero(dataset.labels == class_index)
    if len(candidates) == 0:
        raise EmptyDatasetError(
            f"dataset holds no samples of class {class_index}; every class "
            "needs at least one training image for per-class sampling")
    chosen = rng.choice(candidates, size=min(count, len(candidates)),
                        replace=False)
    return dataset.gather(chosen)[0]

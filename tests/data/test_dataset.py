"""Dataset, Subset, DataLoader, per-class sampling."""

import numpy as np
import pytest

from repro.core import class_subset
from repro.data import (DataLoader, Dataset, RandomHorizontalFlip, Subset,
                        TensorDataset, per_class_images)


def make_ds(n=20, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(n, 3, 4, 4)).astype(np.float32)
    labels = np.arange(n) % classes
    return TensorDataset(images, labels)


class TestTensorDataset:
    def test_len_and_getitem(self):
        ds = make_ds()
        assert len(ds) == 20
        image, label = ds[3]
        assert image.shape == (3, 4, 4)
        assert label == 3

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            TensorDataset(np.zeros((3, 1, 2, 2)), np.zeros(4))

    def test_labels_property(self):
        ds = make_ds(classes=2)
        np.testing.assert_array_equal(ds.labels, np.arange(20) % 2)


class TestSubset:
    def test_restricts_view(self):
        ds = make_ds()
        sub = Subset(ds, np.array([5, 7]))
        assert len(sub) == 2
        assert sub[0][1] == ds[5][1]

    def test_labels_follow_indices(self):
        ds = make_ds(classes=4)
        sub = Subset(ds, np.array([0, 4, 8]))
        np.testing.assert_array_equal(sub.labels, [0, 0, 0])


class TestDataLoader:
    def test_batch_shapes(self):
        loader = DataLoader(make_ds(), batch_size=8)
        batches = list(loader)
        assert [len(b[1]) for b in batches] == [8, 8, 4]
        assert batches[0][0].shape == (8, 3, 4, 4)

    def test_len(self):
        assert len(DataLoader(make_ds(), batch_size=8)) == 3
        assert len(DataLoader(make_ds(), batch_size=8, drop_last=True)) == 2

    def test_drop_last(self):
        loader = DataLoader(make_ds(), batch_size=8, drop_last=True)
        assert [len(b[1]) for b in loader] == [8, 8]

    def test_no_shuffle_preserves_order(self):
        loader = DataLoader(make_ds(), batch_size=20, shuffle=False)
        _, labels = next(iter(loader))
        np.testing.assert_array_equal(labels, np.arange(20) % 4)

    def test_shuffle_changes_order_but_not_content(self):
        loader = DataLoader(make_ds(), batch_size=20, shuffle=True, seed=1)
        _, labels = next(iter(loader))
        assert not np.array_equal(labels, np.arange(20) % 4)
        assert sorted(labels) == sorted(np.arange(20) % 4)

    def test_shuffle_is_seed_deterministic(self):
        l1 = DataLoader(make_ds(), batch_size=20, shuffle=True, seed=42)
        l2 = DataLoader(make_ds(), batch_size=20, shuffle=True, seed=42)
        np.testing.assert_array_equal(next(iter(l1))[1], next(iter(l2))[1])

    def test_epochs_reshuffle(self):
        loader = DataLoader(make_ds(), batch_size=20, shuffle=True, seed=0)
        first = next(iter(loader))[1]
        second = next(iter(loader))[1]
        assert not np.array_equal(first, second)

    def test_transform_applied(self):
        loader = DataLoader(make_ds(), batch_size=4,
                            transform=lambda batch, rng: batch * 0.0)
        images, _ = next(iter(loader))
        assert (images == 0).all()

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(make_ds(), batch_size=0)


class ItemWise(Dataset):
    """The same items through the default, item-by-item ``gather``."""

    def __init__(self, dataset):
        self.dataset = dataset

    def __len__(self):
        return len(self.dataset)

    def __getitem__(self, index):
        return self.dataset[index]

    @property
    def labels(self):
        return self.dataset.labels


class TestGather:
    """One fancy index per batch gives bitwise the item-by-item batches."""

    @pytest.mark.parametrize("view", ["tensor", "subset", "class_subset"])
    @pytest.mark.parametrize("drop_last", [False, True])
    def test_loader_batches_bitwise_equal(self, view, drop_last):
        ds = make_ds(n=23)
        wrap = {"tensor": lambda d: d,
                "subset": lambda d: Subset(d, np.array([9, 2, 2, 17, 5,
                                                        22, 0, 11, 3])),
                "class_subset": lambda d: class_subset(d, [3, 1])}[view]
        loaders = [DataLoader(wrap(d), batch_size=4, shuffle=True, seed=5,
                              drop_last=drop_last,
                              transform=RandomHorizontalFlip())
                   for d in (ds, ItemWise(ds))]
        for _ in range(2):                      # two epochs
            batches = [list(loader) for loader in loaders]
            assert len(batches[0]) == len(batches[1]) > 0
            for (xa, ya), (xb, yb) in zip(*batches):
                assert xa.tobytes() == xb.tobytes()
                assert ya.dtype == yb.dtype == np.intp
                np.testing.assert_array_equal(ya, yb)

    def test_per_class_images_bitwise_equal(self):
        ds = make_ds(n=30, classes=3)
        images = [per_class_images(d, 2, 4, np.random.default_rng(1))
                  for d in (ds, ItemWise(ds))]
        assert images[0].tobytes() == images[1].tobytes()


class TestPerClassImages:
    def test_returns_requested_count(self):
        ds = make_ds(n=40, classes=4)
        rng = np.random.default_rng(0)
        images = per_class_images(ds, 2, 5, rng)
        assert images.shape == (5, 3, 4, 4)

    def test_all_images_have_requested_class(self):
        ds = make_ds(n=40, classes=4)
        rng = np.random.default_rng(0)
        candidates = np.flatnonzero(ds.labels == 1)
        chosen = per_class_images(ds, 1, 5, rng)
        pool = ds.images[candidates]
        for img in chosen:
            assert any(np.array_equal(img, p) for p in pool)

    def test_caps_at_available(self):
        ds = make_ds(n=8, classes=4)   # 2 per class
        images = per_class_images(ds, 0, 10, np.random.default_rng(0))
        assert len(images) == 2

    def test_missing_class_raises(self):
        ds = make_ds(n=8, classes=4)
        with pytest.raises(ValueError):
            per_class_images(ds, 99, 1, np.random.default_rng(0))

"""im2col signature cache and the inference-mode tape fast paths."""

import numpy as np
import pytest

from repro.tensor import Tensor, inference_mode, no_grad, ops
from repro.tensor.conv import (IM2COL_CACHE_SIZE, _SIGNATURE_CACHE,
                               clear_im2col_cache, conv2d, im2col,
                               im2col_signature)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_im2col_cache()
    yield
    clear_im2col_cache()


class TestSignatureCache:
    def test_signature_is_memoized(self):
        a = im2col_signature(3, 8, 8, 3, 3, 1, 1)
        b = im2col_signature(3, 8, 8, 3, 3, 1, 1)
        assert a is b
        assert len(_SIGNATURE_CACHE) == 1

    def test_cache_is_bounded(self):
        for size in range(IM2COL_CACHE_SIZE + 10):
            im2col_signature(1, 8 + size, 8, 3, 3, 1, 1)
        assert len(_SIGNATURE_CACHE) == IM2COL_CACHE_SIZE

    def test_lru_keeps_recently_used(self):
        keep = im2col_signature(3, 8, 8, 3, 3, 1, 1)
        for size in range(IM2COL_CACHE_SIZE - 1):
            im2col_signature(1, 9 + size, 8, 3, 3, 1, 1)
        # Touch the first signature, then overflow by one: the oldest
        # *untouched* entry must be evicted, not the one we refreshed.
        assert im2col_signature(3, 8, 8, 3, 3, 1, 1) is keep
        im2col_signature(2, 200, 8, 3, 3, 1, 1)
        assert im2col_signature(3, 8, 8, 3, 3, 1, 1) is keep


class TestInferenceModeFastPaths:
    def test_no_grad_conv_builds_no_graph(self):
        x = Tensor(np.random.rand(2, 3, 8, 8).astype(np.float32),
                   requires_grad=True)
        w = Tensor(np.random.rand(4, 3, 3, 3).astype(np.float32),
                   requires_grad=True)
        with no_grad():
            out = conv2d(x, w, padding=1)
        assert out._parents == ()
        assert out._backward is None

    def test_inference_mode_is_forward_only(self):
        x = Tensor(np.random.rand(2, 5).astype(np.float32),
                   requires_grad=True)
        with inference_mode():
            out = ops.relu(ops.mul(x, x))
        assert out._parents == ()

    def test_fast_path_matches_taped_forward(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
                   requires_grad=True)
        taped = conv2d(x, w, padding=1)
        with no_grad():
            untaped = conv2d(x, w, padding=1)
        np.testing.assert_array_equal(taped.data, untaped.data)

    def test_constant_inputs_skip_tape_outside_no_grad(self):
        # No tensor requires grad => no backward closure even when the
        # global grad switch is on.
        a = Tensor(np.ones((2, 2), dtype=np.float32))
        b = Tensor(np.ones((2, 2), dtype=np.float32))
        out = ops.add(a, b)
        assert out._parents == ()


class TestDtypeInSignature:
    """The int8 engine lowers through the same geometries as float32;
    sharing a signature across dtypes would alias per-dtype derived
    state, so the dtype is part of the cache key."""

    def test_distinct_dtypes_get_distinct_signatures(self):
        f32 = im2col_signature(3, 8, 8, 3, 3, 1, 1, dtype=np.float32)
        i8 = im2col_signature(3, 8, 8, 3, 3, 1, 1, dtype=np.int8)
        assert f32 is not i8
        assert f32.dtype == np.float32 and i8.dtype == np.int8
        assert len(_SIGNATURE_CACHE) == 2

    def test_same_dtype_still_memoizes(self):
        a = im2col_signature(3, 8, 8, 3, 3, 1, 1, dtype=np.int8)
        b = im2col_signature(3, 8, 8, 3, 3, 1, 1, dtype=np.int8)
        assert a is b

    def test_im2col_keys_cache_by_input_dtype(self):
        rng = np.random.default_rng(0)
        xf = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        xi = rng.integers(-127, 128, size=(2, 3, 8, 8), dtype=np.int8)
        cols_f = im2col(xf, 3, 3, 1, 1)
        cols_i = im2col(xi, 3, 3, 1, 1)
        assert cols_f.dtype == np.float32
        assert cols_i.dtype == np.int8
        keys = {(sig.dtype) for sig in _SIGNATURE_CACHE.values()}
        assert np.dtype(np.float32) in keys and np.dtype(np.int8) in keys

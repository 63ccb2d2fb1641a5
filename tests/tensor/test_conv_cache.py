"""Inference-mode tape fast paths: no graph, same forward values."""

import numpy as np

from repro.tensor import Tensor, inference_mode, no_grad, ops
from repro.tensor.conv import conv2d


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

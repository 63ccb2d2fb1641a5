"""Property-based gradient fuzzing of every differentiable op.

Each :class:`OpSpec` owns a *builder*: a function that, given a seeded
``numpy.random.Generator``, materialises one or more random test cases
(function + input tensors) for the op it covers. The fuzzer sweeps the
registry, drawing fresh shapes/strides/paddings each round, and validates
every case against central finite differences
(:func:`repro.verify.gradcheck.check_gradients`).

Coverage is a first-class contract: :func:`required_coverage` derives the
set of public differentiable names from the ``__all__`` of
``repro.tensor.ops``, ``repro.tensor.conv`` and ``repro.nn`` (plus the
regularizer surface in ``repro.core``), and :func:`coverage_gaps` reports
any name no spec claims. ``tests/verify/test_coverage.py`` asserts the gap
set is empty, so adding a public op without a fuzz spec fails CI.

Builders must respect two numerical ground rules:

* keep inputs away from non-differentiable kinks (|x| at 0, clip bounds,
  max ties) by more than the finite-difference step ``eps``;
* keep tensors tiny — the numerical gradient costs two forwards per input
  element.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from ..tensor import Tensor, conv as tconv, ops
from .gradcheck import check_gradients

__all__ = [
    "FuzzCase", "OpSpec", "FuzzResult", "OP_SPECS", "register_spec",
    "required_coverage", "covered_names", "coverage_gaps", "run_spec",
    "run_fuzzer", "QUICK_SPECS",
]


@dataclass
class FuzzCase:
    """One concrete gradient check: ``fn(*inputs)`` against finite diffs."""

    fn: Callable[..., Tensor]
    inputs: list
    note: str = ""


@dataclass(frozen=True)
class OpSpec:
    """Fuzz recipe for one public op.

    Attributes
    ----------
    name:
        Registry key, namespaced (``ops.matmul``, ``nn.Conv2d``).
    covers:
        Fully-qualified public names this spec certifies; the union over
        the registry must equal :func:`required_coverage`.
    build:
        ``rng -> FuzzCase | list[FuzzCase]`` drawing one round of cases.
    atol / rtol / eps:
        Tolerances forwarded to :func:`check_gradients`.
    quick:
        Whether the spec is part of the fast tier-1 subset.
    """

    name: str
    covers: tuple[str, ...]
    build: Callable[[np.random.Generator], "FuzzCase | list[FuzzCase]"]
    atol: float = 1e-2
    rtol: float = 1e-2
    eps: float = 1e-3
    quick: bool = True


@dataclass
class FuzzResult:
    """Outcome of fuzzing one spec for some number of rounds."""

    spec: str
    cases: int
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures


OP_SPECS: dict[str, OpSpec] = {}


def register_spec(name: str, covers: Iterable[str], *, atol: float = 1e-2,
                  rtol: float = 1e-2, eps: float = 1e-3, quick: bool = True):
    """Decorator: register a builder under ``name``."""
    def wrap(build):
        if name in OP_SPECS:
            raise ValueError(f"duplicate fuzz spec {name!r}")
        OP_SPECS[name] = OpSpec(name=name, covers=tuple(covers), build=build,
                                atol=atol, rtol=rtol, eps=eps, quick=quick)
        return build
    return wrap


# ----------------------------------------------------------------------
# Random-input helpers
# ----------------------------------------------------------------------

def _shape(rng: np.random.Generator, min_ndim: int = 1, max_ndim: int = 3,
           max_dim: int = 4) -> tuple[int, ...]:
    nd = int(rng.integers(min_ndim, max_ndim + 1))
    return tuple(int(rng.integers(1, max_dim + 1)) for _ in range(nd))


def _t(rng: np.random.Generator, shape, low: float = -2.0,
       high: float = 2.0) -> Tensor:
    data = rng.uniform(low, high, size=shape).astype(np.float32)
    return Tensor(data, requires_grad=True)


def _t_pos(rng: np.random.Generator, shape, low: float = 0.5,
           high: float = 2.0) -> Tensor:
    return _t(rng, shape, low, high)


def _t_away(rng: np.random.Generator, shape, points, margin: float) -> Tensor:
    """Tensor whose entries keep ``margin`` distance from each kink point."""
    data = rng.uniform(-2.0, 2.0, size=shape)
    for p in np.atleast_1d(points):
        close = np.abs(data - p) < margin
        data = np.where(close, p + np.sign(data - p + 1e-9) * margin, data)
    return Tensor(data.astype(np.float32), requires_grad=True)


def _t_distinct(rng: np.random.Generator, shape, gap: float = 0.1) -> Tensor:
    """Tensor with pairwise-distinct entries (safe for max/argmax ops)."""
    n = int(np.prod(shape))
    flat = (rng.permutation(n).astype(np.float64) - n / 2) * gap
    return Tensor(flat.reshape(shape).astype(np.float32), requires_grad=True)


def _layout(rng: np.random.Generator, t: Tensor) -> str:
    """Leave ``t`` as drawn, or half the time move it to an NCHW view over
    channels-last memory: the layout convolution, batch norm and pooling
    outputs have. Returns the layout's name for the case note."""
    if rng.random() < 0.5:
        return "nchw"
    t.data = np.ascontiguousarray(
        t.data.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    return "nhwc"


def _broadcast_partner(rng: np.random.Generator, shape) -> tuple[int, ...]:
    """A shape that numpy-broadcasts against ``shape``."""
    out = list(shape)
    for i in range(len(out)):
        if rng.random() < 0.3:
            out[i] = 1
    drop = int(rng.integers(0, len(out)))  # drop some leading axes
    out = out[drop:]
    return tuple(out) if out else (1,)


def _axis(rng: np.random.Generator, ndim: int):
    """None, a single axis, or a tuple of axes."""
    r = rng.random()
    if r < 0.34 or ndim == 0:
        return None
    if r < 0.67:
        return int(rng.integers(-ndim, ndim))
    k = int(rng.integers(1, ndim + 1))
    return tuple(int(ax) for ax in rng.choice(ndim, size=k, replace=False))


# ----------------------------------------------------------------------
# repro.tensor.ops specs
# ----------------------------------------------------------------------

def _binary_broadcast(op):
    def build(rng):
        shape = _shape(rng)
        a = _t(rng, shape)
        b = _t(rng, _broadcast_partner(rng, shape))
        return FuzzCase(op, [a, b], note=f"{a.shape}x{b.shape}")
    return build


for _name, _op in (("add", ops.add), ("sub", ops.sub), ("mul", ops.mul)):
    register_spec(f"ops.{_name}", [f"ops.{_name}"])(_binary_broadcast(_op))


@register_spec("ops.div", ["ops.div"])
def _build_div(rng):
    shape = _shape(rng)
    a = _t(rng, shape)
    b_shape = _broadcast_partner(rng, shape)
    b_data = rng.uniform(0.5, 2.0, size=b_shape) * rng.choice([-1.0, 1.0],
                                                              size=b_shape)
    b = Tensor(b_data.astype(np.float32), requires_grad=True)
    return FuzzCase(ops.div, [a, b], note=f"{a.shape}/{b.shape}")


@register_spec("ops.neg", ["ops.neg"])
def _build_neg(rng):
    return FuzzCase(ops.neg, [_t(rng, _shape(rng))])


@register_spec("ops.pow", ["ops.pow"])
def _build_pow(rng):
    exponent = float(rng.choice([2.0, 3.0, 0.5, 1.5, -1.0, -2.0]))
    base = _t_pos(rng, _shape(rng))
    return FuzzCase(lambda a: ops.pow(a, exponent), [base],
                    note=f"exp={exponent}")


@register_spec("ops.exp", ["ops.exp"])
def _build_exp(rng):
    return FuzzCase(ops.exp, [_t(rng, _shape(rng), -1.5, 1.5)])


@register_spec("ops.log", ["ops.log"])
def _build_log(rng):
    return FuzzCase(ops.log, [_t_pos(rng, _shape(rng))])


@register_spec("ops.sqrt", ["ops.sqrt"])
def _build_sqrt(rng):
    return FuzzCase(ops.sqrt, [_t_pos(rng, _shape(rng))])


@register_spec("ops.abs", ["ops.abs"])
def _build_abs(rng):
    return FuzzCase(ops.abs, [_t_away(rng, _shape(rng), 0.0, 0.05)])


@register_spec("ops.relu", ["ops.relu"])
def _build_relu(rng):
    return FuzzCase(ops.relu, [_t_away(rng, _shape(rng), 0.0, 0.05)])


@register_spec("ops.sigmoid", ["ops.sigmoid"])
def _build_sigmoid(rng):
    return FuzzCase(ops.sigmoid, [_t(rng, _shape(rng))])


@register_spec("ops.tanh", ["ops.tanh"])
def _build_tanh(rng):
    return FuzzCase(ops.tanh, [_t(rng, _shape(rng))])


@register_spec("ops.clip", ["ops.clip"])
def _build_clip(rng):
    low, high = -1.0, 1.0
    x = _t_away(rng, _shape(rng), [low, high], 0.05)
    return FuzzCase(lambda a: ops.clip(a, low, high), [x])


@register_spec("ops.dropout_mask", ["ops.dropout_mask"])
def _build_dropout_mask(rng):
    shape = _shape(rng)
    mask = (rng.random(shape) < 0.7).astype(np.float32) / 0.7
    return FuzzCase(lambda a: ops.dropout_mask(a, mask), [_t(rng, shape)])


def _build_extremum(op):
    def build(rng):
        shape = _shape(rng)
        a = _t(rng, shape)
        # Enforce a margin between the operands so finite differences never
        # cross the tie (the subgradient there is genuinely ambiguous).
        offset = rng.uniform(0.05, 1.0, size=shape) * rng.choice(
            [-1.0, 1.0], size=shape)
        b = Tensor((a.data + offset).astype(np.float32), requires_grad=True)
        return FuzzCase(op, [a, b])
    return build


register_spec("ops.maximum", ["ops.maximum"])(_build_extremum(ops.maximum))
register_spec("ops.minimum", ["ops.minimum"])(_build_extremum(ops.minimum))


@register_spec("ops.where", ["ops.where"])
def _build_where(rng):
    shape = _shape(rng)
    cond = rng.random(shape) < 0.5
    return FuzzCase(lambda a, b: ops.where(cond, a, b),
                    [_t(rng, shape), _t(rng, shape)])


@register_spec("ops.matmul", ["ops.matmul"])
def _build_matmul(rng):
    n, k, m, batch = (int(rng.integers(1, 4)) for _ in range(4))
    shapes = [
        ((k,), (k,)), ((n, k), (k,)), ((k,), (k, m)), ((n, k), (k, m)),
        ((batch, n, k), (k, m)), ((batch, n, k), (batch, k, m)),
        ((batch, n, k), (k,)), ((k,), (batch, k, m)),
        ((n, k), (batch, k, m)), ((1, n, k), (batch, k, m)),
    ]
    sa, sb = shapes[int(rng.integers(0, len(shapes)))]
    return FuzzCase(ops.matmul, [_t(rng, sa), _t(rng, sb)],
                    note=f"{sa}@{sb}")


def _build_reduction(op, distinct: bool = False):
    def build(rng):
        shape = _shape(rng, min_ndim=1, max_ndim=3)
        x = _t_distinct(rng, shape) if distinct else _t(rng, shape)
        axis = _axis(rng, len(shape))
        keepdims = bool(rng.random() < 0.5)
        return FuzzCase(lambda a: op(a, axis=axis, keepdims=keepdims), [x],
                        note=f"axis={axis} keepdims={keepdims}")
    return build


register_spec("ops.sum", ["ops.sum"])(_build_reduction(ops.sum))
register_spec("ops.mean", ["ops.mean"])(_build_reduction(ops.mean))
register_spec("ops.max", ["ops.max"])(_build_reduction(ops.max, distinct=True))


@register_spec("ops.logsumexp", ["ops.logsumexp"])
def _build_logsumexp(rng):
    shape = _shape(rng, min_ndim=1, max_ndim=3)
    axis = int(rng.integers(-len(shape), len(shape)))
    keepdims = bool(rng.random() < 0.5)
    return FuzzCase(lambda a: ops.logsumexp(a, axis=axis, keepdims=keepdims),
                    [_t(rng, shape)], note=f"axis={axis}")


def _build_softmaxish(op):
    def build(rng):
        shape = _shape(rng, min_ndim=1, max_ndim=3)
        axis = int(rng.integers(-len(shape), len(shape)))
        return FuzzCase(lambda a: op(a, axis=axis), [_t(rng, shape)],
                        note=f"axis={axis}")
    return build


register_spec("ops.log_softmax", ["ops.log_softmax"])(
    _build_softmaxish(ops.log_softmax))
register_spec("ops.softmax", ["ops.softmax"])(_build_softmaxish(ops.softmax))


@register_spec("ops.reshape", ["ops.reshape"])
def _build_reshape(rng):
    shape = _shape(rng)
    n = int(np.prod(shape))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    d = int(rng.choice(divisors))
    target = (d, n // d) if rng.random() < 0.5 else (d, -1)
    return FuzzCase(lambda a: ops.reshape(a, target), [_t(rng, shape)],
                    note=f"{shape}->{target}")


@register_spec("ops.transpose", ["ops.transpose"])
def _build_transpose(rng):
    shape = _shape(rng, min_ndim=2, max_ndim=4)
    axes = (None if rng.random() < 0.3
            else tuple(int(i) for i in rng.permutation(len(shape))))
    return FuzzCase(lambda a: ops.transpose(a, axes), [_t(rng, shape)],
                    note=f"axes={axes}")


@register_spec("ops.flatten", ["ops.flatten"])
def _build_flatten(rng):
    shape = _shape(rng, min_ndim=2, max_ndim=4)
    start = int(rng.integers(0, len(shape)))
    return FuzzCase(lambda a: ops.flatten(a, start_dim=start), [_t(rng, shape)])


@register_spec("ops.getitem", ["ops.getitem"])
def _build_getitem(rng):
    shape = _shape(rng, min_ndim=1, max_ndim=3)
    x = _t(rng, shape)
    mode = rng.random()
    if mode < 0.3:
        index = int(rng.integers(0, shape[0]))
    elif mode < 0.6:
        lo = int(rng.integers(0, shape[0]))
        index = slice(lo, int(rng.integers(lo, shape[0])) + 1)
    elif mode < 0.85 or len(shape) < 2:
        # Fancy indexing with duplicates exercises gradient accumulation.
        index = rng.integers(0, shape[0], size=shape[0] + 1)
    else:
        rows = rng.integers(0, shape[0], size=3)
        cols = rng.integers(0, shape[1], size=3)
        index = (rows, cols)
    return FuzzCase(lambda a: ops.getitem(a, index), [x], note=f"idx={index}")


def _build_join(op):
    def build(rng):
        shape = _shape(rng, min_ndim=1, max_ndim=3)
        axis = int(rng.integers(0, len(shape)))
        parts = [_t(rng, shape) for _ in range(int(rng.integers(2, 4)))]
        return FuzzCase(lambda *ts: op(list(ts), axis=axis), parts,
                        note=f"axis={axis} n={len(parts)}")
    return build


register_spec("ops.concat", ["ops.concat"])(_build_join(ops.concat))
register_spec("ops.stack", ["ops.stack"])(_build_join(ops.stack))


@register_spec("ops.pad2d", ["ops.pad2d"])
def _build_pad2d(rng):
    shape = (int(rng.integers(1, 3)), int(rng.integers(1, 3)),
             int(rng.integers(2, 5)), int(rng.integers(2, 5)))
    padding = (int(rng.integers(0, 3)) if rng.random() < 0.5
               else (int(rng.integers(0, 3)), int(rng.integers(0, 3))))
    return FuzzCase(lambda a: ops.pad2d(a, padding), [_t(rng, shape)],
                    note=f"pad={padding}")


# ----------------------------------------------------------------------
# repro.tensor.conv specs
# ----------------------------------------------------------------------

def _conv_geometry(rng, max_kernel: int = 3, centre: bool = False,
                   stride: int | None = None):
    if centre:      # 1x1 input under "same" padding: conv2d's centre tap
        kernel = int(rng.choice([1, 3]))
        return kernel, int(rng.integers(1, 3)), kernel // 2, 1
    kernel = int(rng.integers(1, max_kernel + 1))
    stride = stride or int(rng.integers(1, 3))
    padding = int(rng.integers(0, 3))
    # Smallest input that still yields at least one output position.
    min_size = max(kernel - 2 * padding, 1)
    size = int(rng.integers(min_size, min_size + 3))
    return kernel, stride, padding, size


@register_spec("conv.conv2d", ["conv.conv2d"])
def _build_conv2d(rng):
    # Every round, the --quick one too, checks a stride-1 case (the
    # transposed-GEMM input gradient), a stride-2 case (the col2im
    # scatter) and a centre-tap case.
    return [_conv2d_case(rng, _conv_geometry(rng, stride=stride))
            for stride in (1, 2)] + [
        _conv2d_case(rng, _conv_geometry(rng, centre=True))]


def _conv2d_case(rng, geometry):
    kernel, stride, padding, size = geometry
    n, c, o = (int(rng.integers(1, 3)) for _ in range(3))
    x = _t(rng, (n, c, size, size))
    w = _t(rng, (o, c, kernel, kernel), -1.0, 1.0)
    inputs = [x, w]
    note = f"k={kernel} s={stride} p={padding} in={size}"
    if rng.random() < 0.5:
        b = _t(rng, (o,))
        return FuzzCase(
            lambda xi, wi, bi: tconv.conv2d(xi, wi, bi, stride=stride,
                                            padding=padding),
            inputs + [b], note=note + " bias")
    return FuzzCase(
        lambda xi, wi: tconv.conv2d(xi, wi, stride=stride, padding=padding),
        inputs, note=note)


def _build_pool(op, distinct: bool):
    def build(rng):
        kernel = int(rng.integers(2, 4))
        stride = int(rng.choice([0, 1, 2, 3]))  # 0 -> default (== kernel)
        stride_arg = stride or None
        size = kernel + int(rng.integers(0, 4))
        shape = (int(rng.integers(1, 3)), int(rng.integers(1, 3)), size, size)
        x = _t_distinct(rng, shape) if distinct else _t(rng, shape)
        layout = _layout(rng, x) if distinct else "nchw"
        return FuzzCase(lambda a: op(a, kernel, stride_arg), [x],
                        note=f"k={kernel} s={stride_arg} in={size} {layout}")
    return build


register_spec("conv.max_pool2d", ["conv.max_pool2d"])(
    _build_pool(tconv.max_pool2d, distinct=True))
register_spec("conv.avg_pool2d", ["conv.avg_pool2d"])(
    _build_pool(tconv.avg_pool2d, distinct=False))


@register_spec("conv.global_avg_pool2d", ["conv.global_avg_pool2d"])
def _build_gap(rng):
    shape = (int(rng.integers(1, 3)), int(rng.integers(1, 4)),
             int(rng.integers(1, 5)), int(rng.integers(1, 5)))
    return FuzzCase(tconv.global_avg_pool2d, [_t(rng, shape)])


# ----------------------------------------------------------------------
# repro.nn specs — layers fuzz gradients w.r.t. input AND parameters by
# passing the layer's own parameter tensors through check_gradients.
# ----------------------------------------------------------------------

def _layer_case(layer, x, note=""):
    params = [p for p in layer.parameters()]
    return FuzzCase(lambda xi, *ps: layer(xi), [x] + params, note=note)


@register_spec("nn.Linear", ["nn.Linear"])
def _build_nn_linear(rng):
    from ..nn import Linear
    n, fin, fout = (int(rng.integers(1, 5)) for _ in range(3))
    layer = Linear(fin, fout, bias=bool(rng.random() < 0.7),
                   rng=np.random.default_rng(int(rng.integers(0, 2**31))))
    return _layer_case(layer, _t(rng, (n, fin)), note=f"{fin}->{fout}")


@register_spec("nn.Conv2d", ["nn.Conv2d"])
def _build_nn_conv2d(rng):
    from ..nn import Conv2d
    kernel, stride, padding, size = _conv_geometry(rng)
    cin, cout = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    layer = Conv2d(cin, cout, kernel, stride=stride, padding=padding,
                   bias=bool(rng.random() < 0.7),
                   rng=np.random.default_rng(int(rng.integers(0, 2**31))))
    x = _t(rng, (int(rng.integers(1, 3)), cin, size, size))
    return _layer_case(layer, x, note=f"k={kernel} s={stride} p={padding}")


@register_spec("nn.BatchNorm2d", ["nn.BatchNorm2d"])
def _build_nn_batchnorm(rng):
    # Every round also checks a 1x1 spatial case and an eval-mode one with
    # frozen γ/β (the Taylor-scoring backward, which skips their sums).
    return [_batchnorm_case(rng, rng.random() < 0.5),
            _batchnorm_case(rng, rng.random() < 0.5, spatial=(1, 1)),
            _batchnorm_case(rng, False, frozen=True)]


def _batchnorm_case(rng, training, spatial=None, frozen=False):
    from ..nn import BatchNorm2d
    c = int(rng.integers(1, 4))
    layer = BatchNorm2d(c)
    if training:
        layer.train()
    else:
        layer.eval()
        # Non-trivial running statistics make the eval path meaningful.
        layer.running_mean += rng.normal(size=c).astype(np.float32)
        layer.running_var *= np.exp(rng.normal(scale=0.3, size=c)).astype(
            np.float32)
    layer.weight.data = rng.normal(size=c).astype(np.float32)
    layer.weight.requires_grad = layer.bias.requires_grad = not frozen
    shape = (int(rng.integers(2, 4)), c) + (spatial or tuple(
        int(s) for s in rng.integers(2, 4, size=2)))
    x = _t(rng, shape)
    layout = _layout(rng, x)
    # Train-mode outputs sum to β per channel whatever x is, so a plain
    # sum would leave the input gradient unchecked: weight the outputs.
    weights = Tensor(rng.uniform(-1.0, 1.0, size=shape).astype(np.float32))
    params = list(layer.parameters())
    return FuzzCase(lambda xi, *ps: ops.mul(layer(xi), weights), [x] + params,
                    note=f"{'train' if training else 'eval'}"
                         f"{' frozen' * frozen} {shape[2]}x{shape[3]} {layout}")


@register_spec("nn.ReLU", ["nn.ReLU"])
def _build_nn_relu(rng):
    from ..nn import ReLU
    return _layer_case(ReLU(), _t_away(rng, _shape(rng), 0.0, 0.05))


@register_spec("nn.MaxPool2d", ["nn.MaxPool2d"])
def _build_nn_maxpool(rng):
    from ..nn import MaxPool2d
    kernel = int(rng.integers(2, 4))
    size = kernel + int(rng.integers(0, 3))
    layer = MaxPool2d(kernel)
    x = _t_distinct(rng, (1, int(rng.integers(1, 3)), size, size))
    return _layer_case(layer, x, note=f"k={kernel} {_layout(rng, x)}")


@register_spec("nn.AvgPool2d", ["nn.AvgPool2d"])
def _build_nn_avgpool(rng):
    from ..nn import AvgPool2d
    kernel = int(rng.integers(2, 4))
    size = kernel + int(rng.integers(0, 3))
    layer = AvgPool2d(kernel)
    return _layer_case(layer, _t(rng, (1, int(rng.integers(1, 3)), size, size)))


@register_spec("nn.GlobalAvgPool2d", ["nn.GlobalAvgPool2d"])
def _build_nn_gap(rng):
    from ..nn import GlobalAvgPool2d
    shape = (1, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
             int(rng.integers(1, 4)))
    return _layer_case(GlobalAvgPool2d(), _t(rng, shape))


@register_spec("nn.Flatten", ["nn.Flatten"])
def _build_nn_flatten(rng):
    from ..nn import Flatten
    return _layer_case(Flatten(), _t(rng, _shape(rng, min_ndim=2, max_ndim=4)))


@register_spec("nn.Identity", ["nn.Identity"])
def _build_nn_identity(rng):
    from ..nn import Identity
    return _layer_case(Identity(), _t(rng, _shape(rng)))


@register_spec("nn.Dropout", ["nn.Dropout"])
def _build_nn_dropout(rng):
    from ..nn import Dropout
    p = float(rng.choice([0.0, 0.3, 0.5]))
    layer = Dropout(p)
    training = bool(rng.random() < 0.5)
    layer.train(training)
    seed = int(rng.integers(0, 2**31))

    def fn(x):
        # Re-seed so every finite-difference forward draws the same mask.
        layer.rng = np.random.default_rng(seed)
        return layer(x)

    return FuzzCase(fn, [_t(rng, _shape(rng))],
                    note=f"p={p} {'train' if training else 'eval'}")


@register_spec("nn.cross_entropy", ["nn.cross_entropy", "nn.CrossEntropyLoss"])
def _build_cross_entropy(rng):
    from ..nn import cross_entropy
    n, c = int(rng.integers(1, 5)), int(rng.integers(2, 5))
    targets = rng.integers(0, c, size=n)
    reduction = str(rng.choice(["mean", "sum", "none"]))
    return FuzzCase(lambda l: cross_entropy(l, targets, reduction=reduction),
                    [_t(rng, (n, c))], note=f"reduction={reduction}")


@register_spec("nn.MSELoss", ["nn.MSELoss"])
def _build_mse(rng):
    from ..nn import MSELoss
    shape = _shape(rng)
    reduction = str(rng.choice(["mean", "sum", "none"]))
    loss = MSELoss(reduction=reduction)
    target = rng.normal(size=shape).astype(np.float32)
    return FuzzCase(lambda p: loss(p, target), [_t(rng, shape)],
                    note=f"reduction={reduction}")


# ----------------------------------------------------------------------
# repro.core regularizer surface (L1 / L_orth including Toeplitz, Fig. 2)
# ----------------------------------------------------------------------

@register_spec("core.toeplitz_matrix_tensor", ["core.toeplitz_matrix_tensor"])
def _build_toeplitz(rng):
    from ..core.toeplitz import toeplitz_matrix_tensor
    o, c = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    kernel = int(rng.integers(1, 3))
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 2))
    input_size = kernel + int(rng.integers(0, 3))
    w = _t(rng, (o, c, kernel, kernel), -1.0, 1.0)
    return FuzzCase(
        lambda wi: toeplitz_matrix_tensor(wi, input_size, stride=stride,
                                          padding=padding),
        [w], note=f"k={kernel} s={stride} p={padding} in={input_size}")


def _tiny_conv_model(rng):
    from ..nn import Conv2d, Linear, Sequential
    layer_rng = np.random.default_rng(int(rng.integers(0, 2**31)))
    return Sequential(
        Conv2d(1, 2, 2, padding=1, rng=layer_rng),
        Conv2d(2, 2, 3, stride=2, padding=1, rng=layer_rng),
        Linear(4, 3, rng=layer_rng),
    )


def _regularized_weights(model, linear: bool):
    """The weight tensors a regularizer actually differentiates.

    Biases are excluded by design (Eq. 2 penalises weight matrices only),
    so they must not be handed to ``check_gradients`` — it would rightly
    complain about their missing gradients.
    """
    from ..nn import Conv2d, Linear
    kinds = (Conv2d, Linear) if linear else (Conv2d,)
    return [m.weight for m in model.modules() if isinstance(m, kinds)]


@register_spec("core.l1_regularizer", ["core.l1_regularizer"])
def _build_l1_reg(rng):
    from ..core.regularizers import l1_regularizer
    model = _tiny_conv_model(rng)
    weights = _regularized_weights(model, linear=True)
    for w in weights:
        # |w| is kinked at 0; keep weights clear of the origin.
        data = w.data
        data = np.where(np.abs(data) < 0.05,
                        0.05 * np.sign(data + 1e-9), data)
        w.data = data.astype(np.float32)
    return FuzzCase(lambda *ws: l1_regularizer(model), weights)


@register_spec("core.orthogonality_term", ["core.orthogonality_term"])
def _build_orth(rng):
    from ..core.regularizers import orthogonality_term
    model = _tiny_conv_model(rng)
    mode = str(rng.choice(["kernel", "conv", "toeplitz"]))
    weights = _regularized_weights(model, linear=(mode == "kernel"))
    if mode == "toeplitz":
        sizes = {"0": 3, "1": 4}
        return FuzzCase(
            lambda *ws: orthogonality_term(model, mode=mode,
                                           input_sizes=sizes),
            weights, note=mode)
    return FuzzCase(lambda *ws: orthogonality_term(model, mode=mode), weights,
                    note=mode)


# ----------------------------------------------------------------------
# Coverage accounting
# ----------------------------------------------------------------------

# Public names that are deliberately outside the fuzzer's contract: factory
# and introspection helpers, non-differentiable utilities, and the grad
# checker itself.
NON_DIFFERENTIABLE: dict[str, set[str]] = {
    "conv": {"im2col", "col2im", "conv_output_size"},
    "nn": {"Module", "Sequential", "HookHandle", "init", "accuracy"},
}


def required_coverage() -> set[str]:
    """Fully-qualified public differentiable names the registry must cover.

    Derived from the live ``__all__`` lists so a newly exported op
    immediately becomes a coverage requirement.
    """
    from .. import nn as rnn
    required: set[str] = set()
    required |= {f"ops.{n}" for n in ops.__all__}
    required |= {f"conv.{n}" for n in tconv.__all__
                 if n not in NON_DIFFERENTIABLE["conv"]}
    required |= {f"nn.{n}" for n in rnn.__all__
                 if n not in NON_DIFFERENTIABLE["nn"]}
    required |= {"core.toeplitz_matrix_tensor", "core.l1_regularizer",
                 "core.orthogonality_term"}
    return required


def covered_names() -> set[str]:
    """Union of every spec's ``covers`` declaration."""
    out: set[str] = set()
    for spec in OP_SPECS.values():
        out |= set(spec.covers)
    return out


def coverage_gaps() -> set[str]:
    """Required names no fuzz spec certifies (must be empty)."""
    return required_coverage() - covered_names()


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

QUICK_SPECS: tuple[str, ...] = (
    # The ≤5 s tier-1 subset: the ops the paper's pipeline leans on
    # hardest (Taylor scores flow through conv/BN/CE; surgery through
    # matmul/getitem) plus one representative per backward-code family.
    "ops.add", "ops.mul", "ops.matmul", "ops.sum", "ops.max",
    "ops.log_softmax", "ops.getitem", "ops.pad2d",
    "conv.conv2d", "conv.max_pool2d",
    "nn.Linear", "nn.BatchNorm2d", "nn.cross_entropy",
    "core.toeplitz_matrix_tensor",
)


def _spec_seed(base_seed: int, name: str) -> int:
    """Stable per-spec stream: independent of registry iteration order."""
    return (base_seed * 0x9E3779B1 + zlib.crc32(name.encode())) % (2**32)


def run_spec(spec: OpSpec, seed: int = 0, rounds: int = 2) -> FuzzResult:
    """Fuzz one spec for ``rounds`` independently drawn cases."""
    rng = np.random.default_rng(_spec_seed(seed, spec.name))
    result = FuzzResult(spec=spec.name, cases=0)
    start = time.perf_counter()
    for round_index in range(rounds):
        built = spec.build(rng)
        cases = built if isinstance(built, list) else [built]
        for case in cases:
            result.cases += 1
            try:
                check_gradients(case.fn, case.inputs, atol=spec.atol,
                                rtol=spec.rtol, eps=spec.eps)
            except AssertionError as exc:
                detail = str(exc).splitlines()
                head = next((ln for ln in detail if ln.strip()), "mismatch")
                result.failures.append(
                    f"round {round_index} [{case.note}]: {head.strip()}")
            except Exception as exc:  # crash in forward/backward
                result.failures.append(
                    f"round {round_index} [{case.note}]: "
                    f"{type(exc).__name__}: {exc}")
    result.seconds = time.perf_counter() - start
    return result


def run_fuzzer(seed: int = 0, rounds: int = 2, quick: bool = False,
               select: str | None = None) -> list[FuzzResult]:
    """Fuzz the registry (or a subset) and return per-spec results.

    Parameters
    ----------
    quick:
        Restrict to :data:`QUICK_SPECS` with a single round each.
    select:
        Substring filter on spec names (applied after ``quick``).
    """
    names = list(QUICK_SPECS) if quick else sorted(OP_SPECS)
    if select:
        names = [n for n in names if select in n]
    if quick:
        rounds = min(rounds, 1)
    return [run_spec(OP_SPECS[n], seed=seed, rounds=rounds) for n in names]

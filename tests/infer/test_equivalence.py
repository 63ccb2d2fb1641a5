"""Compiled ≡ eager on every registry model, dense and pruned.

This is the acceptance bar for the compiled engine: same logits as the
define-by-run stack (to float32 tolerance) for every architecture in
``MODEL_REGISTRY``, both at full width and after channel surgery, with
perturbed BatchNorm statistics so folding errors cannot hide.
"""

import numpy as np
import pytest

from repro.core.surgery import group_sizes, prune_groups
from repro.infer import compile_model
from repro.models import MODEL_REGISTRY, build_model
from repro.tensor import Tensor, no_grad
from repro.verify import invariants
from repro.verify.invariants import (INFER_CASES,
                                     check_compiled_inference_equivalence,
                                     perturb_batchnorm_stats)

RTOL, ATOL = 1e-4, 1e-5


def _build(name, pruned, seed=0):
    model = build_model(name, **INFER_CASES[name])
    perturb_batchnorm_stats(model, seed=seed)
    if pruned:
        rng = np.random.default_rng(seed + 5)
        groups = model.prunable_groups()
        victims = invariants._random_victims(model, groups, rng)
        sizes = group_sizes(model, groups)
        keep = {g: np.setdiff1d(np.arange(sizes[g]), idx)
                for g, idx in victims.items()}
        prune_groups(model, groups, keep)
    model.eval()
    return model


def _batch(seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(6, 3, 8, 8)).astype(np.float32)


class TestCompiledVsEager:
    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    @pytest.mark.parametrize("variant", ["dense", "pruned"])
    def test_registry_model_matches(self, name, variant):
        model = _build(name, pruned=variant == "pruned")
        x = _batch()
        with no_grad():
            eager = model(Tensor(x)).data
        engine = compile_model(model, x, validate=False)
        np.testing.assert_allclose(engine.run(x), eager, rtol=RTOL, atol=ATOL)

    def test_infer_cases_cover_whole_registry(self):
        assert set(INFER_CASES) == set(MODEL_REGISTRY)

    def test_verify_invariant_passes(self):
        result = check_compiled_inference_equivalence(seed=0, quick=True)
        assert result.passed, result.failures
        assert "6 model/variant cases" in result.detail

    def test_verify_invariant_is_in_the_battery(self):
        names = [r.name for r in invariants.run_invariants(seed=0, quick=True)]
        assert "compiled_inference_equivalence" in names

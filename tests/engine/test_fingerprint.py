"""Cache-key determinism and sensitivity of the engine fingerprints.

The contract under test (ISSUE acceptance): the same inputs always
produce the same key, and perturbing anything that could change a run's
outcome — the app's kernel specs, the policy variant, the DVFS tables,
the adaptive-horizon alpha, the predictor — produces a different key.
"""

import collections.abc
import dataclasses
import importlib
import pkgutil
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workloads
from repro.engine import (
    ExperimentEngine,
    RunRequest,
    canonical_requests,
    produced_keys,
    variants,
)
from repro.engine.fingerprint import Described, canonical_json, describe, fingerprint
from repro.obs import make_instrumentation
from repro.workloads.kernel import KernelSpec

from .conftest import small_context

pytestmark = pytest.mark.engine

# Finite doubles round-trip exactly through the canonical JSON.
finite_floats = st.floats(allow_nan=False, allow_infinity=False)

json_scalars = st.none() | st.booleans() | st.integers() | finite_floats | st.text()

json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16,
)


class TestDescribe:
    @given(json_values)
    @settings(max_examples=100, deadline=None)
    def test_fingerprint_is_deterministic(self, value):
        assert fingerprint(value) == fingerprint(value)

    def test_equal_arrays_same_identity_free_description(self):
        a = np.arange(12.0).reshape(3, 4)
        b = np.arange(12.0).reshape(3, 4)
        assert describe(a) == describe(b)
        assert fingerprint(a) == fingerprint(b)

    def test_array_content_matters(self):
        a = np.arange(12.0)
        b = np.arange(12.0)
        b[5] += 1e-12
        assert fingerprint(a) != fingerprint(b)

    def test_array_shape_matters(self):
        a = np.arange(12.0).reshape(3, 4)
        assert fingerprint(a) != fingerprint(a.reshape(4, 3))

    def test_dict_order_is_canonical(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_containers_and_their_subclasses_describe_alike(self):
        # Every cache key depends on these forms.
        pair = collections.namedtuple("Pair", "a b")
        assert describe([1, (2.0,)]) == ["seq", [1, ["seq", [2.0]]]]
        assert describe(pair(1, 2)) == describe([1, 2])
        assert describe({"b": 1, "a": [2]}) == ["dict", [("a", ["seq", [2]]), ("b", 1)]]
        assert describe(collections.OrderedDict(b=1, a=[2])) == describe({"a": [2], "b": 1})

    def test_negative_zero_is_normalized(self):
        assert fingerprint(-0.0) == fingerprint(0.0)

    @given(json_values)
    @settings(max_examples=100, deadline=None)
    def test_described_value_is_kept_as_it_is(self, value):
        described = describe(value)
        assert describe(Described(described)) is described
        assert fingerprint({"base": Described(described), "run": [1]}) == (
            fingerprint({"base": value, "run": [1]})
        )

    def test_dataclass_fields_described(self):
        @dataclasses.dataclass
        class Point:
            x: float
            y: float

        assert fingerprint(Point(1.0, 2.0)) == fingerprint(Point(1.0, 2.0))
        assert fingerprint(Point(1.0, 2.0)) != fingerprint(Point(1.0, 3.0))

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            describe(object())

    def test_random_generator_described_by_state(self):
        # Fitted trees keep their generator, so a supplied Random Forest
        # predictor is only describable through it.
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        assert fingerprint(a) == fingerprint(b)
        b.random()
        assert fingerprint(a) != fingerprint(b)
        assert fingerprint(a) != fingerprint(np.random.default_rng(8))


class TestRunKeys:
    """Key sensitivity over real contexts (no simulation executed)."""

    @pytest.fixture
    def pair(self, cache_dir, engine):
        ctx = small_context(cache_dir, engine)
        return engine, ctx

    def key(self, engine, ctx, request, run_key=None):
        run_key = run_key if run_key is not None else (request.benchmark, request.variant)
        return engine.key_for(ctx, request, run_key)

    def test_same_inputs_same_key(self, cache_dir, tmp_path):
        eng_a = ExperimentEngine(jobs=1, cache_dir=str(cache_dir))
        eng_b = ExperimentEngine(jobs=4, cache_dir=str(tmp_path / "other"))
        ctx_a = small_context(cache_dir, eng_a)
        ctx_b = small_context(cache_dir, eng_b)
        request = RunRequest("NBody", "turbo")
        assert self.key(eng_a, ctx_a, request) == self.key(eng_b, ctx_b, request)

    def test_benchmark_changes_key(self, pair):
        engine, ctx = pair
        assert self.key(engine, ctx, RunRequest("NBody", "turbo")) != self.key(
            engine, ctx, RunRequest("kmeans", "turbo")
        )

    def test_variant_changes_key(self, pair):
        engine, ctx = pair
        a = engine.key_for(ctx, RunRequest("NBody", "mpc_ideal"), ("NBody", "mpc_ideal"))
        b = engine.key_for(ctx, RunRequest("NBody", "to"), ("NBody", "mpc_ideal"))
        assert a != b

    def test_run_key_changes_key(self, pair):
        engine, ctx = pair
        request = RunRequest("NBody", "mpc_pair", (("alpha", 0.05),))
        a = engine.key_for(ctx, request, ("NBody", "mpc"))
        b = engine.key_for(ctx, request, ("NBody", "mpc_first"))
        assert a != b

    def test_alpha_changes_key(self, pair):
        engine, ctx = pair
        a = engine.key_for(
            ctx, RunRequest("NBody", "mpc_pair", (("alpha", 0.05),)), ("NBody", "mpc")
        )
        b = engine.key_for(
            ctx, RunRequest("NBody", "mpc_pair", (("alpha", 0.10),)), ("NBody", "mpc")
        )
        assert a != b

    def test_dvfs_table_changes_key(self, pair, monkeypatch):
        from repro.hardware import dvfs

        engine, ctx = pair
        request = RunRequest("NBody", "turbo")
        before = self.key(engine, ctx, request)
        perturbed = dict(dvfs.CPU_PSTATES)
        name, state = next(iter(perturbed.items()))
        perturbed[name] = dataclasses.replace(state, voltage=state.voltage + 0.01)
        monkeypatch.setattr(dvfs, "CPU_PSTATES", perturbed)
        assert self.key(engine, ctx, request) != before

    def test_app_spec_changes_key(self, pair):
        engine, ctx = pair
        request = RunRequest("NBody", "turbo")
        before = self.key(engine, ctx, request)
        app = ctx.app("NBody")
        target = app.kernels[0].key
        ctx._apps["NBody"] = dataclasses.replace(
            app,
            kernels=tuple(
                dataclasses.replace(k, compute_work=k.compute_work * 1.0001)
                if k.key == target else k
                for k in app.kernels
            ),
        )
        assert self.key(engine, ctx, request) != before

    def test_predictor_changes_key_when_needed(self, pair, cache_dir):
        engine, ctx = pair
        # turbo ignores the predictor; ppk depends on it.
        other = small_context(cache_dir, engine, names=("NBody",))
        turbo = RunRequest("NBody", "turbo")
        ppk = RunRequest("NBody", "ppk")
        assert self.key(engine, ctx, turbo) == self.key(engine, other, turbo)
        assert self.key(engine, ctx, ppk) != self.key(engine, other, ppk)

    def test_every_canonical_key_matches_the_one_describe_formula(self, pair):
        # A run key is the fingerprint of {"base": <described payload>,
        # "run": [...]} with the base payload described once, and the
        # key parts a prefetch shares across requests describe to the
        # same base payload.
        engine, ctx = pair
        shared = {}
        checked = 0
        for request in canonical_requests(ctx):
            base = engine._base_payload(ctx, request)
            assert engine._base_payload(ctx, request, shared) == base
            for run_key in produced_keys(request):
                assert engine.key_for(ctx, request, run_key) == fingerprint(
                    {"base": Described(base), "run": list(run_key)}
                )
                checked += 1
        assert checked > len(canonical_requests(ctx))

    def test_default_rf_fingerprint_needs_no_training(self, cache_dir, engine):
        from repro.experiments.common import ExperimentContext

        ctx = ExperimentContext(
            benchmark_names=["NBody"], cache_dir=str(cache_dir), engine=engine
        )
        engine.key_for(ctx, RunRequest("NBody", "ppk"), ("NBody", "ppk"))
        assert ctx._predictor is None  # fingerprinting did not train


# ----- instrumentation leaves key material alone --------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_instrumented_prefetch_leaves_key_material_unchanged(cache_dir, jobs):
    """Observation never lands on the objects a cache key describes.

    ``describe()`` walks ``__dict__``, so an obs handle stored on the
    simulator, or a memo stored on the predictor, would change every key
    computed after the first instrumented run.
    """
    obs = make_instrumentation(health=True)
    engine = ExperimentEngine(jobs=jobs, cache_dir=str(cache_dir), obs=obs)
    ctx = small_context(cache_dir, engine)
    requests = canonical_requests(ctx)

    def keys():
        return [
            engine.key_for(ctx, request, run_key)
            for request in requests
            for run_key in produced_keys(request)
        ]

    sim_before = canonical_json(describe(ctx.sim))
    keys_before = keys()
    engine.prefetch(ctx, requests)
    assert engine.stats.computed > 0 and obs.tracer.spans
    assert canonical_json(describe(ctx.sim)) == sim_before
    assert keys() == keys_before


# ----- describable inputs -------------------------------------------------------

#: Types describe() cannot reduce to a distinct canonical form.  Every
#: plain function describes to the same opaque node, so two different
#: callables would share a cache key.
_UNDESCRIBABLE_TYPES = (collections.abc.Callable, typing.IO, typing.TextIO, typing.BinaryIO)

#: Modules of locks, threads, files, sockets, queues, processes and
#: executors, which describe() rejects only at run time.  The C twins
#: are listed because, e.g., ``threading.Lock`` lives in ``_thread``.
_UNDESCRIBABLE_MODULES = (
    "threading", "_thread", "io", "_io", "socket", "queue", "_queue",
    "multiprocessing", "concurrent.futures",
)


def _fingerprinted_dataclasses():
    """Every dataclass in the engine's variant and workload modules.

    ``VariantSpec`` is registry metadata holding the compute callables
    themselves; its instances never reach a cache key.
    """
    modules = [variants, repro.workloads] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(
            repro.workloads.__path__, "repro.workloads."
        )
    ]
    return [
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type)
        and dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__
        and obj is not variants.VariantSpec
    ]


def _type_nodes(hint):
    """``hint`` and every type nested inside it, via ``typing.get_args``."""
    pending = [hint]
    while pending:
        node = pending.pop()
        if isinstance(node, list):  # Callable's parameter list
            pending.extend(node)
            continue
        yield node
        pending.extend(typing.get_args(node))


def _undescribable(node):
    origin = typing.get_origin(node) or node
    if origin in _UNDESCRIBABLE_TYPES:
        return True
    module = getattr(origin, "__module__", None) or ""
    return any(
        module == name or module.startswith(name + ".")
        for name in _UNDESCRIBABLE_MODULES
    )


def test_fingerprinted_fields_are_describable():
    """No field of a cache-key dataclass has an undescribable type."""
    classes = _fingerprinted_dataclasses()
    assert RunRequest in classes and KernelSpec in classes
    problems = []
    for cls in classes:
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            bad = [n for n in _type_nodes(hints[field.name]) if _undescribable(n)]
            if bad:
                problems.append(f"{cls.__qualname__}.{field.name}: {bad}")
    assert problems == []

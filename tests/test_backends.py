"""The LP backend registry and the exact/float-fallback equivalence suite.

The maximal acceptable support of ``Ψ_S`` is unique (solutions of the
homogeneous system are closed under addition), so every sound backend must
compute the *same* support set — backends may only differ in witness values
and wall-clock.  The differential tests here pin ``"exact-sparse"`` and
``"float-fallback"`` (answering through scipy's HiGHS, an independent
solver) to identical verdicts on seeded random schemas and on
hypothesis-generated rich schemas, and the capability tests pin the
registry API (described entries, aliases, capability contracts).
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.errors import LinearSystemError
from repro.engine import EngineConfig
from repro.expansion.expansion import build_expansion
from repro.linear.backends import (
    AutoBackend,
    BackendCapabilities,
    BackendDescription,
    FloatFallbackBackend,
    LpBackend,
    RoundSolution,
    SparseExactBackend,
    available_backends,
    backend_capabilities,
    bump_metric,
    describe_backend,
    get_backend,
    register_backend,
)
from repro.linear.support import acceptable_support
from repro.linear.system import build_system
from repro.reasoner.satisfiability import Reasoner
from repro.workloads.generators import (
    clustered_schema,
    hierarchy_schema,
    random_schema,
)

from .strategies import rich_schemas


class TestRegistry:
    def test_builtin_backends_registered(self):
        entries = available_backends()
        assert all(isinstance(entry, BackendDescription) for entry in entries)
        names = {entry.name for entry in entries}
        assert names == {"exact-sparse", "float-fallback", "auto"}

    def test_described_entries_fold_aliases(self):
        from repro.linear import backends

        sparse = get_backend("exact-sparse")
        register_backend(sparse, "test-alias")
        try:
            assert get_backend("test-alias") is sparse
            by_name = {entry.name: entry for entry in available_backends()}
            assert "test-alias" not in by_name
            assert by_name["exact-sparse"].aliases == ("test-alias",)
        finally:
            backends._REGISTRY.pop("test-alias", None)

    def test_unknown_name_raises(self):
        with pytest.raises(LinearSystemError, match="unknown LP backend"):
            get_backend("bogus")

    def test_instances_satisfy_the_protocol(self):
        for name in ("exact-sparse", "float-fallback", "auto"):
            assert isinstance(get_backend(name), LpBackend)

    def test_backend_instance_passes_through(self):
        backend = SparseExactBackend()
        assert get_backend(backend) is backend

    def test_non_backend_object_rejected(self):
        with pytest.raises(LinearSystemError, match="LpBackend protocol"):
            get_backend(object())

    def test_custom_backend_registration(self):
        class Tracing:
            name = "test-tracing"

            def __init__(self):
                self.calls = 0
                self._inner = SparseExactBackend()

            def solve(self, system, positive_indices, *, merge_columns=True):
                self.calls += 1
                return self._inner.solve(system, positive_indices,
                                         merge_columns=merge_columns)

        tracing = register_backend(Tracing())
        try:
            schema = random_schema(5, seed=3)
            result = acceptable_support(build_expansion(schema),
                                        backend="test-tracing")
            assert tracing.calls >= 1
            reference = acceptable_support(build_expansion(schema),
                                           backend="exact-sparse")
            assert result.support == reference.support
        finally:
            from repro.linear import backends

            backends._REGISTRY.pop("test-tracing", None)


class TestCapabilityContract:
    def test_builtin_capabilities(self):
        assert get_backend("exact-sparse").capabilities() == \
            BackendCapabilities(arithmetic="exact-rational", sparse=True,
                                degeneracy="bland-anticycling")
        assert get_backend("auto").capabilities().arithmetic == "hybrid"
        assert (get_backend("float-fallback").capabilities().degeneracy
                == "ambiguity-band-exact-fallback")

    def test_describe_matches_capabilities(self):
        for name in ("exact-sparse", "float-fallback", "auto"):
            backend = get_backend(name)
            description = backend.describe()
            assert description.name == name
            assert description.capabilities == backend.capabilities()
            assert description.summary

    def test_foreign_backend_gets_conservative_defaults(self):
        class Bare:
            name = "bare"

            def solve(self, system, positive_indices, *, merge_columns=True):
                raise NotImplementedError

        capabilities = backend_capabilities(Bare())
        assert not capabilities.sparse
        description = describe_backend(Bare())
        assert description.name == "bare"

    def test_description_round_trips_to_dict(self):
        entry = get_backend("auto").describe()
        as_dict = entry.as_dict()
        assert as_dict["name"] == "auto"
        assert as_dict["capabilities"] == {
            "arithmetic": "hybrid", "sparse": True,
            "degeneracy": "ambiguity-band-exact-fallback"}


class TestParameterizedSpecs:
    """Backends are selected by name only: a ``name:key=value`` string is
    just an unknown name."""

    def test_unknown_name_with_params_rejected(self):
        for spec in ("bogus:limit=5", "auto:limit=5"):
            with pytest.raises(LinearSystemError, match="unknown LP backend"):
                get_backend(spec)


class TestMetricSchema:
    def test_bump_metric_rejects_undocumented_keys(self):
        with pytest.raises(LinearSystemError, match="unknown solver metric"):
            bump_metric({}, "lp.made_up")

    def test_bump_metric_accumulates(self):
        metrics = {}
        bump_metric(metrics, "lp.pivots", 3)
        bump_metric(metrics, "lp.pivots", 2)
        assert metrics == {"lp.pivots": 5}

    def test_solver_metrics_stay_on_schema(self):
        from repro.linear.backends import METRIC_KEYS

        system = build_system(build_expansion(random_schema(5, seed=4)))
        for name in ("exact-sparse", "float-fallback", "auto"):
            solution = get_backend(name).solve(
                system, list(range(system.n_unknowns())))
            assert set(solution.metrics) <= METRIC_KEYS


class TestRoundSolutions:
    def test_exact_solution_is_rational_and_acceptable(self):
        system = build_system(build_expansion(random_schema(5, seed=1)))
        solution = SparseExactBackend().solve(
            system, list(range(system.n_unknowns())))
        assert isinstance(solution, RoundSolution)
        assert all(isinstance(v, Fraction) for v in solution.values.values())
        assert solution.backend_used in ("exact-sparse", "propagation")

    def test_empty_candidates_need_no_lp(self):
        system = build_system(build_expansion(random_schema(4, seed=2)))
        for name in ("exact-sparse", "float-fallback", "auto"):
            solution = get_backend(name).solve(system, [])
            assert solution.supported == frozenset()
            assert solution.backend_used == "propagation"

    def test_degenerate_floats_fall_back(self):
        backend = FloatFallbackBackend()
        assert backend._degenerate([0.5, 5e-7])
        assert not backend._degenerate([0.5, 0.0, 1.0])
        assert not backend._degenerate([1e-12])  # snapped to zero, fine


class TestAutoRouting:
    """`auto` routes by LP column count, with the cutoff at the measured
    sparse/float crossover (`SPARSE_BACKEND_LIMIT`); tests force a route
    by patching the constant."""

    def test_default_limit_is_the_measured_crossover(self):
        from repro.linear.backends import SPARSE_BACKEND_LIMIT

        assert SPARSE_BACKEND_LIMIT == 400
        assert str(SPARSE_BACKEND_LIMIT) in AutoBackend().describe().summary

    def test_routes_small_systems_to_the_sparse_core(self, monkeypatch):
        from repro.linear import backends

        monkeypatch.setattr(backends, "SPARSE_BACKEND_LIMIT", 10 ** 6)
        system = build_system(build_expansion(random_schema(5, seed=1)))
        solution = AutoBackend().solve(
            system, list(range(system.n_unknowns())))
        assert solution.backend_used == "exact-sparse"
        assert solution.metrics.get("lp.sparse_solves", 0) == 1

    def test_routes_large_systems_to_the_float_core(self, monkeypatch):
        from repro.linear import backends

        pytest.importorskip("scipy.optimize")
        monkeypatch.setattr(backends, "SPARSE_BACKEND_LIMIT", 1)
        system = build_system(build_expansion(random_schema(5, seed=1)))
        solution = AutoBackend().solve(
            system, list(range(system.n_unknowns())))
        assert solution.backend_used == "float"
        assert "lp.sparse_solves" not in solution.metrics

    def test_routing_preserves_verdicts(self, monkeypatch):
        from repro.linear import backends

        schema = random_schema(6, seed=3)
        expansion = build_expansion(schema)
        supports = set()
        for limit in (1, 10 ** 6):
            monkeypatch.setattr(backends, "SPARSE_BACKEND_LIMIT", limit)
            supports.add(acceptable_support(expansion, backend="auto").support)
        assert len(supports) == 1


class TestBackendEquivalence:
    """Every sound backend must agree on every schema — Theorem 3.3's
    verdicts cannot depend on the arithmetic core."""

    SEEDS = range(8)
    BACKENDS = ("exact-sparse", "float-fallback")

    def support_sets(self, schema):
        expansion = build_expansion(schema)
        return [acceptable_support(expansion, backend=name)
                for name in self.BACKENDS]

    def assert_agree(self, results):
        assert len({result.support for result in results}) == 1
        # The float-fallback answer came from HiGHS ("propagation": no LP
        # was left to solve), so the sparse core is compared with an
        # independent solver rather than with its own safety net.
        assert results[1].backend_used in ("float", "propagation")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_schemas(self, seed):
        self.assert_agree(self.support_sets(random_schema(6, seed=seed)))

    @pytest.mark.parametrize("seed", range(4))
    def test_clustered_schemas(self, seed):
        self.assert_agree(self.support_sets(clustered_schema(3, 3, seed=seed)))

    def test_hierarchy_schema(self):
        self.assert_agree(self.support_sets(hierarchy_schema(3, 2)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reasoner_verdicts_per_backend(self, seed):
        schema = random_schema(6, seed=seed)
        verdicts = {}
        for backend in ("exact-sparse", "float-fallback", "auto"):
            reasoner = Reasoner(
                schema, config=EngineConfig(lp_backend=backend))
            verdicts[backend] = tuple(reasoner.satisfiable_classes())
        assert len(set(verdicts.values())) == 1, verdicts

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(schema=rich_schemas())
    def test_rich_schemas_property(self, schema):
        self.assert_agree(self.support_sets(schema))

    @pytest.mark.parametrize("seed", range(4))
    def test_witnesses_verify_exactly(self, seed):
        """Every backend's witness must satisfy every disequation."""
        system = build_system(build_expansion(random_schema(6, seed=seed)))
        for backend in self.BACKENDS:
            result = acceptable_support(system, backend=backend)
            for constraint in system.constraints:
                total = sum(
                    (coeff * result.solution[var]
                     for var, coeff in constraint.coefficients),
                    Fraction(0))
                assert total <= 0


class TestStrategyBackendSweep:
    """Sparse exact vs float-fallback across enumeration strategies: the
    Phase-1 strategy decides *which* compound classes exist, the backend
    decides the arithmetic — verdicts must be invariant in both
    dimensions."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("strategy", ("naive", "strategic", "auto"))
    def test_random_verdicts_invariant(self, seed, strategy):
        schema = random_schema(5, seed=seed)
        verdicts = {}
        for backend in ("exact-sparse", "float-fallback"):
            reasoner = Reasoner(schema, config=EngineConfig(
                strategy=strategy, lp_backend=backend))
            verdicts[backend] = tuple(reasoner.satisfiable_classes())
        assert verdicts["exact-sparse"] == verdicts["float-fallback"]

    @pytest.mark.parametrize("strategy", ("naive", "strategic", "hierarchy",
                                          "auto"))
    def test_hierarchy_verdicts_invariant(self, strategy):
        schema = hierarchy_schema(2, 3, with_attributes=True, seed=3)
        verdicts = {}
        for backend in ("exact-sparse", "float-fallback", "auto"):
            reasoner = Reasoner(schema, config=EngineConfig(
                strategy=strategy, lp_backend=backend))
            verdicts[backend] = tuple(reasoner.satisfiable_classes())
        assert len(set(verdicts.values())) == 1, verdicts

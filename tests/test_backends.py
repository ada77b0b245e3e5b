"""The backend differential suite: compiled tiers are bit-identical.

The claim under test (see ``repro.backends``): a backend is an
*execution detail*.  For every dispatch kernel, every model and every
lattice shape — degenerate ones included — a compiled backend must
produce exactly the arrays the NumPy reference produces: same state
bytes, same counts, same return values, same ``record`` entries, and
at the engine level the same RNG draw accounting and checkpoint
digests.  Exact equality, not statistical agreement.

Layout
------
* registry semantics (resolution, fallback to numpy, ambient stack);
* the contract-driven fuzz generators (``repro.backends.fuzz``);
* kernel-level differential smoke (fast) and the full
  models x shapes x kernels matrix (marked ``slow``; the CI backend
  matrix job runs it explicitly);
* the bound chunk visit: ``cnative``'s one C call against the
  default bind, on uniforms that hit every rate-table edge;
* the C stencil: every anchor of lattices where the periodic wrap
  decides the touched sites (odd, non-square, pattern-sized, 5 x 2,
  1-d), through both C entries;
* seeded *mutant* twins the harness must catch — a differential
  harness that cannot fail is not evidence — and seeded mutants of the
  shipped C source, each run against the suite in its own subprocess
  (marked ``slow``), plus the prototype checks that kill the two C
  mutants no execution can see and a ``-Wall -Wextra -Werror`` build
  of the source;
* the ``cnative`` build cache (compiler identity, stale eviction);
* engine-level bit-identity including RNG draw parity
  (``CountingGenerator`` counters) across backends;
* checkpoint portability: a run checkpointed under one backend
  resumes under another (the backend never enters the fingerprint);
* the ``slow`` >= 3x speedup gate on the sequential hot kernel at
  256 x 256.
"""

import ctypes
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.backends import (
    DISPATCH_KERNELS,
    Backend,
    BackendFallbackWarning,
    KernelSet,
    available_backends,
    backend_names,
    current_backend,
    get_backend,
    register_backend,
    resolve_backend,
    use_backend,
)
from repro.backends import cnative
from repro.backends.fuzz import (
    argument_grid,
    compare_backends,
    conflict_free_sites,
    fuzz_case,
    fuzz_cases,
)
from repro.core import Lattice, Model, ReactionType
from repro.models import ziff_model

#: the dispatch kernels with a compiled twin; ``execute_type_everywhere``
#: has none (its whole-array NumPy scatter is the faster tier)
TRIAL_KERNELS = (
    "run_trials_sequential",
    "run_trials_batch",
    "run_trials_batch_with_duplicates",
)

#: every registered non-reference backend that can run on this host
COMPILED = [n for n in available_backends() if n != "numpy"]

requires_compiled = pytest.mark.skipif(
    not COMPILED, reason="no compiled backend available on this host"
)


def _adsorption_1d() -> Model:
    return Model(
        ["*", "A"],
        [ReactionType("ads", [((0,), "*", "A")], 2.0)],
        name="adsorption-1d",
    )


def _model_matrix():
    """(model, lattice-shapes) pairs spanning >= 4 models and degenerate shapes."""
    from repro.models import diffusion_model_2d, ising_model_2d

    return [
        (ziff_model(k_co=1.0, k_o2=0.5, k_co2=2.0), [(10, 10), (2, 8), (16, 2), (3, 5)]),
        (diffusion_model_2d(k_hop=1.0), [(10, 10), (2, 8), (3, 5)]),
        # ising patterns span 3 cells per axis: sides must be >= 3
        (ising_model_2d(beta=0.7), [(6, 6), (16, 3)]),
        (_adsorption_1d(), [(17,), (2,)]),
    ]


# ----------------------------------------------------------------------
# registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_numpy_always_registered_and_available(self):
        assert "numpy" in backend_names()
        assert "numpy" in available_backends()

    def test_all_tiers_registered_even_when_unavailable(self):
        # cnative registers unconditionally; availability is a host fact
        assert {"numpy", "cnative"} <= set(backend_names())

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("no-such-backend")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("no-such-backend")

    def test_auto_resolves_highest_available_tier(self):
        be = resolve_backend("auto")
        avail = available_backends()  # already sorted by tier, best first
        assert be.name == avail[0]

    def test_unavailable_backend_falls_back_with_warning(self):
        class Ghost(Backend):
            name = "ghost-tier"
            tier = 99

            def available(self):
                return False

        register_backend(Ghost())
        try:
            with pytest.warns(BackendFallbackWarning, match="ghost-tier"):
                be = resolve_backend("ghost-tier")
            assert be.name == "numpy"
            # workers re-resolving the master's pick must stay silent
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert resolve_backend("ghost-tier", warn=False).name == "numpy"
        finally:
            from repro.backends import registry

            registry._REGISTRY.pop("ghost-tier", None)

    def test_ambient_stack_nests_and_restores(self):
        default = current_backend()
        assert default is resolve_backend(None) is resolve_backend("auto")
        with use_backend("numpy") as outer:
            assert current_backend() is outer
            be = resolve_backend(None)
            assert be is outer
            if COMPILED:
                with use_backend(COMPILED[0]) as inner:
                    assert current_backend() is inner
                assert current_backend() is outer
        assert current_backend() is default

    @requires_compiled
    def test_fresh_interpreter_defaults_to_cnative(self):
        proc = _fresh_python(
            "from repro.backends import current_backend\n"
            "print(current_backend().name)",
            dict(os.environ),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "cnative\n"
        assert proc.stderr == ""

    def test_hidden_compiler_gives_numpy_and_one_notice(self, tmp_path):
        """No compiler on PATH and an empty artifact cache: three
        engines run on numpy, the process says so once on stderr, and
        an explicit cnative request still warns."""
        cache = tmp_path / "empty-cache"
        cache.mkdir()
        env = {k: v for k, v in os.environ.items() if k != "CC"}
        env.update(PATH="", REPRO_CNATIVE_CACHE=str(cache))
        proc = _fresh_python(
            "import warnings\n"
            "from repro.backends import BackendFallbackWarning, resolve_backend\n"
            "from repro.ca import NDCA, PNDCA\n"
            "from repro.core import Lattice\n"
            "from repro.dmc import RSM\n"
            "from repro.models import zgb_model\n"
            "from repro.partition import five_chunk_partition\n"
            "m, lat = zgb_model(0.5), Lattice((10, 10))\n"
            "engines = [RSM(m, lat, seed=1), NDCA(m, lat, seed=1),\n"
            "           PNDCA(m, lat, seed=1, partition=five_chunk_partition(lat))]\n"
            "assert [e.backend.name for e in engines] == ['numpy'] * 3\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    assert resolve_backend('cnative').name == 'numpy'\n"
            "assert [w.category for w in caught] == [BackendFallbackWarning]\n",
            env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("repro: backend notice: cnative unavailable")

    def test_kernel_set_rejects_unknown_overrides(self):
        with pytest.raises(ValueError, match="unknown kernels"):
            KernelSet("bogus", {"not_a_kernel": lambda: None})

    def test_partial_backend_falls_back_to_reference(self):
        from repro.core import kernels as ref

        ks = KernelSet("partial", {})
        for name in DISPATCH_KERNELS:
            assert getattr(ks, name) is getattr(ref, name)

    def test_backend_instance_passes_through(self):
        be = get_backend("numpy")
        assert resolve_backend(be) is be


def _fresh_python(code: str, env: dict) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter with ``src`` on the path."""
    src = str(Path(cnative.__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=300,
    )


# ----------------------------------------------------------------------
# the contract-driven generators
# ----------------------------------------------------------------------
class TestArgumentGrid:
    def test_dtypes_resolve_from_contract(self):
        from repro.core.kernels import run_trials_sequential

        grid = argument_grid(run_trials_sequential)
        assert grid["state"].dtype == np.dtype(np.uint8)
        assert grid["counts"].dtype == np.dtype(np.int64)
        assert grid["sites"].dtype is None  # no declared dtype

    def test_fuzz_rejects_non_dispatch_kernels(self, ziff, small_lattice, rng):
        comp = ziff.compile(small_lattice)
        with pytest.raises(ValueError, match="not a dispatch kernel"):
            fuzz_case(comp, "seq_tables", rng)


class TestConflictFreeSites:
    @pytest.mark.parametrize("shape", [(10, 10), (2, 8), (3, 5)])
    def test_footprints_pairwise_disjoint(self, ziff, rng, shape):
        comp = ziff.compile(Lattice(shape))
        sites = conflict_free_sites(comp, rng)
        assert sites.size > 0
        seen: set[int] = set()
        for s in sites.tolist():
            cells = {int(m[s]) for ct in comp.types for m in ct.maps}
            assert not (cells & seen)
            seen |= cells

    def test_max_n_caps_the_sample(self, ziff, small_lattice, rng):
        comp = ziff.compile(small_lattice)
        assert conflict_free_sites(comp, rng, max_n=3).size <= 3


# ----------------------------------------------------------------------
# kernel-level differential: smoke (fast) + full matrix (slow)
# ----------------------------------------------------------------------
@requires_compiled
class TestDifferentialSmoke:
    """One fuzzed case per kernel per compiled backend — the fast gate."""

    @pytest.mark.parametrize("kernel_name", DISPATCH_KERNELS)
    def test_bit_identity_on_ziff(self, ziff, small_lattice, kernel_name):
        comp = ziff.compile(small_lattice)
        rng = np.random.default_rng(7)
        for case_no, kwargs in enumerate(
            fuzz_cases(comp, kernel_name, rng, 3, with_record=(
                kernel_name == "run_trials_sequential"
            ))
        ):
            mismatches = compare_backends(
                kernel_name,
                kwargs,
                ("numpy", *COMPILED),
                label=f"ziff 10x10 case {case_no}",
            )
            assert mismatches == []

    @pytest.mark.parametrize("kernel_name", DISPATCH_KERNELS)
    def test_empty_streams(self, ziff, small_lattice, kernel_name):
        comp = ziff.compile(small_lattice)
        rng = np.random.default_rng(0)
        kwargs = fuzz_case(comp, kernel_name, rng)
        for key in ("sites", "types"):
            if key in kwargs:
                kwargs[key] = np.asarray(kwargs[key])[:0]
        mismatches = compare_backends(
            kernel_name, kwargs, ("numpy", *COMPILED), label="empty"
        )
        assert mismatches == []

    def test_record_parity(self, ziff, small_lattice):
        """The (site, type, anchor) execution log matches entry-for-entry."""
        comp = ziff.compile(small_lattice)
        rng = np.random.default_rng(11)
        kwargs = fuzz_case(
            comp, "run_trials_sequential", rng, with_record=True
        )
        mismatches = compare_backends(
            "run_trials_sequential", kwargs, ("numpy", *COMPILED), label="record"
        )
        assert mismatches == []

    def test_invalid_dtype_degrades_to_reference(self, ziff, small_lattice):
        """A case the compiled kernel cannot take still runs — identically."""
        comp = ziff.compile(small_lattice)
        rng = np.random.default_rng(3)
        kwargs = fuzz_case(comp, "run_trials_sequential", rng)
        kwargs["counts"] = kwargs["counts"].astype(np.int32)  # not the ABI dtype
        mismatches = compare_backends(
            "run_trials_sequential", kwargs, ("numpy", *COMPILED), label="int32-counts"
        )
        assert mismatches == []


def _many_types_1d(k: int) -> Model:
    """``k`` single-site adsorptions of distinct species at distinct
    rates: more than 16 types takes ``types_from_uniforms``'s
    ``searchsorted`` branch, and the state records which type ran."""
    species = ["*", *(f"S{i}" for i in range(k))]
    types = [
        ReactionType(f"ads{i}", [((0,), "*", f"S{i}")], 1.0 + i)
        for i in range(k)
    ]
    return Model(species, types, name=f"adsorption-{k}")


def _edge_uniforms(cum: np.ndarray, rng, n: int) -> np.ndarray:
    """``n`` fuzzed uniforms holding every exact interior edge of
    ``cum``, the double just below each, 0.0 and the largest double
    below 1."""
    edges = cum[:-1]
    special = np.concatenate(
        [edges, np.nextafter(edges, 0.0), [0.0, np.nextafter(1.0, 0.0)]]
    )
    u = rng.random(n)
    u[: special.size] = special
    rng.shuffle(u)
    return u


@requires_compiled
class TestBoundVisit:
    """``cnative``'s bound visit (one C call that maps the uniforms
    itself) equals the default bind (``types_from_uniforms`` then the
    reference kernel) on state, counts and return value."""

    MODELS = {
        "ziff": (lambda: ziff_model(k_co=1.0, k_o2=0.5, k_co2=2.0), (30, 30)),
        "one-type": (_adsorption_1d, (64,)),
        "20-types": (lambda: _many_types_1d(20), (1500,)),
    }

    def _streams(self, comp, kernel, rng):
        """Sites valid for ``kernel``'s contract, with edge uniforms."""
        n_sites = comp.n_sites
        if kernel == "run_trials_sequential":
            sites = rng.integers(0, n_sites, 2500).astype(np.intp)
        else:
            sites = conflict_free_sites(comp, rng)
            if kernel == "run_trials_batch_with_duplicates":
                sites = rng.choice(sites, 2500).astype(np.intp)
        return sites, _edge_uniforms(comp.type_cum, rng, sites.size)

    @pytest.mark.parametrize("kernel", cnative._VISIT_KERNELS)
    @pytest.mark.parametrize("model_name", list(MODELS))
    def test_c_visit_equals_the_default_bind(self, model_name, kernel):
        make, shape = self.MODELS[model_name]
        comp = make().compile(Lattice(shape))
        n_species = len(comp.model.species)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            state0 = np.where(
                rng.random(comp.n_sites) < 0.5, 0,
                rng.integers(0, n_species, comp.n_sites),
            ).astype(np.uint8)
            sites, u = self._streams(comp, kernel, rng)
            out = {}
            for name in ("numpy", *COMPILED):
                state = state0.copy()
                counts = np.zeros(comp.n_types, dtype=np.int64)
                visit = get_backend(name).bind_visit(state, comp, counts, kernel, u)
                if name == "cnative":
                    assert isinstance(visit, cnative._CVisit)  # the C path
                out[name] = (visit(sites), state, counts)
            ref = out.pop("numpy")
            for name, got in out.items():
                assert got[0] == ref[0], (name, seed)
                assert np.array_equal(got[1], ref[1]), (name, seed)
                assert np.array_equal(got[2], ref[2]), (name, seed)

    def test_unbindable_counts_get_the_default_bind(self, ziff, small_lattice):
        comp = ziff.compile(small_lattice)
        state = np.zeros(comp.n_sites, dtype=np.uint8)
        counts = np.zeros(comp.n_types, dtype=np.int32)  # not the ABI dtype
        rng = np.random.default_rng(2)
        sites = rng.integers(0, comp.n_sites, 200).astype(np.intp)
        visit = get_backend("cnative").bind_visit(
            state, comp, counts, "run_trials_sequential", rng.random(200)
        )
        assert not isinstance(visit, cnative._CVisit)
        assert visit(sites) == counts.sum() > 0

    @pytest.mark.parametrize("name", ["numpy", *COMPILED])
    def test_slices_and_fixed_sites_equal_one_visit(self, ziff, name):
        """``visit(sites[a:b], a)`` reads ``uniforms[a:b]`` and
        ``visit.over(sites)()`` is ``visit(sites)``: a visit split at
        any point, or prepared once, runs the very same trials."""
        comp = ziff.compile(Lattice((9, 7)))
        rng = np.random.default_rng(5)
        state0 = rng.integers(0, len(ziff.species), comp.n_sites).astype(np.uint8)
        sites = rng.integers(0, comp.n_sites, 300).astype(np.intp)
        u = _edge_uniforms(comp.type_cum, rng, sites.size)
        backend = get_backend(name)
        kernel = "run_trials_sequential"
        out = []
        for split in (None, 0, 1, 137, 300):
            state = state0.copy()
            counts = np.zeros(comp.n_types, dtype=np.int64)
            visit = backend.bind_visit(state, comp, counts, kernel, u)
            if split is None:
                executed = visit.over(sites)()
            else:
                executed = visit(sites[:split]) + visit(sites[split:], split)
            out.append((executed, state.tobytes(), counts.tobytes()))
        assert all(o == out[0] for o in out[1:])


def _skew_2d() -> Model:
    """Offsets of both signs on both axes; the pattern spans 5 rows and
    4 columns."""
    return Model(
        ["*", "A", "B", "C"],
        [
            ReactionType(
                "spray", [((0, 0), "*", "A"), ((-1, 2), "*", "B"), ((2, -1), "*", "C")],
                1.0,
            ),
            ReactionType("clear", [((0, 0), "A", "*"), ((-2, -1), "B", "*")], 0.5),
        ],
        name="skew-2d",
    )


def _skew_1d() -> Model:
    """A 1-d pattern spanning 6 sites, offsets of both signs."""
    return Model(
        ["*", "A", "B"],
        [
            ReactionType(
                "spray", [((0,), "*", "A"), ((-2,), "*", "B"), ((3,), "*", "A")], 1.0
            ),
            ReactionType("clear", [((0,), "A", "*"), ((-1,), "B", "*")], 0.5),
        ],
        name="skew-1d",
    )


@requires_compiled
class TestStencil:
    """Both C entries compute each touched site from the anchor's row
    and column and the type's stencil.  On these lattices the periodic
    wrap decides where a pattern lands: odd and non-square sides, sides
    equal to a pattern's extent, the 5 x 2 strip and 1-d chains."""

    CASES = {
        "skew-7x5": (_skew_2d, (7, 5)),
        "skew-extent-5x4": (_skew_2d, (5, 4)),
        "skew-5x11": (_skew_2d, (5, 11)),
        "skew-9x4": (_skew_2d, (9, 4)),
        "ziff-3x11": (lambda: ziff_model(k_co=1.0, k_o2=0.5, k_co2=2.0), (3, 11)),
        "ziff-strip-5x2": (lambda: ziff_model(k_co=1.0, k_o2=0.5, k_co2=2.0), (5, 2)),
        "skew-1d-extent-6": (_skew_1d, (6,)),
        "skew-1d-13": (_skew_1d, (13,)),
    }

    @staticmethod
    def _type_uniform(cum: np.ndarray, t: int) -> float:
        """The midpoint of type ``t``'s bin of ``cum``."""
        lo = cum[t - 1] if t else 0.0
        return (lo + cum[t]) / 2

    @pytest.mark.parametrize("case", list(CASES))
    def test_every_anchor_lands_where_the_lattice_wraps_it(self, case):
        """One trial of each all-vacant-source type at each anchor of an
        empty lattice writes its targets at ``lattice.flat_index(anchor
        + offset)``, through ``repro_run_trials`` and through
        ``repro_visit_uniforms``."""
        make, shape = self.CASES[case]
        lat = Lattice(shape)
        comp = make().compile(lat)
        vacant = comp.model.species.code("*")
        checked = 0
        for t, ct in enumerate(comp.types):
            if set(ct.srcs) != {vacant}:
                continue
            u = np.array([self._type_uniform(comp.type_cum, t)])
            for s in range(lat.n_sites):
                anchor = lat.coords(s)
                want = np.zeros(lat.n_sites, dtype=np.uint8)
                for off, tgt in zip(ct.offsets, ct.tgts):
                    want[lat.flat_index([a + o for a, o in zip(anchor, off)])] = tgt
                by_kernel = np.zeros(lat.n_sites, dtype=np.uint8)
                assert cnative.c_run_trials_sequential(by_kernel, comp, [s], [t]) == 1
                by_visit = np.zeros(lat.n_sites, dtype=np.uint8)
                counts = np.zeros(comp.n_types, dtype=np.int64)
                visit = get_backend("cnative").bind_visit(
                    by_visit, comp, counts, "run_trials_sequential", u
                )
                assert visit(np.array([s], dtype=np.intp)) == 1
                assert np.array_equal(by_kernel, want), (case, t, anchor)
                assert np.array_equal(by_visit, want), (case, t, anchor)
                checked += 1
        assert checked >= lat.n_sites

    @pytest.mark.parametrize("case", list(CASES))
    def test_streams_equal_numpy_on_busy_states(self, case):
        """Fuzzed trial streams on random states, every species present:
        both C entries equal the NumPy reference exactly."""
        make, shape = self.CASES[case]
        comp = make().compile(Lattice(shape))
        n_species = len(comp.model.species)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            state0 = rng.integers(0, n_species, comp.n_sites).astype(np.uint8)
            sites = rng.integers(0, comp.n_sites, 400).astype(np.intp)
            u = _edge_uniforms(comp.type_cum, rng, sites.size)
            types = np.searchsorted(comp.type_cum, u, side="right").astype(np.intp)
            kwargs = {"state": state0, "compiled": comp, "sites": sites,
                      "types": types,
                      "counts": np.zeros(comp.n_types, dtype=np.int64),
                      "record": []}
            assert compare_backends(
                "run_trials_sequential", kwargs, ("numpy", *COMPILED),
                label=f"{case} seed {seed}",
            ) == []
            out = {}
            for name in ("numpy", *COMPILED):
                state = state0.copy()
                counts = np.zeros(comp.n_types, dtype=np.int64)
                visit = get_backend(name).bind_visit(
                    state, comp, counts, "run_trials_sequential", u
                )
                out[name] = (visit(sites), state.tobytes(), counts.tobytes())
            assert all(got == out["numpy"] for got in out.values()), (case, seed)


@requires_compiled
@pytest.mark.slow
class TestDifferentialMatrix:
    """models x lattice shapes x kernels x seeds — the full sweep."""

    @pytest.mark.parametrize("kernel_name", DISPATCH_KERNELS)
    def test_bit_identity_matrix(self, kernel_name):
        failures: list[str] = []
        for model, shapes in _model_matrix():
            for shape in shapes:
                comp = model.compile(Lattice(shape))
                for seed in range(4):
                    rng = np.random.default_rng(seed)
                    kwargs = fuzz_case(
                        comp,
                        kernel_name,
                        rng,
                        with_record=(kernel_name == "run_trials_sequential"),
                    )
                    failures += compare_backends(
                        kernel_name,
                        kwargs,
                        ("numpy", *COMPILED),
                        label=f"{model.name} {shape} seed {seed}",
                    )
        assert failures == []


# ----------------------------------------------------------------------
# the harness must catch a wrong twin
# ----------------------------------------------------------------------
class _MutantBackend(Backend):
    """A deliberately wrong tier: executes correctly, then corrupts."""

    name = "mutant-seeded"
    tier = -1

    def __init__(self, fault: str):
        self.fault = fault

    def kernels(self):
        from repro.core import kernels as ref

        fault = self.fault

        def bad_sequential(state, compiled, sites, types, counts=None, record=None):
            n = ref.run_trials_sequential(
                state, compiled, sites, types, counts=counts, record=record
            )
            if fault == "state" and len(state):
                state[0] ^= 1  # one flipped cell
                return n
            if fault == "count":
                return n + 1  # off-by-one return
            if fault == "counts" and counts is not None and counts.size:
                counts[0] += 1  # silent accounting drift
            if fault == "sites" and len(sites):
                sites[0] += 1  # writes an input outside the contract
            return n

        return {"run_trials_sequential": bad_sequential}


@pytest.fixture
def mutant_registry():
    """Register mutants for one test; guarantee registry restoration."""
    from repro.backends import registry

    installed: list[str] = []

    def install(backend: Backend) -> Backend:
        register_backend(backend)
        installed.append(backend.name)
        return backend

    yield install
    for name in installed:
        registry._REGISTRY.pop(name, None)


class TestMutantsAreCaught:
    @pytest.mark.parametrize("fault", ["state", "count", "counts"])
    def test_seeded_mutant_twin_is_detected(
        self, ziff, small_lattice, mutant_registry, fault
    ):
        mutant_registry(_MutantBackend(fault))
        comp = ziff.compile(small_lattice)
        rng = np.random.default_rng(5)
        caught = False
        # a fault may need an executing trial to surface; several cases
        for kwargs in fuzz_cases(comp, "run_trials_sequential", rng, 5):
            if compare_backends(
                "run_trials_sequential", kwargs, ("numpy", "mutant-seeded")
            ):
                caught = True
                break
        assert caught, f"mutant fault {fault!r} survived the differential harness"


class TestUndeclaredWrites:
    """No backend may change an argument outside the reference ``writes``."""

    @pytest.mark.parametrize("kernel_name", DISPATCH_KERNELS)
    def test_reference_kernels_keep_undeclared_inputs(
        self, ziff, small_lattice, kernel_name
    ):
        comp = ziff.compile(small_lattice)
        rng = np.random.default_rng(13)
        for kwargs in fuzz_cases(comp, kernel_name, rng, 3):
            assert compare_backends(kernel_name, kwargs, ("numpy",)) == []

    def test_stand_in_writing_an_undeclared_input_is_reported(
        self, ziff, small_lattice, mutant_registry
    ):
        """A reference stand-in in the oracle's place that writes
        ``sites`` is reported even though every output agrees."""
        mutant_registry(_MutantBackend("sites"))
        comp = ziff.compile(small_lattice)
        kwargs = fuzz_case(comp, "run_trials_sequential", np.random.default_rng(5))
        assert len(kwargs["sites"])
        mismatches = compare_backends(
            "run_trials_sequential", kwargs, ("mutant-seeded", "numpy")
        )
        assert mismatches == [
            "run_trials_sequential: input 'sites' outside writes changed "
            "(mutant-seeded): 1 element(s) differ"
        ]


# ----------------------------------------------------------------------
# the C source itself: prototypes vs ctypes, and seeded C mutants
# ----------------------------------------------------------------------
_PROTOTYPE = re.compile(r"int64_t\s+(repro_\w+)\s*\(([^)]*)\)")
_INT32_DECL = re.compile(r"\bint32_t\s*\*?\s*(\w+)")
_DECL = re.compile(r"(?:const\s+)?(\w+)\s*(\*?)\s*\w+")
_VISIT_STRUCT = re.compile(r"typedef struct \{([^}]*)\} repro_visit_t;")


def _decls(text: str, sep: str) -> "list[tuple[str, bool]]":
    """``[(C type, is_pointer), ...]`` of ``sep``-separated declarations."""
    out = []
    for decl in filter(None, (d.strip() for d in text.split(sep))):
        ctype, star = _DECL.fullmatch(decl).groups()
        out.append((ctype, star == "*"))
    return out


def c_prototypes(source: str) -> "dict[str, list[tuple[str, bool]]]":
    """``repro_*`` entry point -> ``[(C type, is_pointer), ...]``."""
    return {
        name: _decls(params, ",") for name, params in _PROTOTYPE.findall(source)
    }


class TestCPrototypes:
    """What the ABI cannot show: on LP64 a pointer and an int64 share a
    register, and a narrowed offset only wraps past 2**31 table entries,
    so neither shows up when the kernels run."""

    def test_ctypes_kinds_match_the_c_prototypes(self):
        protos = c_prototypes(cnative._C_SOURCE)
        assert set(protos) == set(cnative.CTYPES_SIGNATURES)
        for name, (kinds, ret) in cnative.CTYPES_SIGNATURES.items():
            assert ret == "i64"
            assert len(protos[name]) == len(kinds), name
            for i, ((ctype, is_ptr), kind) in enumerate(zip(protos[name], kinds)):
                assert is_ptr == (kind == "ptr"), f"{name} parameter {i}"
                assert is_ptr or ctype == "int64_t", f"{name} parameter {i}"

    def test_int32_only_for_the_change_counts(self):
        assert set(_INT32_DECL.findall(cnative._C_SOURCE)) <= {"nch", "nc", "c"}

    def test_visit_handle_mirrors_the_c_struct(self):
        """``repro_visit_uniforms`` reads its tables through a struct:
        its ctypes mirror must list the same fields, in order, with the
        same pointer/int64 kinds."""
        fields = _decls(_VISIT_STRUCT.search(cnative._C_SOURCE).group(1), ";")
        mirror = cnative._VisitHandle._fields_
        assert len(fields) == len(mirror)
        for (ctype, is_ptr), (name, kind) in zip(fields, mirror):
            assert is_ptr == (kind is ctypes.c_void_p), name
            assert is_ptr or (ctype, kind) == ("int64_t", ctypes.c_int64), name


class TestCSourceCompilesCleanly:
    def test_no_warnings_under_wall_wextra(self, tmp_path):
        """``_C_SOURCE`` builds with every common warning an error."""
        cc = cnative._find_compiler()
        if cc is None:
            pytest.skip("no C compiler on this host")
        src = tmp_path / "repro_cnative.c"
        src.write_text(cnative._C_SOURCE)
        proc = subprocess.run(
            [cc, "-O3", "-fPIC", "-shared", "-Wall", "-Wextra", "-Werror",
             "-o", str(tmp_path / "repro_cnative.so"), str(src)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


#: name -> (target, old, new, count, killer).  The textual mutants of
#: the shipped C source (``count`` as for ``str.replace``); the
#: ``CTYPES_SIGNATURES`` mutant swaps the handle (ptr) and ``n_trials``
#: (i64) of ``repro_run_trials``.  ``killer`` names the checks that must
#: fail against the mutant.
C_MUTANTS = {
    "off-by-one-bound": (
        "source", "for (; c < nc; ++c)", "for (; c <= nc; ++c)", 1,
        "differential",
    ),
    "widened-nch-pointer": (
        "source", "const int32_t *nch", "const int64_t *nch", -1,
        "differential",
    ),
    "reversed-trial-loop": (
        "source",
        "for (int64_t i = 0; i < n_trials; ++i)",
        "for (int64_t i = n_trials - 1; i >= 0; --i)",
        1,
        "differential",
    ),
    "record-write-after-increment": (
        "source",
        """        if (rec) {
            int64_t *r = rec + 3 * n_exec;
            r[0] = i;
            r[1] = t;
            r[2] = s;
        }
        ++n_exec;""",
        """        ++n_exec;
        if (rec) {
            int64_t *r = rec + 3 * n_exec;
            r[0] = i;
            r[1] = t;
            r[2] = s;
        }""",
        1,
        "differential",
    ),
    "strict-edge-in-visit": (
        "source", "types[j] += ub[j] >= edge;", "types[j] += ub[j] > edge;", 1,
        "differential",
    ),
    "swapped-argtypes": ("ctypes", "repro_run_trials", (0, 3), None, "prototypes"),
    "int32-offset": (
        "source",
        "const int64_t at = rr * cols + cc;",
        "const int32_t at = rr * cols + cc;",
        1,
        "prototypes",
    ),
    "dropped-row-wrap": (
        "source", "    if (rr >= rows)\n        rr -= rows;\n", "", 1,
        "differential",
    ),
    "dropped-column-wrap": (
        "source", "    if (cc >= cols)\n        cc -= cols;\n", "", 1,
        "differential",
    ),
}

_HERE = Path(__file__).resolve()
_KILLERS = {
    "differential": [
        f"{_HERE}::TestDifferentialSmoke",
        f"{_HERE}::TestBoundVisit",
        f"{_HERE}::TestEngineBitIdentity",
    ],
    "prototypes": [f"{_HERE}::TestCPrototypes"],
}


def _mutation_code(target, old, new, count) -> str:
    """Python that applies one mutant to the imported cnative module."""
    if target == "ctypes":
        a, b = new
        return (
            "sig = dict(cnative.CTYPES_SIGNATURES)\n"
            f"kinds, ret = sig[{old!r}]\n"
            "kinds = list(kinds)\n"
            f"kinds[{a}], kinds[{b}] = kinds[{b}], kinds[{a}]\n"
            f"sig[{old!r}] = (tuple(kinds), ret)\n"
            "cnative.CTYPES_SIGNATURES = sig\n"
        )
    return (
        f"cnative._C_SOURCE = cnative._C_SOURCE.replace({old!r}, {new!r}, {count})\n"
    )


def _run_checks_against(mutation: str, node_ids: "list[str]", cache: Path):
    """Run pytest on ``node_ids`` in a fresh interpreter whose cnative
    module was mutated before its library was first built."""
    import repro

    script = (
        "import sys\n"
        "from repro.backends import cnative\n"
        f"{mutation}"
        "import pytest\n"
        f"sys.exit(pytest.main({[*node_ids, '-q', '-p', 'no:cacheprovider']!r}))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, REPRO_CNATIVE_CACHE=str(cache))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        cwd=_HERE.parents[1],
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )


@requires_compiled
@pytest.mark.slow
class TestCMutantsAreKilled:
    """Each seeded C mutant fails the checks named as its killer: a
    failing test (exit 1) or a crash (killed by a signal) both count."""

    def test_unmutated_source_passes_every_killer(self, tmp_path):
        proc = _run_checks_against(
            "", _KILLERS["differential"] + _KILLERS["prototypes"], tmp_path
        )
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]

    @pytest.mark.parametrize("name", list(C_MUTANTS))
    def test_mutant_is_killed(self, name, tmp_path):
        target, old, new, count, killer = C_MUTANTS[name]
        if target == "source":
            assert old in cnative._C_SOURCE, f"mutant {name} no longer applies"
        proc = _run_checks_against(
            _mutation_code(target, old, new, count), _KILLERS[killer], tmp_path
        )
        assert proc.returncode == 1 or proc.returncode < 0, (
            f"mutant {name} survived the {killer} checks "
            f"(exit {proc.returncode}):\n{proc.stdout[-3000:]}{proc.stderr[-3000:]}"
        )


class TestCompilerIdentityCache:
    def test_digest_includes_compiler_identity(self, monkeypatch, tmp_path):
        monkeypatch.setenv(cnative.CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(cnative, "_compiler_id_cache", "cc fake 1.0")
        first = cnative.library_path()
        monkeypatch.setattr(cnative, "_compiler_id_cache", "cc fake 2.0")
        second = cnative.library_path()
        assert first != second
        assert all(p.startswith(str(tmp_path)) for p in (first, second))

    def test_no_compiler_gets_stable_identity(self, monkeypatch):
        monkeypatch.setattr(cnative, "_compiler_id_cache", None)
        monkeypatch.setattr(cnative, "_find_compiler", lambda: None)
        assert cnative._compiler_identity() == "no-cc"
        assert cnative._compiler_identity() == "no-cc"  # memoised

    def test_evict_stale_drops_only_superseded_artifacts(self, tmp_path):
        keep = "repro_cnative_aaaa.so"
        stale = "repro_cnative_bbbb.so"
        other = "unrelated.so"
        for name in (keep, stale, other):
            (tmp_path / name).write_bytes(b"")
        cnative._evict_stale(str(tmp_path), keep)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [keep, other]
        )


# ----------------------------------------------------------------------
# coverage map: what the backends must cover, locked by contract
# ----------------------------------------------------------------------
class TestCoverageMap:
    def test_dispatch_set_is_exactly_the_public_mutating_kernels(self):
        """Every public state-writing kernel is dispatchable — no bypass.

        ``CompiledReactionType.execute`` (repro.core.compiled) is the
        single-reaction primitive *beneath* the dispatch layer — the
        kernels call it, engines never do — so the assertion covers the
        engine-facing kernel module.
        """
        from repro.core.contracts import contract_of, registered_kernels

        mutating = {
            fn.__name__
            for fn in registered_kernels(("repro.core.kernels",))
            if contract_of(fn).writes and not fn.__name__.startswith("_")
        }
        assert mutating == set(DISPATCH_KERNELS)

    def test_every_dispatch_kernel_has_a_registered_twin_per_compiled_module(self):
        from repro.core.contracts import contract_of, registered_kernels

        twins = {
            contract_of(fn).twin
            for fn in registered_kernels(("repro.backends.cnative",))
            if contract_of(fn).twin
        }
        assert set(TRIAL_KERNELS) <= twins, (
            f"repro.backends.cnative is missing twins for "
            f"{set(TRIAL_KERNELS) - twins}"
        )

    def test_backend_kernel_sets_override_every_dispatch_kernel(self):
        from repro.core import kernels as ref

        for name in COMPILED:
            ks = get_backend(name).kernel_set()
            for kernel_name in TRIAL_KERNELS:
                assert getattr(ks, kernel_name) is not getattr(ref, kernel_name)


# ----------------------------------------------------------------------
# engine-level bit-identity, RNG draw parity included
# ----------------------------------------------------------------------
def _engine_factories(small_lattice):
    from repro.ca.lpndca import LPNDCA
    from repro.ca.ndca import NDCA
    from repro.ca.pndca import PNDCA
    from repro.ca.typepart import TypePartitionedCA
    from repro.dmc.rsm import RSM
    from repro.partition import five_chunk_partition

    p5 = lambda: five_chunk_partition(small_lattice)  # noqa: E731
    return {
        "rsm": lambda m, metrics: RSM(m, small_lattice, seed=9, metrics=metrics),
        "ndca": lambda m, metrics: NDCA(m, small_lattice, seed=9, metrics=metrics),
        "pndca": lambda m, metrics: PNDCA(
            m, small_lattice, seed=9, partition=p5(), metrics=metrics
        ),
        "lpndca": lambda m, metrics: LPNDCA(
            m, small_lattice, seed=9, partition=p5(), L="chunk", metrics=metrics
        ),
        # L = 1, size-proportional: the RSM-equivalent whole-step visit
        "lpndca-l1": lambda m, metrics: LPNDCA(
            m, small_lattice, seed=9, partition=p5(), L=1, metrics=metrics
        ),
        "typepart": lambda m, metrics: TypePartitionedCA(
            m, small_lattice, seed=9, metrics=metrics
        ),
    }


@requires_compiled
class TestEngineBitIdentity:
    @pytest.mark.parametrize(
        "engine", ["rsm", "ndca", "pndca", "lpndca", "typepart"]
    )
    @pytest.mark.parametrize("backend", COMPILED or ["numpy"])
    def test_run_is_bit_identical_with_draw_parity(
        self, ziff, small_lattice, engine, backend
    ):
        from repro.obs import MetricsCollector

        collectors = MetricsCollector(), MetricsCollector()
        self._assert_runs_identical(
            ziff, small_lattice, engine, backend, collectors
        )
        snap_a, snap_b = (c.snapshot() for c in collectors)
        draws_a = {k: v for k, v in snap_a.counters.items() if k.startswith("rng.")}
        draws_b = {k: v for k, v in snap_b.counters.items() if k.startswith("rng.")}
        assert draws_a == draws_b  # draw-for-draw RNG parity

    @pytest.mark.parametrize(
        "engine", ["rsm", "ndca", "pndca", "lpndca", "lpndca-l1", "typepart"]
    )
    @pytest.mark.parametrize("backend", COMPILED or ["numpy"])
    def test_metrics_off_run_is_bit_identical(
        self, ziff, small_lattice, engine, backend
    ):
        """The path the benchmarks run: no collector, raw generator."""
        from repro.obs import NULL_METRICS

        self._assert_runs_identical(
            ziff, small_lattice, engine, backend, (NULL_METRICS, NULL_METRICS)
        )

    @staticmethod
    def _assert_runs_identical(ziff, small_lattice, engine, backend, collectors):
        def run(backend_name, collector):
            # the backend is resolved at construction, so the engine must
            # be built inside the ambient block
            with use_backend(backend_name):
                sim = _engine_factories(small_lattice)[engine](ziff, collector)
                return sim.run(until=3.0)

        res_a = run("numpy", collectors[0])
        res_b = run(backend, collectors[1])
        assert np.array_equal(res_a.final_state.array, res_b.final_state.array)
        assert res_a.final_time == res_b.final_time
        assert res_a.n_trials == res_b.n_trials
        assert np.array_equal(res_a.executed_per_type, res_b.executed_per_type)

    @pytest.mark.parametrize("backend", COMPILED or ["numpy"])
    def test_ensembles_bit_identical(self, ziff, small_lattice, backend):
        """Replica loops on spawned streams match the numpy reference."""
        from repro.analysis.statistics import run_ensemble
        from repro.ca import NDCA, PNDCA
        from repro.core.rng import spawn_rngs
        from repro.dmc import RSM, CoverageObserver
        from repro.partition import five_chunk_partition

        p5 = five_chunk_partition(small_lattice)
        engines = [
            lambda s: RSM(ziff, small_lattice, seed=s, observers=[
                CoverageObserver(1.0)]),
            lambda s: NDCA(ziff, small_lattice, seed=s, observers=[
                CoverageObserver(1.0)]),
            lambda s: PNDCA(ziff, small_lattice, seed=s, partition=p5,
                            observers=[CoverageObserver(1.0)]),
        ]
        for make in engines:
            runs = []
            for name in ("numpy", backend):
                with use_backend(name):
                    runs.append(run_ensemble(
                        make, spawn_rngs(4, 3), 3.0, keep_results=True
                    ).results)
            for a, b in zip(*runs):
                assert np.array_equal(a.final_state.array, b.final_state.array)
                assert a.n_trials == b.n_trials
                assert np.array_equal(a.executed_per_type, b.executed_per_type)
                assert a.final_time == b.final_time

    def test_explicit_backend_argument_beats_ambient(self, ziff, small_lattice):
        from repro.dmc.rsm import RSM

        if not COMPILED:
            pytest.skip("no compiled backend available")
        with use_backend("numpy"):
            sim = RSM(ziff, small_lattice, seed=1, backend=COMPILED[0])
        assert sim.backend.name == COMPILED[0]
        assert sim.kernels.backend_name == COMPILED[0]


# ----------------------------------------------------------------------
# resilience x backends: checkpoints are backend-portable
# ----------------------------------------------------------------------
@requires_compiled
class TestCheckpointPortability:
    def test_fingerprint_is_backend_free(self, ziff, small_lattice):
        from repro.dmc.rsm import RSM
        from repro.resilience.checkpoint import engine_fingerprint

        fps = set()
        for name in ("numpy", *COMPILED):
            with use_backend(name):
                fps.add(engine_fingerprint(RSM(ziff, small_lattice, seed=2)))
        assert len(fps) == 1

    @pytest.mark.parametrize("backend", COMPILED or ["numpy"])
    def test_numpy_checkpoint_resumes_under_compiled_backend(
        self, ziff, small_lattice, tmp_path, backend
    ):
        """Write under numpy, resume under a compiled tier: no
        CheckpointMismatchError, and the completed run is bit-identical
        to an undisturbed single-backend baseline."""
        from repro.ca.pndca import PNDCA
        from repro.partition import five_chunk_partition
        from repro.resilience.checkpoint import (
            Checkpointer,
            CheckpointPolicy,
            checkpoint_paths,
        )

        mk = lambda seed: PNDCA(  # noqa: E731
            ziff,
            small_lattice,
            seed=seed,
            partition=five_chunk_partition(small_lattice),
        )
        with use_backend("numpy"):
            baseline = mk(42).run(until=4.0)
            ck = Checkpointer(tmp_path, CheckpointPolicy(every_steps=1), tag="xbk")
            mk(42).run(until=4.0, checkpoint=ck)
        paths = checkpoint_paths(tmp_path)
        assert len(paths) >= 2
        mid = paths[len(paths) // 2]
        with use_backend(backend):
            resumed = mk(999).resume(mid).run(until=4.0)
        assert np.array_equal(
            baseline.final_state.array, resumed.final_state.array
        )
        assert baseline.final_time == resumed.final_time
        assert baseline.n_trials == resumed.n_trials
        assert np.array_equal(baseline.executed_per_type, resumed.executed_per_type)


# ----------------------------------------------------------------------
# the headline speedup gate (slow; the CI backend-matrix job runs it)
# ----------------------------------------------------------------------
@requires_compiled
@pytest.mark.slow
class TestSpeedup:
    def test_sequential_hot_kernel_3x_at_256(self, ziff):
        """The compiled tier must beat the reference python trial loop
        >= 3x on the 256 x 256 reference workload (it measures ~20x;
        3 is the regression floor, robust to CI noise)."""
        from repro.core.rng import draw_types, make_rng

        lat = Lattice((256, 256))
        comp = ziff.compile(lat)
        rng = make_rng(0)
        state0 = rng.integers(0, 3, lat.n_sites).astype(np.uint8)
        sites = rng.integers(0, lat.n_sites, lat.n_sites).astype(np.intp)
        types = draw_types(make_rng(1), comp.type_cum, lat.n_sites)

        def best_of(fn, reps=3):
            best = float("inf")
            for _ in range(reps):
                st = state0.copy()
                t0 = time.perf_counter()
                fn(st, comp, sites, types)
                best = min(best, time.perf_counter() - t0)
            return best

        compiled = resolve_backend(COMPILED[0]).kernel_set()
        reference = resolve_backend("numpy").kernel_set()
        best_of(compiled.run_trials_sequential, reps=1)  # warm the library
        t_ref = best_of(reference.run_trials_sequential)
        t_jit = best_of(compiled.run_trials_sequential)
        assert t_ref / t_jit >= 3.0, (
            f"compiled sequential kernel only {t_ref / t_jit:.1f}x faster"
        )

"""The ctypes ABI boundary of the native backend.

The shared object must only ever see dense row-major float64
descriptors.  Anything else the caller hands us — sliced views,
Fortran ordering, float32, misaligned buffers, wrong shapes, object
dtypes — must either be normalized into a correct round-trip or raise
a typed :class:`~repro.errors.ReproError`; never corrupt memory, and
never mutate the caller's input arrays.  The descriptor validator on
the C side (``pmg_check_buffer``) is exercised directly by smuggling a
non-dense descriptor past the Python-side normalizer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.native import discover_compiler
from repro.backend.registry import NATIVE
from repro.compiler import compile_pipeline
from repro.errors import (
    InputShapeError,
    NativeABIError,
    NativeBackendError,
    ReproError,
)
from repro.multigrid.cycles import build_poisson_cycle
from repro.multigrid.reference import MultigridOptions
from repro.variants import polymg_native, polymg_opt_plus

HAVE_CC = discover_compiler() is not None
needs_cc = pytest.mark.skipif(
    not HAVE_CC, reason="no C toolchain on PATH (cc/gcc/clang)"
)

N = 16
TILES = {2: (8, 16)}


def _pipe():
    return build_poisson_cycle(
        2, N, MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=3)
    )


@pytest.fixture(scope="module")
def native():
    """One native-compiled 2-D V-cycle shared by the module (compiles
    once; tests only vary the inputs they feed it)."""
    pipe = _pipe()
    compiled = compile_pipeline(
        pipe.output,
        pipe.params,
        polymg_native(tile_sizes=dict(TILES), num_threads=1),
        name=pipe.name,
        cache=False,
    )
    if HAVE_CC:
        assert compiled.ensure_native() is not None
    return pipe, compiled


@pytest.fixture(scope="module")
def reference(native):
    """The planned-numpy answer for the canonical random inputs."""
    pipe, _ = native
    planned = compile_pipeline(
        pipe.output,
        pipe.params,
        polymg_opt_plus(tile_sizes=dict(TILES), num_threads=1),
        name=pipe.name,
        cache=False,
    )
    v, f = _canonical_inputs()
    return planned.execute(pipe.make_inputs(v, f))[pipe.output.name]


def _canonical_inputs():
    rng = np.random.default_rng(20170712)
    shape = (N + 2, N + 2)
    return rng.standard_normal(shape), rng.standard_normal(shape)


def _check(native, reference, v, f):
    """Execute with (possibly hostile) input arrays; assert the answer
    matches the planned reference and the inputs were not mutated."""
    pipe, compiled = native
    v_before, f_before = np.array(v), np.array(f)
    out = compiled.execute(pipe.make_inputs(v, f))[pipe.output.name]
    assert np.array_equal(np.asarray(v), v_before)
    assert np.array_equal(np.asarray(f), f_before)
    assert np.allclose(out, reference, rtol=1e-9, atol=1e-11)
    return out


@needs_cc
class TestHostileInputsRoundTrip:
    def test_contiguous_baseline(self, native, reference):
        v, f = _canonical_inputs()
        _check(native, reference, v, f)
        assert native[1].stats.tier(NATIVE.name).executions >= 1

    def test_sliced_non_contiguous_views(self, native, reference):
        v, f = _canonical_inputs()
        big_v = np.zeros((2 * (N + 2), 2 * (N + 2)))
        big_v[:: 2, :: 2] = v
        big_f = np.zeros((N + 2, 2 * (N + 2)))
        big_f[:, :: 2] = f
        sv, sf = big_v[:: 2, :: 2], big_f[:, :: 2]
        assert not sv.flags.c_contiguous
        _check(native, reference, sv, sf)

    def test_fortran_ordered_inputs(self, native, reference):
        v, f = _canonical_inputs()
        fv = np.asfortranarray(v)
        ff = np.asfortranarray(f)
        assert not fv.flags.c_contiguous
        _check(native, reference, fv, ff)

    def test_transposed_view(self, native, reference):
        v, f = _canonical_inputs()
        _check(native, reference, np.ascontiguousarray(v.T).T, f)

    def test_float32_inputs_upcast(self, native):
        pipe, compiled = native
        v, f = _canonical_inputs()
        v32, f32 = v.astype(np.float32), f.astype(np.float32)
        got = compiled.execute(pipe.make_inputs(v32, f32))[
            pipe.output.name
        ]
        # the upcast copy is semantically float64(v32): compare against
        # the same upcast through the planned backend
        planned = compile_pipeline(
            pipe.output,
            pipe.params,
            polymg_opt_plus(tile_sizes=dict(TILES), num_threads=1),
            name=pipe.name,
            cache=False,
        )
        want = planned.execute(
            pipe.make_inputs(v32.astype(np.float64), f32.astype(np.float64))
        )[pipe.output.name]
        assert np.allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_misaligned_view(self, native, reference):
        v, f = _canonical_inputs()
        nbytes = v.nbytes
        raw = np.empty(nbytes + 1, dtype=np.uint8)
        mis = (
            raw[1 : nbytes + 1]
            .view(np.float64)
            .reshape(v.shape)
        )
        mis[...] = v
        if mis.flags.aligned:  # platform allows unaligned doubles
            pytest.skip("could not construct a misaligned view here")
        _check(native, reference, mis, f)


class TestTypedRejections:
    def test_wrong_shape_raises_typed_error(self, native):
        pipe, compiled = native
        v, f = _canonical_inputs()
        bad = np.zeros((N + 3, N + 3))
        with pytest.raises(ReproError):
            # rejected before any native invocation (shape gate); the
            # error is InputShapeError from the executor's front door
            compiled.execute(pipe.make_inputs(bad, f))

    def test_shape_error_is_input_shape_error(self, native):
        pipe, compiled = native
        _, f = _canonical_inputs()
        with pytest.raises(InputShapeError):
            compiled.execute(pipe.make_inputs(np.zeros((3, 3)), f))

    @needs_cc
    def test_object_dtype_raises_native_abi_error(self, native):
        pipe, compiled = native
        runner = compiled.ensure_native()
        assert runner is not None
        v = np.empty((N + 2, N + 2), dtype=object)
        v[...] = "not-a-number"
        grid = pipe.v_grid
        with pytest.raises(NativeABIError):
            runner._normalize(grid, v)

    @needs_cc
    def test_runner_rejects_wrong_shape(self, native):
        pipe, compiled = native
        runner = compiled.ensure_native()
        inputs = {g for g, _ in runner.inputs}
        arrays = {g: np.zeros((N + 1, N + 1)) for g in inputs}
        with pytest.raises(NativeABIError):
            runner.run(arrays, num_threads=1)


@needs_cc
class TestCSideDescriptorValidation:
    def test_non_dense_descriptor_is_rejected_by_the_so(
        self, native, monkeypatch
    ):
        """Smuggle a Fortran-ordered array past the Python normalizer:
        ``pmg_check_buffer`` must reject the stride pattern with an
        input-descriptor return code, surfaced as NativeABIError."""
        pipe, compiled = native
        runner = compiled.ensure_native()
        monkeypatch.setattr(
            runner, "_normalize", lambda func, arr: arr
        )
        arrays = {
            g: np.asfortranarray(np.zeros(shape))
            for g, shape in runner.inputs
        }
        with pytest.raises(NativeABIError) as exc:
            runner.run(arrays, num_threads=1)
        assert "descriptor" in str(exc.value)

    def test_error_code_mapping(self, native):
        pipe, compiled = native
        runner = compiled.ensure_native()
        assert isinstance(runner._error_for(500), NativeBackendError)
        err_in = runner._error_for(100)
        assert isinstance(err_in, NativeABIError)
        assert runner.inputs[0][0].name in str(err_in)
        err_out = runner._error_for(200)
        assert isinstance(err_out, NativeABIError)
        assert runner.outputs[0][0].name in str(err_out)
        assert isinstance(runner._error_for(3), NativeABIError)
        err_ctrl = runner._error_for(4)
        assert isinstance(err_ctrl, NativeABIError)
        assert "control block" in str(err_ctrl)

    def test_execute_survives_runtime_rejection_via_fallback(
        self, reference
    ):
        """If the shared object rejects a call at runtime, execute()
        falls back to the numpy backend (visible incident), it does not
        crash or corrupt."""
        pipe = _pipe()
        compiled = compile_pipeline(
            pipe.output,
            pipe.params,
            polymg_native(tile_sizes=dict(TILES), num_threads=1),
            name=pipe.name,
            cache=False,
        )
        runner = compiled.ensure_native()
        assert runner is not None

        def reject(*a, **kw):
            raise NativeABIError("synthetic runtime rejection")

        runner.run = reject
        v, f = _canonical_inputs()
        out = compiled.execute(pipe.make_inputs(v, f))[pipe.output.name]
        assert np.allclose(out, reference, rtol=1e-9, atol=1e-11)
        assert compiled.stats.tier(NATIVE.name).fallbacks >= 1
        kinds = [rec["kind"] for rec in compiled.report.incidents]
        assert "native-fallback" in kinds

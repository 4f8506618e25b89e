"""Tests for the C/OpenMP code emitter (Figure 8 parity)."""

import re
import shutil
import subprocess
import tempfile

import pytest

from repro.backend.codegen_c import (
    DRIVER_ENTRY_NAME,
    NATIVE_ENTRY_NAME,
    POOL_RUNTIME,
    generate_c,
    generate_native_c,
    generated_loc,
)
from repro.multigrid import MultigridOptions, build_poisson_cycle
from repro.variants import polymg_naive, polymg_opt, polymg_opt_plus

STRICT_CFLAGS = ["-O1", "-fopenmp", "-Wall", "-Wextra", "-Werror", "-c"]


def _compile_smoke(code: str) -> None:
    cc = shutil.which("gcc") or shutil.which("cc")
    with tempfile.NamedTemporaryFile("w", suffix=".c", delete=False) as fh:
        fh.write(code)
        path = fh.name
    proc = subprocess.run(
        [cc, *STRICT_CFLAGS, path, "-o", path + ".o"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr[:2000]


@pytest.fixture(scope="module")
def compiled_2d():
    opts = MultigridOptions(cycle="V", n1=4, n2=2, n3=4, levels=3)
    pipe = build_poisson_cycle(2, 64, opts)
    return pipe.compile(
        polymg_opt_plus(tile_sizes={2: (16, 32)}, group_size_limit=6)
    )


class TestFigure8Features:
    def test_pool_calls(self, compiled_2d):
        code = generate_c(compiled_2d)
        assert "pool_allocate(sizeof(double)" in code
        assert "pool_deallocate(" in code

    def test_collapse_pragma(self, compiled_2d):
        code = generate_c(compiled_2d)
        assert (
            "#pragma omp parallel for schedule(static) collapse(2)" in code
        )

    def test_scratchpads_with_users(self, compiled_2d):
        code = generate_c(compiled_2d)
        assert "/* Scratchpads */" in code
        assert "/* users : [" in code
        assert "double _buf_" in code

    def test_ivdep_inner(self, compiled_2d):
        # #pragma ivdep is an unknown pragma to gcc; the emitted code
        # carries a compiler-dispatched PMG_IVDEP macro instead
        code = generate_c(compiled_2d)
        assert "PMG_IVDEP" in code
        assert '_Pragma("GCC ivdep")' in code

    def test_clamped_tile_bounds(self, compiled_2d):
        code = generate_c(compiled_2d)
        assert "max(" in code and "min(" in code

    def test_tile_region_propagation(self, compiled_2d):
        code = generate_c(compiled_2d)
        # per-tile regions replayed from the tile coordinates T_d
        assert "/* tile regions (backward footprint propagation) */" in code
        assert "T_0" in code and "_s" in code

    def test_scratch_indexed_by_region_origin(self, compiled_2d):
        code = generate_c(compiled_2d)
        # Figure 8's tile-relative scratch subscripts: the hoisted
        # region lower bounds serve as the scratchpad origins
        assert "_lb0)" in code and "_buf_" in code

    def test_output_returned(self, compiled_2d):
        code = generate_c(compiled_2d)
        assert "*out_" in code

    def test_pool_runtime_included(self, compiled_2d):
        code = generate_c(compiled_2d)
        assert POOL_RUNTIME.splitlines()[0] in code


class TestNativeMode:
    def test_entry_point_emitted(self, compiled_2d):
        code = generate_native_c(compiled_2d)
        assert f"int {NATIVE_ENTRY_NAME}(" in code
        assert "pmg_buffer" in code
        assert "pmg_check_buffer" in code

    def test_outputs_written_in_place(self, compiled_2d):
        code = generate_native_c(compiled_2d)
        # native outputs are caller buffers, not pool allocations
        assert "double *restrict out_" in code
        assert "**restrict out_" not in code

    def test_artifact_mode_has_no_abi(self, compiled_2d):
        code = generate_c(compiled_2d)
        assert NATIVE_ENTRY_NAME not in code
        assert "pmg_buffer" not in code


def _function_text(code: str, header: str) -> str:
    """Source of the C function whose definition starts with ``header``
    (through its closing brace at column zero)."""
    start = code.index(header)
    return code[start : code.index("\n}\n", start) + 3]


def _body_name(compiled) -> str:
    """C name of the pipeline body (without any ``_ws`` suffix)."""
    return "pipeline_" + re.sub(r"\W", "_", compiled.dag.name)


def _w_cycle(ndim=2, n=128, smoothing=(2, 2, 2), levels=4, **cfg):
    n1, n2, n3 = smoothing
    opts = MultigridOptions(cycle="W", n1=n1, n2=n2, n3=n3, levels=levels)
    return build_poisson_cycle(ndim, n, opts).compile(polymg_opt_plus(**cfg))


class TestOneNativeBody:
    """The JIT translation unit carries the pipeline body once: the
    worksharing form, entered by both ABI entry points."""

    def test_each_group_marker_occurs_once(self, compiled_2d):
        code = generate_native_c(compiled_2d)
        groups = compiled_2d.grouping.groups
        assert code.count("/* group ") == len(groups)
        for gi, group in enumerate(groups):
            marker = f"/* group {gi}: anchor {group.anchor.name} */"
            assert code.count(marker) == 1

    def test_both_entries_call_the_same_body(self, compiled_2d):
        code = generate_native_c(compiled_2d)
        body = f"{_body_name(compiled_2d)}_ws("
        assert code.count(f"static int {body}") == 1
        run = _function_text(code, f"int {NATIVE_ENTRY_NAME}(")
        drive = _function_text(code, f"int {DRIVER_ENTRY_NAME}(")
        assert run.count(body) == 1 and drive.count(body) == 1
        # no second flavour: the per-stage parallel regions live only
        # in the Figure-8 listing
        assert f"{_body_name(compiled_2d)}(" not in code
        assert "#pragma omp parallel for" not in code
        assert "#pragma omp for schedule(static)" in code

    def test_run_enters_the_body_from_one_region(self, compiled_2d):
        run = _function_text(
            generate_native_c(compiled_2d), f"int {NATIVE_ENTRY_NAME}("
        )
        assert run.count("#pragma omp parallel") == 1
        # a failed pool allocation leaves the team through pmg_rc
        assert "pmg_rc = pmg_rc_l;" in run
        assert "return pmg_rc != 0 ? 500 : 0;" in run

    @pytest.mark.parametrize(
        "affinity, clause",
        [("compact", "proc_bind(close)"), ("scatter", "proc_bind(spread)")],
    )
    def test_affinity_reaches_both_regions(self, affinity, clause):
        pipe = build_poisson_cycle(2, 32, MultigridOptions(levels=3))
        code = generate_native_c(
            pipe.compile(polymg_opt_plus(native_affinity=affinity))
        )
        for entry in (NATIVE_ENTRY_NAME, DRIVER_ENTRY_NAME):
            text = _function_text(code, f"int {entry}(")
            assert f"#pragma omp parallel {clause}" in text

    def test_listing_keeps_the_figure8_form(self, compiled_2d):
        code = generate_c(compiled_2d)
        assert f"void {_body_name(compiled_2d)}(" in code
        assert "_ws(" not in code and "#pragma omp for" not in code

    def test_scratchpads_state_their_alignment(self, compiled_2d):
        # the 3-D N=64 crash: gcc raised a scratchpad's alignment for
        # its vectorized loads and the frame did not honour it
        for code in (generate_c(compiled_2d), generate_native_c(compiled_2d)):
            decls = [
                line for line in code.splitlines()
                if line.lstrip().startswith("double _buf_")
            ]
            assert decls
            assert all("__attribute__((aligned(64)))" in d for d in decls)


class TestSharedGroupText:
    """A group text that occurs more than once (a W-cycle revisiting a
    level) is emitted once, as a function called per visit."""

    def test_v_cycle_stays_inline(self, compiled_2d):
        code = generate_native_c(compiled_2d)
        assert "pmg_group_" not in code
        tiled = sum(g.size > 1 for g in compiled_2d.grouping.groups)
        assert code.count("/* Scratchpads */") == tiled

    def test_v_cycle_body_is_the_listing_body(self, compiled_2d):
        """But for the worksharing pragmas, pool funnelling and the
        in-place output, the one native body is the Figure-8 text."""
        def loops(code, header):
            return [
                line for line in _function_text(code, header).splitlines()
                if line.lstrip().startswith(("for (", "int _s", "_s"))
            ]

        name = _body_name(compiled_2d)
        assert loops(
            generate_native_c(compiled_2d), f"static int {name}_ws("
        ) == loops(generate_c(compiled_2d), f"void {name}(")

    def test_w_cycle_emits_each_repeated_text_once(self):
        compiled = _w_cycle()
        code = generate_native_c(compiled)
        groups = compiled.grouping.groups
        body = _function_text(
            code, f"static int {_body_name(compiled)}_ws("
        )
        shared = [
            line.split("(")[0].split()[-1]
            for line in code.splitlines()
            if line.startswith("static int pmg_group_")
        ]
        assert shared
        calls = 0
        for fn in shared:
            visits = body.count(f"if ({fn}(")
            assert visits >= 2  # a text that occurs once stays inline
            calls += visits
        # every visit is either a call or its own inline nest, and the
        # translation unit holds one nest per distinct text
        inline = len(groups) - calls
        assert body.count("#pragma omp for") == inline
        assert code.count("#pragma omp for") == inline + len(shared) + 1
        assert code.count("/* group ") == len(groups)
        # 13 visits of 8 texts (DESIGN.md section 12)
        assert (len(groups), inline + len(shared)) == (13, 8)

    def test_w_cycle_listing_is_not_shared(self):
        code = generate_c(_w_cycle())
        assert "pmg_group_" not in code

    def test_shared_group_constants_stay_baked(self):
        code = generate_native_c(_w_cycle())
        fn = _function_text(code, "static int pmg_group_")
        # bounds and coefficients are literals; only buffers (and the
        # ABI-parity size parameter) are passed
        header = fn.splitlines()[0]
        assert header.startswith("static int pmg_group_")
        args = header[header.index("(") + 1 : header.rindex(")")].split(", ")
        assert args[0] == "int N"
        assert all("double *" in a for a in args[1:])
        assert "return 0;" in fn


class TestLoc:
    def test_loc_counts_nonblank(self, compiled_2d):
        code = generate_c(compiled_2d)
        assert generated_loc(compiled_2d) == sum(
            1 for l in code.splitlines() if l.strip()
        )

    def test_bigger_pipelines_more_code(self):
        small = build_poisson_cycle(
            2, 64, MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=3)
        )
        big = build_poisson_cycle(
            2, 64, MultigridOptions(cycle="W", n1=4, n2=4, n3=4, levels=3)
        )
        cfg = polymg_opt(tile_sizes={2: (16, 32)})
        assert generated_loc(big.compile(cfg)) > generated_loc(
            small.compile(cfg)
        )

    def test_naive_emits_straight_loops(self):
        pipe = build_poisson_cycle(
            2, 32, MultigridOptions(cycle="V", n1=1, n2=1, n3=1, levels=2)
        )
        code = generate_c(pipe.compile(polymg_naive()))
        assert "/* Scratchpads */" not in code
        assert "#pragma omp parallel for" in code


@pytest.mark.skipif(
    shutil.which("gcc") is None and shutil.which("cc") is None,
    reason="no C compiler available",
)
class TestCompileSmoke:
    def test_generated_code_compiles(self, compiled_2d):
        _compile_smoke(generate_c(compiled_2d))

    def test_native_code_compiles(self, compiled_2d):
        _compile_smoke(generate_native_c(compiled_2d))

    def test_3d_code_compiles(self):
        pipe = build_poisson_cycle(
            3, 16, MultigridOptions(cycle="V", n1=2, n2=1, n3=2, levels=2)
        )
        compiled = pipe.compile(
            polymg_opt_plus(tile_sizes={3: (4, 4, 8)})
        )
        _compile_smoke(generate_c(compiled))
        _compile_smoke(generate_native_c(compiled))

    def test_naive_code_compiles(self):
        pipe = build_poisson_cycle(
            2, 32, MultigridOptions(cycle="V", n1=1, n2=1, n3=1, levels=2)
        )
        _compile_smoke(generate_c(pipe.compile(polymg_naive())))

    def test_shared_group_code_compiles(self):
        _compile_smoke(generate_native_c(_w_cycle()))
        _compile_smoke(
            generate_native_c(
                _w_cycle(3, 16, (10, 0, 0), 3, tile_sizes={3: (4, 8, 8)})
            )
        )

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
from repro.lang.expr import Case
from repro.lang.sampling import Interp
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


GROUP_FN = "PMG_HIDDEN int pmg_group_"


def _group_functions(code: str) -> dict[str, str]:
    """Name -> definition of every group function."""
    return {
        line.split("(")[0].split()[-1]: _function_text(code, line)
        for line in code.splitlines()
        if line.startswith(GROUP_FN) and not line.endswith(";")
    }


def _stage_functions(code: str) -> dict[str, str]:
    """Name -> definition of every stage function."""
    return {
        line.split("(")[0].split()[-1]: _function_text(code, line)
        for line in code.splitlines()
        if line.startswith("PMG_HIDDEN void pmg_stage_")
        and not line.endswith(";")
    }


class TestSharedGroupText:
    """Every distinct group text is one function called per visit; a
    text that occurs more than once (a W-cycle revisiting a level) is
    still emitted once.  Its stage loops are calls of stage
    functions."""

    def test_v_cycle_emits_a_function_per_group(self, compiled_2d):
        code = generate_native_c(compiled_2d)
        groups = compiled_2d.grouping.groups
        assert len(_group_functions(code)) == len(groups)
        body = _function_text(
            code, f"static int {_body_name(compiled_2d)}_ws("
        )
        # the pipeline body is pool traffic and calls, no loop nest
        assert "for (" not in body and "#pragma omp for" not in body
        for gi in range(len(groups)):
            assert body.count(f"if (pmg_group_{gi}(") == 1
        tiled = sum(g.size > 1 for g in groups)
        assert code.count("/* Scratchpads */") == tiled

    def test_w_cycle_emits_each_repeated_text_once(self):
        compiled = _w_cycle()
        code = generate_native_c(compiled)
        groups = compiled.grouping.groups
        body = _function_text(
            code, f"static int {_body_name(compiled)}_ws("
        )
        functions = _group_functions(code)
        visits = [body.count(f"if ({fn}(") for fn in functions]
        assert max(visits) >= 2 and min(visits) >= 1
        # every visit is a call, and the source holds one tile loop per
        # distinct text (plus the driver's residual loop)
        assert sum(visits) == len(groups)
        assert "#pragma omp for" not in body
        assert code.count("#pragma omp for") == len(functions) + 1
        assert code.count("/* group ") == len(groups)
        # 13 visits of 8 texts (DESIGN.md section 12), whose 42 stage
        # loop nests are 5 distinct stage functions
        assert (len(groups), len(functions)) == (13, 8)
        assert len(_stage_functions(code)) == 5

    def test_w_cycle_listing_is_not_shared(self):
        code = generate_c(_w_cycle())
        assert "pmg_group_" not in code and "pmg_stage_" not in code

    def test_shared_group_constants_stay_baked(self):
        code = generate_native_c(_w_cycle())
        fn = _function_text(code, GROUP_FN)
        # a group function takes buffers only; its stage calls pass the
        # level's bounds, strides and constants as literals
        header = fn.splitlines()[0]
        args = header[header.rindex("(") + 1 : header.rindex(")")].split(", ")
        assert all("double *" in a for a in args)
        assert "return 0;" in fn and "PMG_IVDEP" not in fn
        calls = [ln.strip() for ln in fn.splitlines() if "pmg_stage_" in ln]
        assert calls and all(c.endswith(");") for c in calls)
        # N=128: 1/h**2 = 129**2, exact
        assert any(", 16641.0" in c for c in calls)


def _ivdep_loops(code: str) -> list[list[str]]:
    """The lines of every ``PMG_IVDEP`` loop (header through the
    closing brace at the header's indentation)."""
    lines = code.splitlines()
    loops = []
    for i, line in enumerate(lines):
        if line.strip() != "PMG_IVDEP":
            continue
        head = lines[i + 1]
        close = head[: len(head) - len(head.lstrip())] + "}"
        loops.append(lines[i + 1 : lines.index(close, i + 1) + 1])
    return loops


class TestBranchFreeStageLoops:
    """Native units lower ``Case`` and parity tests to loop bounds; the
    per-point rendering survives only in the Figure-8 listing."""

    @pytest.fixture(scope="class")
    def compiled_3d(self):
        opts = MultigridOptions(cycle="W", n1=2, n2=1, n3=2, levels=3)
        return build_poisson_cycle(3, 16, opts).compile(
            polymg_opt_plus(tile_sizes={3: (4, 4, 8)})
        )

    @pytest.fixture(scope="class")
    def compiled_untiled(self):
        opts = MultigridOptions(cycle="V", n1=1, n2=1, n3=1, levels=2)
        return build_poisson_cycle(2, 32, opts).compile(polymg_naive())

    @pytest.mark.parametrize(
        "which", ["compiled_2d", "compiled_3d", "compiled_untiled"]
    )
    def test_no_test_on_a_loop_variable_in_an_ivdep_loop(self, which, request):
        code = generate_native_c(request.getfixturevalue(which))
        loops = _ivdep_loops(code)
        assert loops
        for loop in loops:
            # straight-line stores: no branch, no select, no parity
            # arithmetic on the loop variable
            body = "\n".join(loop[1:-1])
            assert body.count(";") in (1, 2), body
            assert not re.search(r"\bif\b|\?|%|/ 2", body), body
        assert "% 2" not in code and ") / 2" not in code

    def test_every_piecewise_stage_row_is_three_loops(self, compiled_2d):
        code = generate_native_c(compiled_2d)
        piecewise = sum(
            any(isinstance(p, Case) for p in s.defn)
            and not isinstance(s, Interp)
            for s in compiled_2d.dag.stages
        )
        assert piecewise > 0
        rows = {
            name: fn for name, fn in _stage_functions(code).items()
            if "const int _xa0 = " in fn
        }
        # each piecewise stage calls one of the functions holding a row
        assert sum(code.count(f"{name}(") - 2 for name in rows) == piecewise
        for fn in rows.values():
            assert fn.count("const int _xa0 = ") == 1
            assert fn.count("x <= _xa0 - 1; x++)") == 1
            assert fn.count("x = max(_xb0 + 1, _xa0); ") == 1
            assert len(re.findall(r"<= _xb0; \w\+\+\)", fn)) == 1
            # the row test is evaluated once per row, outside the loops
            assert re.search(
                r"_xa0 = \(y >= pmg_c\d+ && y <= pmg_c\d+\) \?", fn
            )

    def test_interp_rows_pair_even_and_odd_points(self, compiled_2d):
        code = generate_native_c(compiled_2d)
        interps = sum(isinstance(s, Interp) for s in compiled_2d.dag.stages)
        pairs = {
            name: fn for name, fn in _stage_functions(code).items()
            if "_qlo" in fn
        }
        assert sum(code.count(f"{name}(") - 2 for name in pairs) == interps
        for fn in pairs.values():
            # 2-D: one pair loop per row parity, two peeled points
            assert fn.count("x = _qlo; x <= _qhi; x++") == 2
            assert fn.count("if (_lead)") == 2
            assert fn.count("if (_trail)") == 2

    def test_listing_keeps_the_per_point_rendering(self, compiled_2d):
        code = generate_c(compiled_2d)
        assert "if ((y >= 1) && (y <= " in code
        assert "if (((y) % 2 == 0) && ((x) % 2 == 0)) {" in code
        assert "_xa0" not in code and "_qlo" not in code


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
        compiled = pipe.compile(polymg_naive())
        _compile_smoke(generate_c(compiled))
        # straight groups: the split rows sit under the worksharing nest
        _compile_smoke(generate_native_c(compiled))

    def test_shared_group_code_compiles(self):
        _compile_smoke(generate_native_c(_w_cycle()))
        _compile_smoke(
            generate_native_c(
                _w_cycle(3, 16, (10, 0, 0), 3, tile_sizes={3: (4, 8, 8)})
            )
        )

"""Tests for the closure-compiling interpreter."""

import pytest

from repro.runtime import SimulationError, run_simulation


def run(src, **kw):
    return run_simulation(src, "t.c", **kw)


def out(src, **kw):
    return run(src, **kw).output


class TestScalarsAndArithmetic:
    def test_return_code(self):
        assert run("int main() { return 7; }").return_code == 7

    def test_arithmetic(self):
        assert "x=17" in out(
            'int main() { int x = 3 + 2 * 7; printf("x=%d", x); return 0; }'
        )

    def test_c_integer_division_truncates_toward_zero(self):
        assert "q=-2" in out(
            'int main() { int q = -7 / 3; printf("q=%d", q); return 0; }'
        )

    def test_c_modulo_sign(self):
        assert "r=-1" in out(
            'int main() { int r = -7 % 3; printf("r=%d", r); return 0; }'
        )

    def test_float_math(self):
        assert "s=3.00" in out(
            'int main() { double s = sqrt(9.0); printf("s=%.2f", s); return 0; }'
        )

    def test_int_coercion_on_store(self):
        assert "v=2" in out(
            'int main() { int v = 2.9; printf("v=%d", v); return 0; }'
        )

    def test_ternary_and_logic(self):
        src = """
        int main() {
          int a = 5, b = 0;
          int c = (a > 3 && !b) ? 10 : 20;
          printf("%d", c);
          return 0;
        }
        """
        assert out(src) == "10"

    def test_shortcircuit_evaluation(self):
        src = """
        int g;
        int bump() { g += 1; return 1; }
        int main() { int x = 0 && bump(); printf("%d %d", g, x); return 0; }
        """
        assert out(src) == "0 0"

    def test_bitwise_ops(self):
        src = 'int main() { printf("%d", (12 & 10) | (1 << 4)); return 0; }'
        assert out(src) == "24"

    def test_increment_semantics(self):
        src = """
        int main() {
          int i = 5;
          int a = i++;
          int b = ++i;
          printf("%d %d %d", a, b, i);
          return 0;
        }
        """
        assert out(src) == "5 7 7"


class TestControlFlow:
    def test_for_loop(self):
        src = 'int main() { int s = 0; for (int i = 1; i <= 10; i++) s += i; printf("%d", s); return 0; }'
        assert out(src) == "55"

    def test_while_and_break(self):
        src = """
        int main() {
          int i = 0;
          while (1) { i++; if (i == 4) break; }
          printf("%d", i);
          return 0;
        }
        """
        assert out(src) == "4"

    def test_continue(self):
        src = """
        int main() {
          int s = 0;
          for (int i = 0; i < 10; i++) { if (i % 2) continue; s += i; }
          printf("%d", s);
          return 0;
        }
        """
        assert out(src) == "20"

    def test_do_while(self):
        src = 'int main() { int i = 0; do { i++; } while (i < 3); printf("%d", i); return 0; }'
        assert out(src) == "3"

    def test_switch_with_fallthrough(self):
        src = """
        int main() {
          int x = 1, y = 0;
          switch (x) {
            case 1: y += 1;
            case 2: y += 10; break;
            case 3: y += 100; break;
            default: y = -1;
          }
          printf("%d", y);
          return 0;
        }
        """
        assert out(src) == "11"

    def test_switch_default(self):
        src = """
        int main() {
          int y = 0;
          switch (42) { case 1: y = 1; break; default: y = 9; }
          printf("%d", y);
          return 0;
        }
        """
        assert out(src) == "9"

    def test_runaway_loop_guard(self):
        with pytest.raises(SimulationError):
            run("int main() { while (1) { int x = 0; } return 0; }", max_steps=10_000)


class TestArraysPointersStructs:
    def test_array_roundtrip(self):
        src = """
        int main() {
          double a[8];
          for (int i = 0; i < 8; i++) a[i] = i * 1.5;
          printf("%.1f", a[4]);
          return 0;
        }
        """
        assert out(src) == "6.0"

    def test_2d_array(self):
        src = """
        int main() {
          int m[3][4];
          for (int i = 0; i < 3; i++)
            for (int j = 0; j < 4; j++)
              m[i][j] = i * 10 + j;
          printf("%d %d", m[2][3], m[0][1]);
          return 0;
        }
        """
        assert out(src) == "23 1"

    def test_global_array_init_list(self):
        src = 'int a[4] = {5, 6, 7, 8};\nint main() { printf("%d", a[2]); return 0; }'
        assert out(src) == "7"

    def test_malloc_and_pointer_indexing(self):
        src = """
        int main() {
          double *p = (double *)malloc(16 * sizeof(double));
          for (int i = 0; i < 16; i++) p[i] = i;
          double s = p[3] + p[10];
          free(p);
          printf("%.0f", s);
          return 0;
        }
        """
        assert out(src) == "13"

    def test_pointer_arithmetic(self):
        src = """
        int main() {
          int a[6];
          for (int i = 0; i < 6; i++) a[i] = i * i;
          int *p = a + 2;
          printf("%d %d", p[0], *(p + 3));
          return 0;
        }
        """
        assert out(src) == "4 25"

    def test_array_param_passing(self):
        src = """
        void fill(double *v, int n) { for (int i = 0; i < n; i++) v[i] = 2.0 * i; }
        double total(const double *v, int n) {
          double s = 0.0;
          for (int i = 0; i < n; i++) s += v[i];
          return s;
        }
        int main() {
          double buf[10];
          fill(buf, 10);
          printf("%.0f", total(buf, 10));
          return 0;
        }
        """
        assert out(src) == "90"

    def test_struct_members(self):
        src = """
        typedef struct { double x; double y; } Point;
        int main() {
          Point p;
          p.x = 3.0; p.y = 4.0;
          printf("%.0f", p.x * p.x + p.y * p.y);
          return 0;
        }
        """
        assert out(src) == "25"

    def test_array_of_structs(self):
        src = """
        typedef struct { float x; float q; } Atom;
        Atom atoms[4];
        int main() {
          for (int i = 0; i < 4; i++) { atoms[i].x = i; atoms[i].q = 2.0f; }
          float s = 0.0f;
          for (int i = 0; i < 4; i++) s += atoms[i].x * atoms[i].q;
          printf("%.0f", s);
          return 0;
        }
        """
        assert out(src) == "12"

    def test_address_of_scalar(self):
        src = """
        void set(int *p) { *p = 42; }
        int main() { int x = 0; set(&x); printf("%d", x); return 0; }
        """
        assert out(src) == "42"

    def test_memset_memcpy(self):
        src = """
        int main() {
          double a[8]; double b[8];
          for (int i = 0; i < 8; i++) a[i] = i;
          memset(b, 0, 8 * sizeof(double));
          memcpy(b, a, 8 * sizeof(double));
          printf("%.0f", b[7]);
          return 0;
        }
        """
        assert out(src) == "7"


class TestFunctions:
    def test_recursion(self):
        src = """
        int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
        int main() { printf("%d", fib(10)); return 0; }
        """
        assert out(src) == "55"

    def test_globals_shared(self):
        src = """
        int counter;
        void bump() { counter += 2; }
        int main() { bump(); bump(); printf("%d", counter); return 0; }
        """
        assert out(src) == "4"

    def test_rand_deterministic(self):
        src = """
        int main() {
          srand(7);
          int a = rand() % 100;
          srand(7);
          int b = rand() % 100;
          printf("%d", a == b);
          return 0;
        }
        """
        assert out(src) == "1"

    def test_unknown_function_raises(self):
        with pytest.raises(SimulationError):
            run("int main() { mystery(); return 0; }")


class TestPrintf:
    def test_format_variants(self):
        src = r'''
        int main() {
          printf("%d|%5d|%-3d|", 42, 42, 7);
          printf("%f|%.3f|%e|", 1.5, 2.0/3.0, 1234.5);
          printf("%s|%c|%u|%%", "hi", 65, 9);
          return 0;
        }
        '''
        text = out(src)
        assert "42|   42|7  |" in text
        assert "0.667" in text
        assert "hi|A|9|%" in text

    def test_long_format(self):
        assert out('int main() { printf("%ld", 10); return 0; }') == "10"


class TestOffloadSemantics:
    def test_kernel_executes_on_device_copy(self):
        # Without map(to:), an alloc'd device array is zeros — the kernel
        # result must show that, proving kernels do not touch host data.
        src = """
        double a[4]; double r;
        int main() {
          for (int i = 0; i < 4; i++) a[i] = 100.0;
          #pragma omp target data map(alloc: a)
          {
            #pragma omp target
            for (int i = 0; i < 4; i++) a[i] += 1.0;
            #pragma omp target update from(a)
          }
          printf("%.0f", a[0]);
          return 0;
        }
        """
        # map(alloc:) gives the kernel zeroed device storage; the update
        # copies back zeros + 1, clobbering the host's 100s.
        assert out(src) == "1"

    def test_implicit_tofrom_per_kernel(self):
        src = """
        int a[8];
        int main() {
          #pragma omp target
          for (int i = 0; i < 8; i++) a[i] = i;
          #pragma omp target
          for (int i = 0; i < 8; i++) a[i] *= 2;
          printf("%d", a[7]);
          return 0;
        }
        """
        res = run(src)
        assert res.output == "14"
        assert res.stats.h2d_calls == 2  # one per kernel (Listing 2 waste)
        assert res.stats.d2h_calls == 2

    def test_data_region_eliminates_intermediate_copies(self):
        src = """
        int a[8];
        int main() {
          #pragma omp target data map(tofrom: a)
          {
            #pragma omp target
            for (int i = 0; i < 8; i++) a[i] = i;
            #pragma omp target
            for (int i = 0; i < 8; i++) a[i] *= 2;
          }
          printf("%d", a[7]);
          return 0;
        }
        """
        res = run(src)
        assert res.output == "14"
        assert res.stats.h2d_calls == 1
        assert res.stats.d2h_calls == 1

    def test_firstprivate_scalar_no_memcpy(self):
        src = """
        double a[4]; double scale;
        int main() {
          scale = 2.0;
          #pragma omp target map(tofrom: a) firstprivate(scale)
          for (int i = 0; i < 4; i++) a[i] = scale * i;
          printf("%.0f", a[3]);
          return 0;
        }
        """
        res = run(src)
        assert res.output == "6"
        # only the array moves: 1 HtoD + 1 DtoH
        assert res.stats.h2d_calls == 1
        assert res.stats.d2h_calls == 1

    def test_mapped_scalar_costs_memcpys(self):
        src = """
        double a[4]; double scale;
        int main() {
          scale = 2.0;
          #pragma omp target map(tofrom: a) map(to: scale)
          for (int i = 0; i < 4; i++) a[i] = scale * i;
          printf("%.0f", a[3]);
          return 0;
        }
        """
        res = run(src)
        assert res.output == "6"
        assert res.stats.h2d_calls == 2  # array + scalar

    def test_firstprivate_write_is_private(self):
        src = """
        int a[4]; int t;
        int main() {
          t = 5;
          #pragma omp target map(tofrom: a) firstprivate(t)
          for (int i = 0; i < 4; i++) { t = t + 1; a[i] = t; }
          printf("%d %d", t, a[0]);
          return 0;
        }
        """
        res = run(src)
        host_t, a0 = res.output.split()
        assert host_t == "5"  # host copy untouched
        assert int(a0) >= 6

    def test_reduction_scalar(self):
        src = """
        double a[16];
        int main() {
          for (int i = 0; i < 16; i++) a[i] = 1.0;
          double sum = 0.0;
          #pragma omp target teams distribute parallel for reduction(+: sum) map(to: a)
          for (int i = 0; i < 16; i++) sum += a[i];
          printf("%.0f", sum);
          return 0;
        }
        """
        res = run(src)
        assert res.output == "16"
        assert res.stats.d2h_calls == 0  # reduction travels as kernel arg

    def test_update_to_refreshes_device(self):
        src = """
        int a[4]; int r;
        int main() {
          #pragma omp target data map(tofrom: a)
          {
            #pragma omp target
            for (int i = 0; i < 4; i++) a[i] = 1;
            #pragma omp target update from(a)
            for (int i = 0; i < 4; i++) a[i] += 10;
            #pragma omp target update to(a)
            #pragma omp target
            for (int i = 0; i < 4; i++) a[i] *= 2;
          }
          printf("%d", a[0]);
          return 0;
        }
        """
        assert out(src) == "22"

    def test_kernel_launch_counted(self):
        src = """
        int a[4];
        int main() {
          for (int t = 0; t < 5; t++) {
            #pragma omp target
            for (int i = 0; i < 4; i++) a[i] += 1;
          }
          return 0;
        }
        """
        assert run(src).stats.kernel_launches == 5

    def test_pointer_into_mapped_array(self):
        src = """
        int main() {
          double *p = (double *)malloc(8 * sizeof(double));
          for (int i = 0; i < 8; i++) p[i] = i;
          #pragma omp target
          for (int i = 0; i < 8; i++) p[i] *= 3.0;
          printf("%.0f", p[7]);
          free(p);
          return 0;
        }
        """
        assert out(src) == "21"

    def test_omp_get_wtime_monotonic(self):
        src = """
        int a[64];
        int main() {
          double t0 = omp_get_wtime();
          #pragma omp target
          for (int i = 0; i < 64; i++) a[i] = i;
          double t1 = omp_get_wtime();
          printf("%d", t1 > t0);
          return 0;
        }
        """
        assert out(src) == "1"


class TestCompileOnFirstUse:
    """Kernels and ``for`` loops compile when they first execute, and
    only the parts that run: a kernel that never launches costs nothing,
    and a vectorized kernel or host loop never builds its interpreted
    form."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        """Runs a program and records what it compiled: statements,
        kernel and host-loop candidate sets, and kernel launch plans."""
        from repro.frontend import ast_nodes as A
        from repro.frontend.parser import parse_source
        from repro.runtime import launch, vectorize
        from repro.runtime.interp import Interpreter

        seen = {"stmt": [], "kernel": [], "host": [], "plan": []}

        def spy(record, original):
            # Records the statement of ``f(interp, stmt)`` or the
            # keywords of ``KernelLaunchPlan(**kw)``.
            def wrapper(*args, **kwargs):
                record.append(args[1] if args else kwargs)
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            Interpreter, "_compile_stmt", spy(seen["stmt"], Interpreter._compile_stmt)
        )
        for key, attr in (
            ("kernel", "compile_kernel_candidates"),
            ("host", "compile_host_loop_candidates"),
        ):
            monkeypatch.setattr(vectorize, attr, spy(seen[key], getattr(vectorize, attr)))
        monkeypatch.setattr(
            launch, "KernelLaunchPlan", spy(seen["plan"], launch.KernelLaunchPlan)
        )

        def run_program(src, **kw):
            tu = parse_source(src, "t.c")
            interp = Interpreter(tu, **kw)
            result = interp.run()
            kernels = [
                n for n in tu.preorder()
                if isinstance(n, A.OMPExecutableDirective) and n.is_offload_kernel
            ]
            loops = [
                n for n in tu.preorder()
                if isinstance(n, A.ForStmt)
                and not any(k.walk_index < n.walk_index < k.walk_end for k in kernels)
            ]
            return result, kernels, loops, seen

        return run_program

    @pytest.mark.parametrize("vectorize", [True, False])
    def test_kernel_that_never_launches_compiles_nothing(self, compiled, vectorize):
        src = """
        int flag = 0;
        double a[16];
        int main() {
          if (flag) {
            #pragma omp target teams distribute parallel for
            for (int i = 0; i < 16; i++) { a[i] = i; }
          }
          printf("%.1f\\n", a[3]);
          return 0;
        }
        """
        result, (kernel,), _, seen = compiled(src, vectorize=vectorize)
        assert result.output == "0.0\n"
        assert result.stats.kernel_launches == 0
        assert seen["plan"] == []
        assert kernel not in seen["kernel"]
        assert kernel.associated_stmt not in seen["stmt"]

    @pytest.mark.parametrize("vectorize", [True, False])
    def test_kernel_builds_once_and_runs_its_body_only_interpreted(
        self, compiled, vectorize
    ):
        src = """
        double a[16];
        int main() {
          for (int t = 0; t < 3; t++) {
            #pragma omp target teams distribute parallel for
            for (int i = 0; i < 16; i++) { a[i] = a[i] + i * 0.5; }
          }
          printf("%.1f\\n", a[3]);
          return 0;
        }
        """
        result, (kernel,), _, seen = compiled(src, vectorize=vectorize)
        assert result.output == "4.5\n"
        assert result.stats.kernel_launches == 3
        assert len(seen["plan"]) == 1
        assert seen["kernel"].count(kernel) == (1 if vectorize else 0)
        body_compiles = seen["stmt"].count(kernel.associated_stmt)
        if vectorize:
            assert result.strategy_launches == {"codegen": 3}
            assert body_compiles == 0
        else:
            assert result.strategy_launches == {"interpreter": 3}
            assert body_compiles == 1

    def test_vectorized_host_loop_never_compiles_its_interpreted_parts(
        self, compiled
    ):
        src = """
        int flag = 0;
        double a[16];
        void fill(double s) { for (int i = 0; i < 16; i++) { a[i] = i * s; } }
        int main() {
          fill(0.5);
          fill(2.0);
          if (flag) {
            for (int i = 0; i < 16; i++) { a[i] = 0.0; }
          }
          printf("%.1f\\n", a[3]);
          return 0;
        }
        """
        result, _, (filled, skipped), seen = compiled(src)
        assert result.output == "6.0\n"
        assert seen["host"].count(filled) == 1
        assert filled.init not in seen["stmt"]
        assert filled.body not in seen["stmt"]
        assert skipped not in seen["host"]
        assert skipped.init not in seen["stmt"]
        assert skipped.body not in seen["stmt"]

    def test_recursive_reentry_compiles_the_loop_once(self, compiled):
        src = """
        int count(int n) {
          int s = 1;
          for (int i = 0; i < n; i++) { s += count(i); }
          return s;
        }
        int main() { printf("%d\\n", count(4)); return 0; }
        """
        result, _, (loop,), seen = compiled(src)
        assert result.output == "16\n"
        assert seen["host"].count(loop) == 1
        assert seen["stmt"].count(loop.body) == 1

    @pytest.mark.parametrize(
        "loop",
        [
            "#pragma omp target teams distribute parallel for\n"
            "for (int i = 0; i < 16; i++) { a[i] = mystery(i); }",
            "for (int i = 0; i < 16; i++) { a[i] = mystery(i); }",
        ],
        ids=["kernel", "host-loop"],
    )
    def test_a_failed_compile_fails_again_on_the_next_run(self, loop):
        from repro.frontend.parser import parse_source
        from repro.runtime.interp import Interpreter

        src = f"""
        double a[16];
        int main() {{
          printf("before\\n");
          {loop}
          return 0;
        }}
        """
        interp = Interpreter(parse_source(src, "t.c"))
        for attempt in (1, 2):
            with pytest.raises(SimulationError, match="unknown function 'mystery'"):
                interp.run()
            # Reported when the statement first executes, after what
            # ran before it, and nothing is left half-built.
            assert "".join(interp.machine.stdout) == "before\n" * attempt
            assert interp._compiling_kernel is False

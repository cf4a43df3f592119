"""Tests for the instrumentation substrate: images, snippets, mutator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dyninst import (
    AddCounter,
    Arg,
    BinOp,
    BuiltinCall,
    Const,
    CounterVar,
    ExprStmt,
    If,
    Image,
    ImageError,
    InstrumentationError,
    Mutator,
    ProcTimerVar,
    ReturnValue,
    SetCounter,
    Snippet,
    StartTimer,
    StopTimer,
    VarValue,
    WallTimerVar,
)
from repro.sim.kernel import Kernel
from repro.sim.node import Cluster
from repro.sim.process import SimProcess


def _gen(result=None):
    def body(proc, *args):
        if False:
            yield
        return result

    return body


def make_proc():
    kernel = Kernel()
    cluster = Cluster(num_nodes=1, cpus_per_node=1)
    node = cluster.nodes[0]
    proc = SimProcess(kernel, Image(), pid=1, node=node, cpu=node.cpus[0])
    return kernel, proc


class TestImage:
    def test_strong_symbols_resolve(self):
        image = Image()
        fn = image.add_function("f", _gen(), module="m.c")
        assert image.resolve("f") is fn
        assert image.lookup("nope") is None
        with pytest.raises(ImageError):
            image.resolve("nope")

    def test_duplicate_strong_symbol_rejected(self):
        image = Image()
        image.add_function("f", _gen())
        with pytest.raises(ImageError):
            image.add_function("f", _gen())

    def test_weak_alias_resolution(self):
        """Default MPICH build: MPI_Send resolves to PMPI_Send."""
        image = Image()
        strong = image.add_function("PMPI_Send", _gen(), module="libmpich.so")
        image.add_weak_alias("MPI_Send", "PMPI_Send")
        assert image.resolve("MPI_Send") is strong
        assert image.defines("MPI_Send")

    def test_weak_alias_to_undefined_rejected(self):
        image = Image()
        with pytest.raises(ImageError):
            image.add_weak_alias("MPI_Send", "PMPI_Send")

    def test_strong_definition_beats_weak_alias(self):
        image = Image()
        image.add_function("PMPI_Send", _gen(), module="libmpich.so")
        image.add_weak_alias("MPI_Send", "PMPI_Send")
        wrapper = image.add_function("MPI_Send", _gen(), module="profiling.so")
        assert image.resolve("MPI_Send") is wrapper

    def test_interpose_replaces_existing_symbol(self):
        """The PMPI profiling-library trick (Section 4.2.2)."""
        image = Image()
        image.add_function("MPI_Comm_spawn", _gen("orig"), module="liblam.so")
        wrapper = image.interpose("MPI_Comm_spawn", _gen("wrapped"))
        assert image.resolve("MPI_Comm_spawn") is wrapper

    def test_tag_queries_and_app_functions(self):
        image = Image()
        image.add_function("mpi_fn", _gen(), module="libmpi.so", system=True, tags={"mpi"})
        app = image.add_function("app_fn", _gen(), module="app.c", tags={"app"})
        assert image.functions_tagged("mpi")[0].name == "mpi_fn"
        assert image.app_functions() == [app]


# -- lazily linked library images ---------------------------------------------
#
# An image linking a shared template must answer every query exactly as an
# image built eagerly through add_function / add_weak_alias / interpose, in
# the same order, whatever was looked up first.

NAMES = [f"f{i}" for i in range(8)]
LIB_MODULES = ["libmpi.so", "libc.so"]
TAGS = st.frozensets(st.sampled_from(["mpi", "sync", "io"]), max_size=2)

#: one library build step: a function in one of the library modules, or a
#: weak alias to a name (the step fails in both images when it is invalid)
LIB_STEP = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(NAMES),
              st.sampled_from(LIB_MODULES), TAGS),
    st.tuples(st.just("alias"), st.sampled_from(NAMES), st.sampled_from(NAMES)),
)
#: what the process image does after linking: its own functions, PMPI-style
#: interposition (over library symbols too), weak aliases, and lookups
APP_STEP = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(NAMES + ["main", "work"]),
              st.sampled_from(["app.c", "libc.so"]), TAGS),
    st.tuples(st.just("interpose"), st.sampled_from(NAMES),
              st.sampled_from(["libwrap.so", "libmpi.so"]), TAGS),
    st.tuples(st.just("alias"), st.sampled_from(NAMES + ["main"]),
              st.sampled_from(NAMES + ["main"])),
    st.tuples(st.just("touch"), st.sampled_from(["resolve", "lookup_strong"]),
              st.sampled_from(NAMES + ["main", "nope"])),
)
BODIES = {name: _gen(name) for name in NAMES + ["main", "work"]}


def _apply(image, step):
    """Run one build step; the outcome (error class or returned name)."""
    kind = step[0]
    try:
        if kind == "add":
            _, name, module, tags = step
            image.add_function(name, BODIES[name], module=module,
                               system=module != "app.c", tags=tags)
        elif kind == "interpose":
            _, name, module, tags = step
            image.interpose(name, BODIES[name], module=module, tags=tags)
        elif kind == "alias":
            image.add_weak_alias(step[1], step[2])
        else:
            fn = getattr(image, step[1])(step[2])
            return None if fn is None else fn.name
    except ImageError:
        return "ImageError"
    return None


def _sig(fn):
    return (fn.name, fn.module.name, fn.module.system, fn.body, fn.tags)


def _view(image, order):
    """Every query of the image, asked in ``order``, as comparable values."""
    names = NAMES + ["main", "work", "nope"]

    def lookups():
        return [
            (image.lookup(n) and _sig(image.lookup(n)),
             image.lookup_strong(n) and _sig(image.lookup_strong(n)),
             image.defines(n))
            for n in names
        ]

    queries = {
        "lookups": lookups,
        "tagged": lambda: [[_sig(fn) for fn in image.functions_tagged(tag)]
                           for tag in ("mpi", "sync", "io")],
        "app": lambda: [_sig(fn) for fn in image.app_functions()],
        "table": image.symbol_table,
        "functions": lambda: [_sig(fn) for fn in image.functions()],
        "modules": lambda: [
            (mod.name, mod.system, [(n, _sig(fn)) for n, fn in mod.functions.items()])
            for mod in image.modules.values()
        ],
    }
    return {key: queries[key]() for key in order}


QUERIES = ["lookups", "tagged", "app", "table", "functions", "modules"]


@settings(max_examples=200, deadline=None)
@given(st.lists(LIB_STEP, max_size=12), st.lists(APP_STEP, max_size=12),
       st.permutations(QUERIES))
def test_lazy_image_matches_eager(lib_steps, app_steps, order):
    template = Image("template")
    eager = Image("eager")
    for step in lib_steps:
        _apply(template, step)
        _apply(eager, step)
    lazy = Image("lazy")
    lazy.link_library(template)
    for step in app_steps:
        assert _apply(lazy, step) == _apply(eager, step), step
    seen = {}
    for name in NAMES + ["main"]:
        fn = lazy.lookup(name)
        if fn is not None:
            seen.setdefault(fn.name, fn)
    assert _view(lazy, order) == _view(eager, order)
    assert lazy.symbol_table() == [
        (fn.module.name, fn.name, fn.module.system, fn.tags) for fn in eager.functions()
    ]
    for mod in lazy.modules.values():
        assert all(fn.module is mod for fn in mod.functions.values())
    # each name is instantiated at most once, and never shares the
    # template's definition (whose instrumentation points every rank shares)
    for fn in lazy.functions():
        assert fn is not template.lookup_strong(fn.name)
        assert fn.module is lazy.modules[fn.module.name]
        if fn.name in seen:
            assert seen[fn.name] is fn


def test_lazy_image_instantiates_only_what_it_looks_up():
    template = Image("template")
    for name in NAMES:
        template.add_function(name, BODIES[name], module="libmpi.so",
                              system=True, tags={"mpi"})
    template.add_weak_alias("MPI_f0", "f0")
    image = Image()
    image.link_library(template)
    image.add_function("main", BODIES["main"], module="app.c")
    assert [row[1] for row in image.symbol_table()] == NAMES + ["main"]
    fn = image.resolve("MPI_f0")
    assert fn is image.resolve("f0") and fn is not template.resolve("f0")
    held = [f for f in image._symbols.values() if f.module is image._modules[f.module.name]]
    assert [f.name for f in held] == ["f0", "main"]
    assert len(list(image.functions())) == len(NAMES) + 1
    with pytest.raises(ImageError):
        image.link_library(template)


class TestVariables:
    def test_counter(self):
        _, proc = make_proc()
        c = CounterVar("c", initial=2.0)
        c.add(3)
        assert c.sample(proc) == 5.0
        c.set(1)
        assert c.sample(proc) == 1.0

    def test_wall_timer_accumulates(self):
        kernel, proc = make_proc()
        t = WallTimerVar("t")
        t.start(proc)
        kernel.now = 5.0
        t.stop(proc)
        assert t.sample(proc) == pytest.approx(5.0)

    def test_wall_timer_nests(self):
        kernel, proc = make_proc()
        t = WallTimerVar("t")
        t.start(proc)
        kernel.now = 1.0
        t.start(proc)  # nested start: no double counting
        kernel.now = 2.0
        t.stop(proc)
        kernel.now = 4.0
        t.stop(proc)
        assert t.sample(proc) == pytest.approx(4.0)

    def test_unmatched_stop_tolerated(self):
        """Instrumentation inserted mid-flight sees a stop without a start."""
        _, proc = make_proc()
        t = WallTimerVar("t")
        t.stop(proc)
        assert t.sample(proc) == 0.0

    def test_running_timer_samples_interpolated(self):
        kernel, proc = make_proc()
        t = WallTimerVar("t")
        t.start(proc)
        kernel.now = 3.0
        assert t.running
        assert t.sample(proc) == pytest.approx(3.0)

    def test_proc_timer_uses_cpu_clock(self):
        kernel, proc = make_proc()
        t = ProcTimerVar("t")
        t.start(proc)
        # wall time passes but no CPU accrues
        kernel.now = 10.0
        assert t.sample(proc) == pytest.approx(0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=12))
    def test_property_timer_never_exceeds_elapsed(self, gaps):
        kernel, proc = make_proc()
        t = WallTimerVar("t")
        for i, gap in enumerate(gaps):
            kernel.now += gap
            if i % 2 == 0:
                t.start(proc)
            else:
                t.stop(proc)
        assert 0.0 <= t.sample(proc) <= kernel.now + 1e-12


class TestSnippets:
    _seq = 0

    def _exec(self, snippet, proc, args=(), at_entry=True, return_value=None):
        from repro.sim.process import Frame

        TestSnippets._seq += 1
        frame = Frame(function=proc.image.add_function(f"f{TestSnippets._seq}", _gen()),
                      args=args, entry_time=0.0)
        frame.return_value = return_value
        snippet.execute(proc, frame, at_entry=at_entry)

    def test_arg_access_and_arithmetic(self):
        _, proc = make_proc()
        c = CounterVar("c")
        snippet = Snippet([AddCounter(c, BinOp("*", Arg(0), Arg(1)))])
        self._exec(snippet, proc, args=(6, 7))
        assert c.value == 42

    def test_arg_out_of_range_raises(self):
        _, proc = make_proc()
        c = CounterVar("c")
        snippet = Snippet([AddCounter(c, Arg(3))])
        with pytest.raises(InstrumentationError):
            self._exec(snippet, proc, args=(1,))

    def test_return_value_only_at_exit(self):
        _, proc = make_proc()
        c = CounterVar("c")
        snippet = Snippet([SetCounter(c, ReturnValue())])
        with pytest.raises(InstrumentationError):
            self._exec(snippet, proc, at_entry=True)
        self._exec(snippet, proc, at_entry=False, return_value=9)
        assert c.value == 9

    def test_guards_suppress_execution(self):
        _, proc = make_proc()
        flag = CounterVar("flag")
        c = CounterVar("c")
        snippet = Snippet([AddCounter(c, Const(1))], guards=(flag,))
        self._exec(snippet, proc)
        assert c.value == 0
        flag.set(1)
        self._exec(snippet, proc)
        assert c.value == 1

    def test_if_statement(self):
        _, proc = make_proc()
        c = CounterVar("c")
        snippet = Snippet([If(BinOp("==", Arg(0), Const(5)), (AddCounter(c, Const(1)),))])
        self._exec(snippet, proc, args=(4,))
        self._exec(snippet, proc, args=(5,))
        assert c.value == 1

    def test_builtin_dispatch(self):
        _, proc = make_proc()
        proc.instr_builtins = {"double_it": lambda p, f, x: 2 * x}
        c = CounterVar("c")
        snippet = Snippet([SetCounter(c, BuiltinCall("double_it", (Const(21),)))])
        self._exec(snippet, proc)
        assert c.value == 42

    def test_unknown_builtin_raises(self):
        _, proc = make_proc()
        snippet = Snippet([ExprStmt(BuiltinCall("missing"))])
        with pytest.raises(InstrumentationError):
            self._exec(snippet, proc)

    def test_var_value_reads_other_variable(self):
        _, proc = make_proc()
        a, b = CounterVar("a", initial=11.0), CounterVar("b")
        snippet = Snippet([SetCounter(b, VarValue(a))])
        self._exec(snippet, proc)
        assert b.value == 11.0

    def test_bad_operator_rejected(self):
        with pytest.raises(InstrumentationError):
            BinOp("%", Const(1), Const(2))


class TestMutator:
    def _image_with_fn(self):
        kernel, proc = make_proc()

        def fn(p):
            yield from p.compute(0.5)

        proc.image.add_function("fn", fn, module="app.c")
        return kernel, proc

    def test_insert_and_delete_roundtrip(self):
        kernel, proc = self._image_with_fn()
        mutator = Mutator(proc)
        handle = mutator.handle("test")
        counter = mutator.track_variable(handle, mutator.new_counter("c"))
        mutator.insert(handle, "fn", "entry", Snippet([AddCounter(counter, Const(1))]))

        def run_once():
            yield from proc.call("fn")

        kernel.spawn(run_once())
        kernel.run()
        assert counter.value == 1
        assert counter.var_id in proc.instr_vars
        mutator.delete(handle)
        assert counter.var_id not in proc.instr_vars
        assert not proc.image.resolve("fn").instrumented

        kernel2 = proc.kernel
        kernel2.spawn(run_once())
        kernel2.run()
        assert counter.value == 1  # removed: no more counting

    def test_insert_if_present_skips_missing(self):
        _, proc = self._image_with_fn()
        mutator = Mutator(proc)
        handle = mutator.handle()
        ok = mutator.insert_if_present(handle, "missing_fn", "entry", Snippet([]))
        assert not ok

    def test_catchup_executes_entry_snippet_for_live_frames(self):
        """Dyninst catch-up: timers on in-flight functions start immediately."""
        kernel, proc = self._image_with_fn()
        mutator = Mutator(proc)
        timer = mutator.new_wall_timer("t")

        def long_fn(p):
            yield from p.compute(10.0)

        proc.image.add_function("long_fn", long_fn, module="app.c")

        def body():
            yield from proc.call("long_fn")

        kernel.spawn(body())

        def instrument_mid_flight():
            handle = mutator.handle()
            mutator.insert(handle, "long_fn", "entry", Snippet([StartTimer(timer)]))
            mutator.insert(handle, "long_fn", "return", Snippet([StopTimer(timer)]))

        kernel.schedule(4.0, instrument_mid_flight)
        kernel.run()
        # inserted at t=4 while inside long_fn; accrues the remaining 6s
        assert timer.sample(proc) == pytest.approx(6.0)

    def test_double_delete_is_noop(self):
        _, proc = self._image_with_fn()
        mutator = Mutator(proc)
        handle = mutator.handle()
        mutator.insert(handle, "fn", "entry", Snippet([]))
        mutator.delete(handle)
        mutator.delete(handle)  # no error
        assert not handle.active

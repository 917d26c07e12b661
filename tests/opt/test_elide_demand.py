"""Demand-driven check elision agrees with the whole-module pass.

The engine proves a function the first time a runtime prepares it and
summarizes only the SCCs that function reaches
(:class:`repro.opt.elide.ModuleElision`).  These tests pin that against
the eager :func:`repro.opt.elide.run_module` over every function: each
prepared function carries the same ``elide``/``proven_nonnull`` marks,
the first bug report is the same, no unprepared function is proved, and
only SCCs reachable from prepared functions are summarized.

Each mode runs on its own copy of the linked module — libc cloned with
its marks cleared, the program re-parsed — so marks one mode (or another
test) leaves on the process-wide libc cannot leak into the other.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from repro import ir
from repro.analysis.interproc import driver
from repro.bench.harness import PROGRAMS, program_source
from repro.cache import CompilationCache
from repro.cfront import compile_source
from repro.core import SafeSulong
from repro.corpus.manifest import ENTRIES, by_name
from repro.gen.generator import GenConfig, choose_plant, generate
from repro.ir import instructions as inst
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.libc import include_dir, libc_module
from repro.opt import elide

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")

MAX_STEPS = 30_000_000
GEN_SEEDS = [0, 1, 2, 3]


def _cases():
    cases = []
    for entry in ENTRIES:
        cases.append(pytest.param(
            entry.name + ".c", entry.source,
            {"argv": entry.argv, "stdin": entry.stdin, "vfs": entry.vfs},
            id=entry.name))
    for name in PROGRAMS:
        cases.append(pytest.param(
            name + ".c", lambda name=name: program_source(name), {},
            id=name))
    for seed in GEN_SEEDS:
        config = GenConfig(plant=choose_plant(seed, "mixed"))
        cases.append(pytest.param(
            f"gen-{seed}.c",
            lambda seed=seed, config=config: generate(seed, config).source,
            {}, id=f"gen-{seed}"))
    return cases


@pytest.fixture(scope="module")
def eager_cache(tmp_path_factory):
    # The eager side reads libc's SCC summaries back from the analysis
    # tier after the first program; the demand side computes its own.
    return CompilationCache(str(tmp_path_factory.mktemp("elide-eager")))


def program_text(source, filename):
    # Compiled once and re-parsed per mode: the front end numbers static
    # functions process-wide, so two compiles would not share names.
    return print_module(compile_source(source, filename=filename,
                                       include_dirs=[include_dir()],
                                       defines={"__SAFE_SULONG__": "1"}))


def fresh_module(text, filename):
    """A linked module that shares no Function object with any other:
    libc's definitions are cloned with their marks cleared (``link``
    re-points every call at the clones), the program is re-parsed."""
    shared = libc_module()
    libc = ir.Module("libc")
    libc.globals = dict(shared.globals)
    libc.structs = dict(shared.structs)
    for name, function in shared.functions.items():
        if function.is_definition:
            function = ir.clone_function(function)
            for instruction in function.instructions():
                if isinstance(instruction, (inst.Load, inst.Store)):
                    instruction.elide = 0
                elif isinstance(instruction, inst.Gep):
                    instruction.proven_nonnull = False
        libc.functions[name] = function
    return libc.link(parse_module(text), name=filename)


def marks(function):
    return [(getattr(instruction, "elide", 0),
             getattr(instruction, "proven_nonnull", False))
            for instruction in function.instructions()]


def unmarked(function):
    return not any(elide or nonnull for elide, nonnull in marks(function))


def outcome(result):
    bug = result.bugs[0] if result.bugs else None
    return (str(bug) if bug else None,
            [name for name, _ in bug.stack] if bug else None,
            result.status, result.limit_exceeded, result.stdout)


@pytest.mark.parametrize("filename,source,run", _cases())
def test_demand_proofs_match_whole_module_pass(eager_cache, filename,
                                                source, run):
    text = program_text(source(), filename)
    lazy_module = fresh_module(text, filename)
    lazy = SafeSulong(elide_checks=True, max_steps=MAX_STEPS) \
        .run_module(lazy_module, **run)
    state = lazy_module._elision
    prepared = set(lazy.runtime.prepared)

    eager_module = fresh_module(text, filename)
    elide.run_module(eager_module, cache=eager_cache)
    # Everything is proved already: the runtime hook has nothing to do.
    elide.module_elision(eager_module).proved.update(eager_module.functions)
    eager = SafeSulong(elide_checks=True, max_steps=MAX_STEPS) \
        .run_module(eager_module, **run)

    assert outcome(lazy) == outcome(eager)
    assert prepared == set(eager.runtime.prepared)
    for name in prepared:
        assert marks(lazy_module.functions[name]) \
            == marks(eager_module.functions[name]), name
    # Only prepared functions are proved; the rest stay untouched.
    assert state.proved == prepared
    for name, function in lazy_module.functions.items():
        if name not in prepared:
            assert unmarked(function), name
    # Only the SCCs the prepared functions reach are summarized.
    callgraph = state.analysis.callgraph
    assert set(state.analysis.summaries) == callgraph.reachable(prepared)
    assert len(state.analysis.summaries) < len(callgraph.defined)


def test_demand_proofs_are_not_vacuous():
    module = fresh_module(program_text(program_source("nbody"), "nbody.c"),
                          "nbody.c")
    result = SafeSulong(elide_checks=True).run_module(module)
    assert result.status == 0
    proved = [module.functions[name] for name in result.runtime.prepared]
    assert sum(not unmarked(function) for function in proved) >= 3


def test_layer_boundaries_see_every_proof(monkeypatch):
    """A wrapper on ``elide.run_module`` / ``driver.module_summaries``
    (the per-layer trace installs exactly these) observes each proof."""
    calls = {"run_module": [], "module_summaries": 0}
    run_module = elide.run_module
    module_summaries = driver.module_summaries

    def traced_run_module(*args, **kwargs):
        calls["run_module"].append(
            [function.name for function in kwargs["functions"]])
        return run_module(*args, **kwargs)

    def traced_summaries(*args, **kwargs):
        calls["module_summaries"] += 1
        return module_summaries(*args, **kwargs)

    monkeypatch.setattr(elide, "run_module", traced_run_module)
    monkeypatch.setattr(driver, "module_summaries", traced_summaries)
    engine = SafeSulong(elide_checks=True)
    module = engine.compile(program_source("fasta"), filename="fasta.c")
    result = engine.run_module(module)
    assert result.status == 0
    proved = sorted(name for (name,) in calls["run_module"])
    assert proved == sorted(result.runtime.prepared)
    assert calls["module_summaries"] == len(proved)
    # A second engine on the same linked module reuses its proofs.
    again = SafeSulong(elide_checks=True).run_module(module)
    assert again.stdout == result.stdout
    assert len(calls["run_module"]) == len(proved)


IN_PROCESS = ["uaf_queue_pop", "stack_rle_write", "uaf_queue_pop"]

_FRESH_CHILD = """
import json, sys
from repro.core import SafeSulong
from repro.corpus.manifest import by_name
entry = by_name(sys.argv[1])
engine = SafeSulong(elide_checks=True)
module = engine.compile(entry.source(), filename=entry.name + ".c")
result = engine.run_module(module, argv=entry.argv, stdin=entry.stdin,
                           vfs=entry.vfs)
state = module._elision
print(json.dumps({"proved": list(state.proved),
                  "summarized": list(state.analysis.summaries),
                  "bug": str(result.bugs[0]) if result.bugs else None}))
"""


def _stable(names):
    # Static functions are numbered process-wide (``f.static.N``).
    return sorted(re.sub(r"\.static\.\d+$", ".static", name)
                  for name in names)


def _in_fresh_process(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.run([sys.executable, "-c", _FRESH_CHILD, name],
                           env=env, capture_output=True, text=True,
                           timeout=240, check=True)
    return json.loads(child.stdout)


def test_programs_sharing_one_process_prove_what_fresh_ones_do():
    """The shared libc keeps no proof state of its own: every linked
    module starts from an empty memo, so a program run after another in
    the same process proves and summarizes exactly what it would alone
    (and still reports its bug)."""
    fresh = {name: _in_fresh_process(name) for name in set(IN_PROCESS)}
    engine = SafeSulong(elide_checks=True)
    for name in IN_PROCESS:
        entry = by_name(name)
        module = engine.compile(entry.source(), filename=name + ".c")
        result = engine.run_module(module, argv=entry.argv,
                                   stdin=entry.stdin, vfs=entry.vfs)
        assert result.bugs and result.bugs[0].kind == entry.category
        assert str(result.bugs[0]) == fresh[name]["bug"]
        state = module._elision
        assert _stable(state.proved) == _stable(fresh[name]["proved"])
        assert _stable(state.analysis.summaries) \
            == _stable(fresh[name]["summarized"])

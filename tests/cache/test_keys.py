"""Cache-key correctness: anything that can change the produced code
must change the key (or fail the manifest) and force a recompile.
"""

import pytest

from repro.cache import CompilationCache
from repro.cache import jitcache, prepare
from repro.core import SafeSulong
from repro.opt.elide import module_elision

HEADER_TEMPLATE = "#define VALUE {value}\n"
SOURCE_WITH_INCLUDE = '#include "config.h"\nint value(void) { return VALUE; }\n'


def _cache(tmp_path) -> CompilationCache:
    # Direct construction (not resolve_cache): each test gets a private
    # store with an empty in-memory tier.
    return CompilationCache(str(tmp_path / "cache"))


def test_include_edit_forces_recompile(tmp_path):
    include_dir = tmp_path / "include"
    include_dir.mkdir()
    header = include_dir / "config.h"
    header.write_text(HEADER_TEMPLATE.format(value=1234567))
    cache = _cache(tmp_path)

    from repro.ir.printer import print_module
    module = cache.compile_source(SOURCE_WITH_INCLUDE,
                                  filename="program.c",
                                  include_dirs=[str(include_dir)])
    assert "1234567" in print_module(module)
    assert cache.stats.misses == 1 and cache.stats.stores == 1

    # Unchanged header: hit, no recompile.
    cache.compile_source(SOURCE_WITH_INCLUDE, filename="program.c",
                         include_dirs=[str(include_dir)])
    assert cache.stats.hits == 1

    # Edited header, identical source text: the manifest check must
    # miss and the recompiled module must see the new macro.
    header.write_text(HEADER_TEMPLATE.format(value=7654321))
    module = cache.compile_source(SOURCE_WITH_INCLUDE,
                                  filename="program.c",
                                  include_dirs=[str(include_dir)])
    assert "7654321" in print_module(module)
    assert cache.stats.misses == 2


def test_include_edit_misses_across_processes(tmp_path):
    # Same scenario through the disk tier (fresh store = new process).
    include_dir = tmp_path / "include"
    include_dir.mkdir()
    header = include_dir / "config.h"
    header.write_text(HEADER_TEMPLATE.format(value=1234567))
    _cache(tmp_path).compile_source(SOURCE_WITH_INCLUDE,
                                    filename="program.c",
                                    include_dirs=[str(include_dir)])

    header.write_text(HEADER_TEMPLATE.format(value=7654321))
    cache = _cache(tmp_path)
    from repro.ir.printer import print_module
    module = cache.compile_source(SOURCE_WITH_INCLUDE,
                                  filename="program.c",
                                  include_dirs=[str(include_dir)])
    assert "7654321" in print_module(module)
    assert cache.stats.misses == 1 and cache.stats.hits == 0


SOURCE_LOOP = """
#include <stdio.h>
int sum(int n) {
    int data[8];
    for (int i = 0; i < 8; i++) data[i] = i;
    int total = 0;
    for (int i = 0; i < n; i++) total += data[i % 8];
    return total;
}
int main(void) {
    int total = 0;
    for (int i = 0; i < 20; i++) total += sum(i);
    printf("%d\\n", total);
    return 0;
}
"""


def _some_function(tmp_path, elide: bool):
    cache = _cache(tmp_path)
    engine = SafeSulong(cache=cache, elide_checks=elide)
    module = engine.compile(SOURCE_LOOP, filename="keys.c")
    function = next(f for f in module.functions.values()
                    if f.name == "sum" and f.blocks)
    if elide:
        module_elision(module, cache=cache).prove(function)
        assert any(getattr(i, "elide", 0) for i in function.instructions())
    return function


def test_elision_annotations_change_keys(tmp_path):
    function = _some_function(tmp_path, elide=True)
    assert jitcache.elide_digest(function, True) != "off"
    assert jitcache.jit_key(function, True, False) \
        != jitcache.jit_key(function, False, False)
    assert prepare.prepare_key(function, True) \
        != prepare.prepare_key(function, False)


def test_counting_flag_changes_jit_key(tmp_path):
    # Observer-instrumented codegen emits counter bumps: a cached
    # artifact from a counting run must not serve a non-counting run.
    function = _some_function(tmp_path, elide=False)
    assert jitcache.jit_key(function, False, True) \
        != jitcache.jit_key(function, False, False)


def test_codegen_version_bump_changes_keys(tmp_path, monkeypatch):
    function = _some_function(tmp_path, elide=False)
    old_jit = jitcache.jit_key(function, False, False)
    old_prepare = prepare.prepare_key(function, False)
    monkeypatch.setattr(jitcache, "CODEGEN_VERSION",
                        jitcache.CODEGEN_VERSION + 1)
    monkeypatch.setattr(prepare, "CODEGEN_VERSION",
                        prepare.CODEGEN_VERSION + 1)
    assert jitcache.jit_key(function, False, False) != old_jit
    assert prepare.prepare_key(function, False) != old_prepare


def test_different_source_text_different_frontend_key():
    from repro.cache.frontend import frontend_key
    base = frontend_key("int main(void){return 0;}", "a.c", None, None,
                        None)
    assert frontend_key("int main(void){return 1;}", "a.c", None, None,
                        None) != base
    assert frontend_key("int main(void){return 0;}", "b.c", None, None,
                        None) != base
    assert frontend_key("int main(void){return 0;}", "a.c", None,
                        {"X": "1"}, None) != base


@pytest.mark.parametrize("jit_threshold", [None, 2])
def test_warm_run_is_equivalent_and_all_hits(tmp_path, libc,
                                             jit_threshold):
    # Two engines, two stores over the same directory (the second sees
    # only the disk tier — a stand-in for a fresh process); outputs and
    # bug reports must match byte for byte, and the warm program
    # pipeline must be pure hits.
    source = """
    #include <stdio.h>
    #include <stdlib.h>
    int main(void) {
        int *p = malloc(8);
        for (int i = 0; i < 40; i++) p[0] += i;
        printf("v=%d\\n", p[0] + p[2]);
        return 0;
    }
    """
    cold = SafeSulong(cache=_cache(tmp_path), jit_threshold=jit_threshold)
    cold_result = cold.run_source(source, filename="warm.c")

    warm_cache = _cache(tmp_path)
    warm = SafeSulong(cache=warm_cache, jit_threshold=jit_threshold)
    warm_result = warm.run_source(source, filename="warm.c")

    assert warm_result.stdout == cold_result.stdout
    assert [str(bug) for bug in warm_result.bugs] \
        == [str(bug) for bug in cold_result.bugs]
    assert warm_result.status == cold_result.status
    assert warm_cache.stats.hits > 0
    assert warm_cache.stats.misses == 0
    assert warm_cache.stats.rejects == 0

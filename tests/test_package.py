"""The package root: its lazy namespace and the README's library quick start."""
import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

import twodist

PUBLIC = {
    "gegenbauer": "GegenbauerExpansion as_monomial from_gegenbauer gegenbauer_eval gegenbauer_poly "
                  "to_gegenbauer",
    "bound_polys": "CandidateBound DelsarteCheck InnerProductPair best_bound build_candidate "
                   "candidate_values candidates delsarte_check",
    "lrs": "KSlice ProfileSample TableRow b_k g_upper interval k_max k_slice omega_hat omega_hat_nk "
           "phi profile q_bound rho table",
    "constructions": "TwoDistanceCertificate UnitPointSet gram_check independence_rank lambda_params "
                     "lambda_set verify_two_distance",
}
README = Path(__file__).resolve().parent.parent / "README.md"
TRACER = README.parent / "bench" / "tracer.py"


def test_all_names_every_export_once():
    names = [name for names in PUBLIC.values() for name in names.split()]
    assert len(twodist.__all__) == len(set(twodist.__all__)) == 37
    assert set(twodist.__all__) == {"__version__", *names}


def test_exports_are_their_submodules_objects():
    for module, names in PUBLIC.items():
        source = importlib.import_module(f"twodist.{module}")
        for name in names.split():
            assert getattr(twodist, name) is getattr(source, name), name
    namespace = {}
    exec("from twodist import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(twodist.__all__)
    assert set(twodist.__all__) | set(PUBLIC) <= set(dir(twodist))


def test_exports_follow_a_patched_submodule(monkeypatch):
    import twodist.lrs as lrs

    def patched(*args):
        return "patched"

    monkeypatch.setattr(lrs, "table", patched)
    assert twodist.table is patched
    monkeypatch.undo()
    assert twodist.table is lrs.table


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'tabel'"):
        twodist.tabel


def test_bare_import_loads_no_submodule_and_no_numpy():
    probe = (
        "import sys; eager = 'numpy' in sys.modules; import twodist; "
        f"print(eager, [m for m in ('numpy', *('twodist.' + s for s in {tuple(PUBLIC)!r})) if m in sys.modules]); "
        "print(twodist.lrs is sys.modules['twodist.lrs'], twodist.lrs.table is twodist.table)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded, resolved = proc.stdout.splitlines()
    if loaded.startswith("True"):
        assert loaded.endswith("['numpy']")
    else:
        assert loaded == "False []"
    assert resolved == "True True"


def test_readme_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", text, re.S)
    assert block, "README has no python block under 'Library quick start'"
    namespace = {}
    exec(compile(block.group(1), f"{README}:quick-start", "exec"), namespace)
    assert namespace["value"] == pytest.approx(276.0) and namespace["winners"] == (1, 4, 5)
    assert [row.n for row in namespace["rows"]] == list(range(7, 41))
    assert namespace["cert"].valid


def test_benchmark_hooks_resolve():
    # bench/tracer.py wraps each (module, function) of its TARGETS, and
    # bench/run.py calls k_slice.cache_clear and copies cache_info onto its
    # checkpoint hook: a library change that removes one of them makes a
    # traced benchmark run exit 1.
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, name in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(f"twodist.{module}"), name, None)), (module, name)
    k_slice = importlib.import_module("twodist.lrs").k_slice
    assert callable(k_slice.cache_clear) and callable(k_slice.cache_info)

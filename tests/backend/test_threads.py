"""The process-wide CPU budget (``repro.backend.threads``).

Thread counts are read back through the OpenBLAS ``get_num_threads``
symbols.  Import-time behavior is checked in fresh interpreters: the test
process already imported the package (and pinned BLAS) long ago.
"""

import json
import logging
import os
import subprocess
import sys
import threading

import pytest

from repro.backend import threads
from repro.cli import main
from repro.comm import SpmdSession
from repro.inla import DALIA
from repro.inla.bfgs import BFGSOptions
from repro.model.datasets import make_dataset

SRC = os.path.dirname(os.path.dirname(os.path.abspath(threads.__file__)))

#: Reads both copies' thread counts before and after ``import repro``,
#: through a stand-alone load of ``threads.py`` (which imports nothing of
#: the package).
_PROBE = f"""
import importlib.util, json, sys
import numpy, scipy.linalg
spec = importlib.util.spec_from_file_location("probe", {threads.__file__!r})
probe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(probe)
before = probe.blas_threads()
sys.path.insert(0, {SRC!r})
import repro
print(json.dumps([before, probe.blas_threads()]))
"""


def _fresh_import(**env_vars) -> tuple:
    env = {k: v for k, v in os.environ.items() if k not in threads.ENV_VARS}
    env.update(env_vars)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    before, after = json.loads(done.stdout.strip().splitlines()[-1])
    if None in before.values():
        pytest.skip("the bundled OpenBLAS copies are not present")
    return before, after


def _blas_job(comm):
    return threads.blas_threads()


class TestImportPin:
    def test_import_pins_both_copies_to_one_thread(self):
        _, after = _fresh_import()
        assert after == {"numpy": 1, "scipy": 1}

    def test_environment_variable_opts_out(self):
        before, after = _fresh_import(OPENBLAS_NUM_THREADS="2")
        assert after == before
        if threads.cpu_budget() >= 2:
            assert after == {"numpy": 2, "scipy": 2}

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_spmd_workers_run_pinned(self, start_method):
        if threads.env_override() is not None:
            pytest.skip("BLAS threading left to the environment")
        with SpmdSession(2, start_method=start_method) as session:
            counts = session.run(_blas_job)
        assert all(c == {"numpy": 1, "scipy": 1} for c in counts)


class TestMissingLibrary:
    @pytest.fixture
    def nowhere(self, monkeypatch):
        monkeypatch.setattr(threads, "_OPENBLAS", (
            ("numpy", "numpy.libs", "libnothing_*.so*", "scipy_openblas_{}_num_threads64_"),
            ("scipy", "scipy.libs", "libscipy_openblas-*.so*", "no_such_symbol_{}"),
        ))
        monkeypatch.setattr(threads, "_applied", False)
        for var in threads.ENV_VARS:
            monkeypatch.delenv(var, raising=False)

    def test_missing_library_or_symbol_is_a_no_op(self, nowhere, caplog):
        assert threads.blas_threads() == {"numpy": None, "scipy": None}
        with caplog.at_level(logging.INFO, logger=threads.__name__):
            threads.apply_budget()
        assert "numpy: not found, scipy: not found" in caplog.text

    def test_decision_logged_once(self, nowhere, caplog):
        with caplog.at_level(logging.INFO, logger=threads.__name__):
            threads.apply_budget()
            threads.apply_budget()
        assert len(caplog.records) == 1


def test_cli_backends_prints_budget_line(capsys):
    assert main(["backends"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("CPU budget")]
    assert len(lines) == 1
    line = lines[0]
    assert f"{threads.cpu_budget()} affinity cores" in line
    for lib, n in threads.blas_threads().items():
        assert f"{lib} {'not found' if n is None else n}" in line
    assert "env override:" in line


class TestEvaluatorExecutor:
    @pytest.fixture(scope="class")
    def model(self):
        return make_dataset(nv=1, ns=12, nt=3, nr=1, obs_per_step=20, seed=3)[0]

    @pytest.mark.parametrize("budget", [None, 8])
    def test_pooled_fit_starts_at_most_executor_width_threads(self, model, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(threads, "cpu_budget", lambda: budget)
        starts = []
        original = threading.Thread.start

        def counting_start(self):
            starts.append(self.name)
            return original(self)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        engine = DALIA(model, s1_workers=8, s2_parallel=True, batch_stencils=False)
        engine.fit(options=BFGSOptions(max_iter=10), compute_latent=False)
        ev = engine.evaluator
        assert ev.s1_width == min(8, max(1, threads.cpu_budget() // 2))
        # The executor is s1_width wide, or one S2 worker when that is 1.
        assert 1 <= len(starts) <= ev.s1_width, starts
        assert ev._pool is None  # fit() shut its executor down

"""Schema lint for ``.github/workflows/ci.yml``.

The repo has no way to execute GitHub Actions locally, so this test *is*
the actions-schema lint gate: it validates the workflow file against the
(subset of the) official workflow JSON schema the file uses, plus the
semantic invariants CI must keep — the tier-1 command of ``ROADMAP.md``,
the ``numpy``/``mock_device`` backend matrix over two python versions, and
the benchmark smoke job.  A malformed workflow therefore fails tier-1 on
this host before it ever reaches GitHub.
"""

import pathlib

import pytest

yaml = pytest.importorskip("yaml")
jsonschema = pytest.importorskip("jsonschema")

WORKFLOW = pathlib.Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"

# The subset of the github-workflow JSON schema
# (https://json.schemastore.org/github-workflow.json) that covers the
# constructs this repo's workflow uses.  Kept strict where it matters:
# every job needs runs-on + steps, every step needs run or uses, matrix
# values must be lists of scalars.
WORKFLOW_SCHEMA = {
    "type": "object",
    "required": ["on", "jobs"],
    "properties": {
        "name": {"type": "string"},
        "on": {
            "anyOf": [
                {"type": "string"},
                {"type": "array", "items": {"type": "string"}},
                {
                    "type": "object",
                    "additionalProperties": {
                        "anyOf": [
                            {"type": "null"},
                            {
                                "type": "object",
                                "properties": {
                                    "branches": {
                                        "type": "array",
                                        "items": {"type": "string"},
                                    }
                                },
                                "additionalProperties": True,
                            },
                        ]
                    },
                },
            ]
        },
        "env": {"type": "object"},
        "jobs": {
            "type": "object",
            "minProperties": 1,
            "patternProperties": {
                "^[a-zA-Z_][a-zA-Z0-9_-]*$": {
                    "type": "object",
                    "required": ["runs-on", "steps"],
                    "properties": {
                        "name": {"type": "string"},
                        "runs-on": {"type": "string"},
                        "continue-on-error": {"type": "boolean"},
                        "needs": {
                            "anyOf": [
                                {"type": "string"},
                                {"type": "array", "items": {"type": "string"}},
                            ]
                        },
                        "env": {
                            "type": "object",
                            "additionalProperties": {"type": ["string", "number", "boolean"]},
                        },
                        "strategy": {
                            "type": "object",
                            "properties": {
                                "fail-fast": {"type": "boolean"},
                                "matrix": {
                                    "type": "object",
                                    "additionalProperties": {
                                        "type": "array",
                                        "minItems": 1,
                                        "items": {"type": ["string", "number", "boolean"]},
                                    },
                                },
                            },
                        },
                        "steps": {
                            "type": "array",
                            "minItems": 1,
                            "items": {
                                "type": "object",
                                "anyOf": [{"required": ["run"]}, {"required": ["uses"]}],
                                "properties": {
                                    "name": {"type": "string"},
                                    "run": {"type": "string"},
                                    "uses": {"type": "string"},
                                    "with": {"type": "object"},
                                    "env": {"type": "object"},
                                },
                                "additionalProperties": False,
                            },
                        },
                    },
                    "additionalProperties": False,
                }
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


def _load_workflow() -> dict:
    doc = yaml.safe_load(WORKFLOW.read_text())
    # YAML 1.1 parses the bare key `on` as boolean True; normalize it back
    # so the schema sees what GitHub sees.
    if True in doc:
        doc["on"] = doc.pop(True)
    return doc


def _runs(doc) -> list:
    return [
        step["run"]
        for job in doc["jobs"].values()
        for step in job["steps"]
        if "run" in step
    ]


class TestWorkflowSchema:
    def test_exists(self):
        assert WORKFLOW.is_file(), "CI workflow missing"

    def test_schema_valid(self):
        jsonschema.validate(_load_workflow(), WORKFLOW_SCHEMA)

    def test_needed_jobs_exist(self):
        doc = _load_workflow()
        for job in doc["jobs"].values():
            needs = job.get("needs", [])
            needs = [needs] if isinstance(needs, str) else needs
            for n in needs:
                assert n in doc["jobs"], f"needs references unknown job {n!r}"

    def test_uses_pinned_actions(self):
        doc = _load_workflow()
        for job in doc["jobs"].values():
            for step in job["steps"]:
                if "uses" in step:
                    assert "@" in step["uses"], f"unpinned action {step['uses']!r}"


class TestWorkflowSemantics:
    """The commands CI runs are the ones this repo documents and tests."""

    def test_runs_tier1_command(self):
        roadmap = (WORKFLOW.parent.parent.parent / "ROADMAP.md").read_text()
        assert "python -m pytest -x -q" in roadmap  # the documented tier-1 line
        assert any("python -m pytest -x -q" in r for r in _runs(_load_workflow()))

    def test_single_kernel_path_matrix(self):
        """One production kernel path: no ``REPRO_BATCHED`` axis; the
        tier-1 matrix is numpy/mock_device x py3.11/3.12 (4 legs)."""
        doc = _load_workflow()
        tests = doc["jobs"]["tests"]
        matrix = tests["strategy"]["matrix"]
        assert "repro-batched" not in matrix
        assert "REPRO_BATCHED" not in tests["env"]
        assert "REPRO_BATCHED" not in WORKFLOW.read_text()
        assert sorted(matrix) == ["python-version", "repro-backend"]
        assert sorted(matrix["python-version"]) == ["3.11", "3.12"]
        assert sorted(matrix["repro-backend"]) == ["mock_device", "numpy"]

    def test_backend_matrix(self):
        """Tier-1 also runs under the mock device backend (ROADMAP item 1:
        the device execution path must be testable without a GPU)."""
        doc = _load_workflow()
        tests = doc["jobs"]["tests"]
        matrix = tests["strategy"]["matrix"]
        assert sorted(matrix["repro-backend"]) == ["mock_device", "numpy"], (
            "REPRO_BACKEND matrix incomplete"
        )
        assert tests["env"]["REPRO_BACKEND"] == "${{ matrix.repro-backend }}"

    def test_bench_smoke_job(self):
        doc = _load_workflow()
        runs = [
            step["run"] for step in doc["jobs"]["bench-smoke"]["steps"] if "run" in step
        ]
        assert any("--bench-smoke" in r for r in runs)
        assert any("bench_multirhs" in r for r in runs)
        assert any("bench_factor_reuse" in r for r in runs)
        assert any("bench_multitheta" in r for r in runs)
        assert any("bench_nongaussian" in r for r in runs)
        assert any("bench_assembly" in r for r in runs)
        assert any("bench_backend_transfers" in r for r in runs)
        assert any("bench_serving" in r for r in runs)
        # The end-to-end benchmark's self-test runs every workload's output
        # checks at reduced size, ahead of the perf gates.
        assert runs[1] == "python3 e2e_bench/run.py --self-test"

    def test_proc_backend_job(self):
        """The comm/structured suites must also run over real worker
        processes (REPRO_COMM=proc), with a short collective timeout so a
        hung rank fails the job loudly, plus the paired backend smoke
        gate of ``benchmarks/bench_comm_backends.py``."""
        doc = _load_workflow()
        job = doc["jobs"]["proc-backend"]
        assert job["env"]["REPRO_COMM"] == "proc"
        assert 0 < float(job["env"]["REPRO_COMM_TIMEOUT"]) <= 120
        runs = [s["run"] for s in job["steps"] if "run" in s]
        assert any("tests/comm" in r and "tests/structured" in r for r in runs)
        assert any("bench_comm_backends" in r for r in runs)

    def test_chaos_job(self):
        """The fault-injection suite runs over three schedule seeds (one
        matrix leg each, pinned via REPRO_CHAOS_SEED), repeats the chaos
        suites over real worker processes (REPRO_COMM=proc), and gates
        the serving fault-rate benchmark — the ISSUE 10 acceptance bar."""
        doc = _load_workflow()
        job = doc["jobs"]["chaos"]
        assert sorted(job["strategy"]["matrix"]["fault-seed"]) == ["0", "1", "2"]
        assert job["env"]["REPRO_CHAOS_SEED"] == "${{ matrix.fault-seed }}"
        assert 0 < float(job["env"]["REPRO_COMM_TIMEOUT"]) <= 120
        runs = [s["run"] for s in job["steps"] if "run" in s]
        assert any("tests/chaos" in r and "tests/test_faults.py" in r for r in runs)
        assert any("test_registry_failures" in r for r in runs)
        assert any("bench_serving" in r and "fault" in r for r in runs)
        proc_legs = [
            s for s in job["steps"] if s.get("env", {}).get("REPRO_COMM") == "proc"
        ]
        assert proc_legs and all("tests/chaos" in s["run"] for s in proc_legs)

    def test_pip_cache_enabled(self):
        """Every python setup caches pip (keyed on pyproject.toml)."""
        doc = _load_workflow()
        for name, job in doc["jobs"].items():
            for step in job["steps"]:
                if step.get("uses", "").startswith("actions/setup-python"):
                    with_ = step.get("with", {})
                    assert with_.get("cache") == "pip", f"no pip cache in {name!r}"
                    assert with_.get("cache-dependency-path") == "pyproject.toml"

    def test_lint_job_first(self):
        doc = _load_workflow()
        jobs = doc["jobs"]
        assert "lint" in jobs
        lint_runs = " ".join(s.get("run", "") for s in jobs["lint"]["steps"])
        assert "ruff check" in lint_runs and "ruff format --check" in lint_runs
        # Every other job gates on lint, making it the first CI stage.
        for name, job in jobs.items():
            if name == "lint":
                continue
            needs = job.get("needs", [])
            needs = [needs] if isinstance(needs, str) else needs
            assert "lint" in needs, f"job {name!r} does not gate on lint"

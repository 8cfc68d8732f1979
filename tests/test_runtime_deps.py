"""The runtime needs numpy, click and orjson only; scipy is the tests' oracle."""

import subprocess
import sys
import textwrap

from conftest import subprocess_env

# A child process whose import system refuses scipy and records every attempt,
# so that an import caught by ``except ImportError`` still shows.
RUN_WITHOUT_SCIPY = textwrap.dedent("""\
    import sys

    refused = []

    class RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                refused.append(name)
                raise ImportError(f"scipy is refused here: {name}")
            return None

    sys.meta_path.insert(0, RefuseScipy())

    import arousalkit.cli  # the console script's module imports every stage
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, f"import arousalkit.cli loaded {loaded}"

    from arousalkit.pipeline import run_demo
    table = run_demo(sys.argv[1], n_issues=120, seed=5)
    assert any(cell is not None for cell in table.cells.values()), "no cell was filled"
    assert not refused, f"scipy imports were attempted: {refused}"
    print("ran without scipy")
""")


def test_demo_runs_with_scipy_refused(tmp_path):
    result = subprocess.run([sys.executable, "-c", RUN_WITHOUT_SCIPY, str(tmp_path / "demo")],
                            env=subprocess_env(), capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().endswith("ran without scipy")
    assert (tmp_path / "demo" / "eval_p.csv").is_file()

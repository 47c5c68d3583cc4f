"""Golden CLI outputs: a refactor must leave them byte-identical.

Each case runs one command on one product from golden/configs.json and
compares the exit code, stdout and stderr with golden/<product>.<command>.txt.
The products cover all four factor kinds, m = 2 and m = 3, both signs of
Psi(theta-bar) and its zero (the critical tuned Z7*Z8, phase case F), the
degenerate C2*C2 and an explicit factor with a singularity descriptor.  A change that is meant to move a number rewrites
the files with

    PYTHONPATH=src python tests/test_golden.py

and lists the difference.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from fprw import cli

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = json.loads((GOLDEN / "configs.json").read_text())
COMMANDS = {
    "analyze": ["analyze"],
    "series": ["series", "--order", "200"],
    "phase": ["phase", "--grid", "64"],
    "simulate": ["simulate", "--steps", "12", "--walks", "2000"],
}
CASES = [(name, command) for name in CONFIGS for command in COMMANDS]


def run_case(name: str, command: str, workdir: Path, config=None) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(config or CONFIGS[name]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*COMMANDS[command], "--config", str(path)])
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("name,command", CASES, ids=[f"{n}.{c}" for n, c in CASES])
def test_golden_output(tmp_path, name, command):
    want = (GOLDEN / f"{name}.{command}.txt").read_text()
    assert run_case(name, command, tmp_path) == want


def test_analyze_and_phase_do_not_depend_on_what_ran_before(tmp_path):
    # each root search keeps its own solved pairs (`factors.invert_w`), and
    # every cache holds pure values: products over the same factors at
    # other weights first, then the golden cases in reverse order, all in
    # one process, print what the golden files hold
    for name, config in CONFIGS.items():
        run_case(f"{name}-other", "analyze", tmp_path, dict(config, weights=config["weights"][::-1]))
    for name, command in reversed([case for case in CASES if case[1] in ("analyze", "phase")]):
        assert run_case(name, command, tmp_path) == (GOLDEN / f"{name}.{command}.txt").read_text()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, command in CASES:
            (GOLDEN / f"{name}.{command}.txt").write_text(run_case(name, command, Path(tmp)))

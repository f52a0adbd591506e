import os
import subprocess
import sys

import woodelf


def test_every_exported_name_resolves():
    missing = [name for name in woodelf.__all__ if not hasattr(woodelf, name)]
    assert missing == []
    assert len(set(woodelf.__all__)) == len(woodelf.__all__)


def _loaded_by(module: str, candidates: tuple[str, ...]) -> str:
    """Which of ``candidates`` a fresh process has loaded after importing
    ``module``, as the printed sorted list."""
    code = (f"import sys, {module}; "
            f"print(sorted(m for m in {candidates!r} if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(woodelf.__file__))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, timeout=60,
                            env=dict(os.environ, PYTHONPATH=src))
    return result.stdout.strip()


def test_import_woodelf_stays_lean():
    # ``import woodelf`` loads the pipeline only (the benchmark's ``setup_s``
    # times it); the CLI, its CSV writer, the oracles and the generators load
    # when asked for.
    assert _loaded_by("woodelf", ("woodelf.cli", "woodelf.csvtext", "woodelf.oracle",
                                  "woodelf.synth")) == "[]"


def test_import_woodelf_cli_leaves_oracle_and_synth_unloaded():
    # ``woodelf compute`` loads the oracles only for ``--verify``, and the
    # generators only for ``selftest``.
    assert _loaded_by("woodelf.cli", ("woodelf.oracle", "woodelf.synth")) == "[]"

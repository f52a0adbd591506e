import os
import subprocess
import sys

import woodelf


def test_every_exported_name_resolves():
    missing = [name for name in woodelf.__all__ if not hasattr(woodelf, name)]
    assert missing == []
    assert len(set(woodelf.__all__)) == len(woodelf.__all__)


def test_import_woodelf_stays_lean():
    # ``import woodelf`` loads the pipeline only (the benchmark's ``setup_s``
    # times it); the CLI, its CSV writer, the oracles and the generators load
    # when asked for.
    code = ("import sys, woodelf; print(sorted(m for m in ('woodelf.cli', "
            "'woodelf.csvtext', 'woodelf.oracle', 'woodelf.synth') if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(woodelf.__file__))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, timeout=60,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.stdout.strip() == "[]"

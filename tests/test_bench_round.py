"""One round of each benchmark workload at the default seed, every op judged
by the workload's own ``check``: its numpy oracle and the output digests in
``bench/expected.json``. So a change that alters CLI text or a fuzz summary
fails here, not first at benchmark time. Reads ``bench/`` and writes only to
a temporary directory.
"""

import sys
from pathlib import Path

import pytest

import roughmetric

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["tables", "analyze", "fuzz", "cli"])
def test_one_round_passes_its_own_check(name, tmp_path):
    wl = workloads.WORKLOADS[name](roughmetric, workloads.DEFAULT_SEED)
    wl.build()
    wl.prepare(tmp_path)
    ops = wl.DIGEST_OPS if name == "fuzz" else wl.round  # fuzz: every digest-checked op
    for i in range(ops):
        args = wl.inputs(i)
        assert wl.check(i, args, wl.run(args)) == ""

"""The CLI's reports stay byte-identical across refactors (see cli_sweep.py).

Where numpy, scipy, Python or the platform differ from the ones that
recorded the digests, floats may round differently, so the sweep is run
twice and the two runs must agree instead.  An intended output change
regenerates the digests with ``python tests/cli_sweep.py --write``.
"""

import cli_sweep


def test_cli_sweep_matches_recorded_digests():
    recorded = cli_sweep.load()
    got = cli_sweep.run_sweep()
    if recorded["environment"] == cli_sweep.environment():
        expected = recorded["invocations"]
    else:
        expected = cli_sweep.run_sweep()
    assert cli_sweep.differences(expected, got) == []

"""Byte-for-byte CLI outputs of the reduction commands.

``tests/data/cli_golden.json`` holds the records H1-H17 and the tight records
of ``torusrig gen --seed 3 --count 4 --grids 3x4``, and, for each record, the
stdout and exit code of ``torusrig tree -``, ``torusrig reduce -`` and
``torusrig certify - --validate`` as recorded before the reduction code was
simplified, and of ``torusrig rank -`` as recorded with the dense modular
elimination, before the rank went sparse and lazy.  Any refactor of the
reduction or of the rank must reproduce them exactly.

The ``reduce`` runs of H1, H4, H5, H7, H8, H10, H13 and gen3-3 were
re-recorded once a disc's walk was kept in its least rotation or reversal:
the leaf's collar is filled from that rotation, so its fresh vertex ids
moved.  Their moves, leaf graph and leaf walk (as a ``ClosedWalk``) are the
ones recorded before; every other run is unchanged.

The ``reduce`` runs of H1-H15, gen3-2 and gen3-3 were re-recorded again
once a refill became one fresh apex per run of distinct walk vertices
(n + 2m - 2 faces) instead of a 3n-face collar: the leaf's fresh faces and
vertex ids moved, its hole from 27 faces to 13 or 15.  Their moves, retained
faces, leaf graph, leaf walk (as a ``ClosedWalk``) and kept edges are the
ones recorded before; H16 and H17 are their own leaves, and every other run
is unchanged.
"""

import json
import pathlib

import pytest

from helpers import run_main

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("run", GOLDEN["runs"],
                         ids=lambda r: f"{r['record']}-{r['args'][0]}")
def test_cli_output_is_golden(run):
    code, out, _ = run_main(run["args"], GOLDEN["records"][run["record"]])
    assert (code, out) == (run["exit"], run["stdout"])

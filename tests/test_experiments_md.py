"""EXPERIMENTS.md's tables are the rows ``python -m repro experiments`` prints.

The message-size tables (E2's write bytes and gossip, E15's request, ack
and gossip sizes), E10's δ trade-off and E18's pooled δ-under-load table are
checked cell for cell against the registry's rows at their default
kwargs, so a change that moves a byte count, a message count or a
latency fails here until the table is regenerated.  A document cell is compared with the
CLI's own rendering of the value (``repro.harness.report``), ignoring
the spaces that group thousands ("1 072").
"""

import pathlib
import re

import pytest

from repro.harness.experiments import EXPERIMENTS
from repro.harness.report import _fmt

EXPERIMENTS_MD = pathlib.Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

#: Each checked table's columns, in the document's order, as row keys.
TABLE_COLUMNS = {
    "e02": (
        "n",
        "gossip_msgs_per_cycle",
        "loaded_gossip_per_cycle",
        "theory_n(n-1)",
        "gossip_bytes_each",
        "write_msgs",
        "write_bytes_each",
    ),
    "e10": ("delta", "snap_msgs", "snap_latency", "write_rate"),
    "e15": (
        "n",
        "nu_bytes",
        "write_msg_bytes",
        "write_ack_bytes",
        "gossip_msg_bytes",
    ),
    "e18": (
        "delta",
        "runs",
        "writes",
        "snapshots",
        "throughput",
        "write_p50",
        "snapshot_p50",
        "snapshot_p99",
        "snapshot_max",
        "linearizable",
    ),
}


def documented_table(experiment_id: str) -> list[list[str]]:
    """The body cells of the first table under ``## E<k> —``."""
    number = int(experiment_id[1:])
    text = EXPERIMENTS_MD.read_text()
    section = re.search(
        rf"^## E{number} —.*?(?=^## )", text, flags=re.MULTILINE | re.DOTALL
    )
    assert section, f"no E{number} section"
    lines = [line for line in section.group(0).splitlines() if line.startswith("|")]
    assert len(lines) > 2, f"no table under E{number}"
    rows = []
    for line in lines[2:]:  # the header and its |---| rule
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        rows.append([cell.replace(" ", "") for cell in cells])
    return rows


@pytest.mark.parametrize("experiment_id", sorted(TABLE_COLUMNS))
def test_table_matches_the_registry_rows(experiment_id):
    columns = TABLE_COLUMNS[experiment_id]
    expected = [
        [_fmt(row[key]) for key in columns]
        for row in EXPERIMENTS[experiment_id].runner()
    ]
    assert documented_table(experiment_id) == expected

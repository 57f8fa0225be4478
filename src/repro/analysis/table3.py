"""Table III: whole-file access overhead.

When the client fetches an entire file it additionally fetches the whole
modulation tree and derives every data key.  The paper defines

* the **communication overhead ratio**: tree bytes / file bytes, and
* the **computation overhead ratio**: key-derivation time / decryption
  time,

and finds both essentially independent of file size (< 1 % and < 0.3 %).

The communication ratio is a pure byte count and is computed exactly for
any ``n``.  The computation ratio is measured on real fetches at the
configured sizes; its numerator is ``3n-2`` short hashes and its
denominator ``n`` item decrypt-verifications, so the ratio is constant in
``n`` by construction -- the measurement confirms it and also exposes the
interpreter-constant skew discussed in EXPERIMENTS.md.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from repro.analysis.config import table3_grid
from repro.analysis.harness import build_dense_file
from repro.analysis.render import render_table
from repro.core.params import Params
from repro.protocol import messages as msg
from repro.sim.workload import PAPER_ITEM_SIZE


@dataclass
class Table3Row:
    n_items: int
    comm_ratio: float
    comp_ratio: float
    measured: bool


def exact_comm_ratio(n: int, item_size: int = PAPER_ITEM_SIZE,
                     params: Params | None = None) -> float:
    """Exact tree-bytes / file-bytes for an ``n``-item file.

    Tree bytes: ``(3n-2)`` modulators of one digest width (the wire
    framing adds a handful of fixed bytes, negligible and excluded as the
    paper excludes TCP framing).  File bytes: ``n`` ciphertexts.
    """
    params = params if params is not None else Params()
    width = params.modulator_size
    from repro.core.ciphertext import ItemCodec
    overhead = ItemCodec(params).overhead()
    tree_bytes = (3 * n - 2) * width
    file_bytes = n * (item_size + overhead)
    return tree_bytes / file_bytes


def measure_ratios(n: int, item_size: int = PAPER_ITEM_SIZE) -> Table3Row:
    """Fetch a real file once; split derivation time from decryption time.

    The computation ratio is the median over five timed rounds, after one
    untimed warm-up, so one slice of a busy host cannot decide it.
    """
    handle, _ids = build_dense_file(n, item_size, seed=f"tab3-{n}")
    client = handle.scheme.client
    master_key = handle.scheme._key()

    reply = client.channel.request(msg.FetchFileRequest(file_id=handle.file_id))
    assert isinstance(reply, msg.FetchFileReply)

    # Communication ratio from the exact encoded sizes.
    width = client.params.modulator_size
    tree_bytes = (len(reply.links) + len(reply.leaves)) * width
    file_bytes = sum(len(c) for c in reply.ciphertexts)
    comm_ratio = tree_bytes / file_bytes

    # Computation ratio: derive all keys, then decrypt everything.
    def one_round() -> float:
        start = time.perf_counter()
        outputs = client._derive_outputs(master_key, reply.n_leaves,
                                         reply.links, reply.leaves)
        derived = time.perf_counter()
        client.codec.decrypt_many(
            [outputs[reply.n_leaves + i] for i in range(reply.n_leaves)],
            list(reply.ciphertexts))
        return (derived - start) / (time.perf_counter() - derived)

    one_round()
    return Table3Row(n_items=n, comm_ratio=comm_ratio,
                     comp_ratio=statistics.median(
                         one_round() for _ in range(5)),
                     measured=True)


#: The paper's Table III: n -> (comm ratio, comp ratio).
PAPER_VALUES = {
    1000: (0.0076, 0.0029),
    10_000: (0.0077, 0.0029),
    100_000: (0.0077, 0.0028),
    1_000_000: (0.0077, 0.0028),
}


def run_table3(grid: list[int] | None = None,
               exact_grid: list[int] = (1000, 10_000, 100_000, 1_000_000),
               ) -> tuple[str, list[Table3Row]]:
    """Regenerate Table III; returns (rendered text, measured rows)."""
    grid = grid if grid is not None else table3_grid()
    rows: list[Table3Row] = [measure_ratios(n) for n in grid]

    rendered = []
    for n in exact_grid:
        measured = next((r for r in rows if r.n_items == n), None)
        paper_comm, paper_comp = PAPER_VALUES.get(n, (None, None))
        comm = measured.comm_ratio if measured else exact_comm_ratio(n)
        comm_cell = (f"{comm * 100:.2f}%"
                     + (f" (paper {paper_comm * 100:.2f}%)" if paper_comm else ""))
        if measured:
            comp_cell = (f"{measured.comp_ratio * 100:.2f}%"
                         + (f" (paper {paper_comp * 100:.2f}%)"
                            if paper_comp else ""))
        else:
            comp_cell = "size-independent; see measured rows"
        rendered.append([f"{n:,}", comm_cell, comp_cell,
                         "measured" if measured else "comm exact"])
    for row in rows:
        if row.n_items not in exact_grid:
            rendered.append([f"{row.n_items:,}",
                             f"{row.comm_ratio * 100:.2f}%",
                             f"{row.comp_ratio * 100:.2f}%", "measured"])

    table = render_table(
        "Table III -- whole-file access overhead ratios (vs paper)",
        ["n items", "comm ratio", "comp ratio", "source"], rendered)
    return table, rows

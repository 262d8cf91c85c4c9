"""The benchmark's traced run still finds and tags every attribute it wraps.

`perfbench/tracer.py` wraps program attributes by name and reads tags from
their arguments and results.  An attribute that is renamed, removed or
re-signatured is reported as absent or untagged, and `layer_metrics`
then drops its per-layer metrics: the traced run ends without them.  This
test runs one unit of each kind the benchmark traces under the tracer.
The tracer is read from its file and executed in a fresh module, so that
nothing is written under perfbench/.
"""

from __future__ import annotations

import json
import types
from pathlib import Path

from monotangle import monogamy, qstate, roof, tangle
from monotangle.qstate import haar_random_state
from monotangle.roof import RoofConfig, m_tangle_mixed
from monotangle.tangle import pure_functional_2q
from monotangle.wclass import wclass_random, wclass_state

from .conftest import random_mixed_2q

ROOT = Path(__file__).resolve().parents[1]

# the tracer's one stale target, which no program attribute backs
KNOWN_ABSENT = {"monogamy.mixed_tangle_term"}
# per-layer metrics that perfbench/worker.py adds itself, not the tracer
WORKER_METRICS = {"trace.overhead_pct", "cli.startup_s", "cli.row_ms_p50",
                  "cli.overhead_s", "cli.pool_efficiency"}


def load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


def test_traced_units_keep_every_listed_metric():
    tracing = load_tracer()
    tr = tracing.Tracer()
    tr.install({"monogamy": monogamy, "qstate": qstate, "roof": roof,
                "tangle": tangle})
    try:
        # a haar_sm unit: n = 4, hub 1, the workload's budget
        monogamy.sm_residual(haar_random_state(4, 1), 1,
                             RoofConfig(restarts=2, max_sweeps=1))
        # a cli_batch row: n = 3 at the CLI's default budget
        monogamy.sm_residual(haar_random_state(3, 2), 1,
                             RoofConfig(seed=3, restarts=32, padding=2))
        # n = 5 W-class SM, whose level-4 terms evaluate the m = 4 leaf
        monogamy.sm_residual(wclass_state(wclass_random(5, 4)), 1,
                             RoofConfig())
        # a small d = 2 search, which runs pair steps
        m_tangle_mixed(random_mixed_2q(5), 1, (2,), pure_functional_2q,
                       RoofConfig(restarts=1, max_sweeps=2))
    finally:
        tr.uninstall()
    assert set(tr.absent) <= KNOWN_ABSENT
    assert tr.untagged == set()
    assert "roof.pair_step" in tr.names
    assert 4 in {tag for name, tag in zip(tr.names, tr.tags)
                 if name == "tangle.leaf"}

    listed = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
    metrics = tracing.layer_metrics(tr, 4)
    assert listed - WORKER_METRICS <= set(metrics)
    # the hierarchy's level-2 terms run through the concurrence span
    assert metrics["tangle.concurrence.calls"][0] > 0

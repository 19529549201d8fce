#!/usr/bin/env python3
"""Run the smart-parking node through an arrive/depart day and narrate it.

Loads the corpus model, simulates the bundled duration scenario, and prints
the occupancy timeline plus a few trace statistics. A quick way to see the
whole pipeline (parse, validate, instantiate, simulate, replay) in one go.

    python scripts/parking_demo.py
    python scripts/parking_demo.py --scenario corpus/scenario_physical.scn --threshold-ms 5
"""

from __future__ import annotations

import argparse
import collections
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from ciot import (
    load_file,
    load_scenario_file,
    occupancy_timeline,
    simulate,
    with_property_initial,
)
from ciot.sim import THRESHOLD_PROPERTY

REPO = pathlib.Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--model", default=str(REPO / "corpus" / "parking_node.ciot"))
    ap.add_argument(
        "--scenario", default=str(REPO / "corpus" / "scenario_arrive_depart.scn")
    )
    ap.add_argument(
        "--threshold-ms",
        type=float,
        default=None,
        help="override the node's vacancy threshold (milliseconds of echo)",
    )
    args = ap.parse_args(argv)

    model = load_file(args.model)
    if args.threshold_ms is not None:
        model = with_property_initial(model, THRESHOLD_PROPERTY, args.threshold_ms)
    scenario = load_scenario_file(args.scenario)

    result = simulate(model, scenario)

    print(f"model:    {args.model}")
    print(f"scenario: {args.scenario} (mode={scenario.mode}, horizon={scenario.horizon_ms} ms)")
    print()
    print("occupancy timeline:")
    for t_ms, status in occupancy_timeline(result):
        print(f"  t={t_ms} status={status}")

    records = result.runtime.trace
    by_kind = collections.Counter(r.kind for r in records)
    print()
    print(
        f"trace: {len(records)} records, {by_kind['event_delivered']} deliveries "
        f"({result.runtime.step_count} steps incl. empty probes)"
    )
    for kind in sorted(by_kind):
        print(f"  {kind}: {by_kind[kind]}")

    print()
    print("final states:")
    for path in result.runtime.order:
        inst = result.runtime.instances[path]
        print(f"  {path}: {inst.state}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

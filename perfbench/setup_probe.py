"""Time one fresh set-up of alertmpc: import, config parse, model load.

Run in a new interpreter so the import is cold in-process (bytecode
caches on disk are warm, as they are for a user).  Prints one JSON line
with the three parts in seconds.

    python3 perfbench/setup_probe.py [--scenario CFG | --control CFG] [--model JSON]
"""

import argparse
import json
import time

parser = argparse.ArgumentParser()
parser.add_argument("--scenario")
parser.add_argument("--control")
parser.add_argument("--model")
args = parser.parse_args()

t0 = time.perf_counter()
import alertmpc.cli as cli  # noqa: E402

t1 = time.perf_counter()
if args.scenario:
    cli.parse_scenario_config(args.scenario)
if args.control:
    cli.parse_control_config(args.control)
t2 = time.perf_counter()
if args.model:
    cli.read_model_set(args.model)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1, "model_s": t3 - t2}))

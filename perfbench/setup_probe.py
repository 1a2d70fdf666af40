"""Set-up probe, run in a fresh interpreter by run.py:

    python3 setup_probe.py SRC_DIR PARSER=PATH ...

Imports ``batchopt.cli`` from SRC_DIR and parses each JSON document with the
named parser as the CLI module exposes it (``parse_model``,
``parse_policies``, ``parse_sim_config``, ``parse_optimizer_config``).
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

from batchopt import cli  # noqa: E402

for spec in sys.argv[2:]:
    parser, _, path = spec.partition("=")
    with open(path, encoding="utf-8") as fh:
        getattr(cli, parser)(json.load(fh))

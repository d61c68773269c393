"""Set-up cost as every ``mgt-stab`` invocation pays it.

Run in a fresh interpreter:
``python3 perfbench/setup_probe.py SRC_DIR CONFIG_JSON``.  Prints the
seconds from before ``import mgtstab`` to a constructed
``Scenario(load_config(config))``.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])
config = json.loads(sys.argv[2])

t0 = time.perf_counter()
import mgtstab  # noqa: E402

mgtstab.Scenario(mgtstab.load_config(config))
print(repr(time.perf_counter() - t0))

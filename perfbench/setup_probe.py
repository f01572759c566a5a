"""Time one cold set-up of levystop in a fresh interpreter.

    python3 setup_probe.py '<problem json>'

Imports the package with every submodule a caller may use (engine, mc,
cli), then computes one threshold and one 256-point value curve for the
given problem.  Prints one JSON line with the elapsed seconds and the two
results, so the caller can check them against its own.
"""

import json
import sys
import time

doc = json.loads(sys.argv[1])
t0 = time.perf_counter()
import numpy as np  # noqa: E402

import levystop  # noqa: E402
import levystop.cli  # noqa: E402,F401
import levystop.engine  # noqa: E402,F401
import levystop.mc  # noqa: E402,F401

spec = levystop.spec_from_dict(doc)
result = levystop.threshold(spec)
grid = np.linspace(0.5 * result.b_c, 10.0 * result.b_c, 256)
w = levystop.value_function(spec, result)(grid)
elapsed = time.perf_counter() - t0
print(json.dumps({"setup_s": elapsed, "b_c": result.b_c,
                  "w_max": float(w[-1])}))

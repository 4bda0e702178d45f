"""Set-up probe: a fresh interpreter's `import vidcost` and first spec loads.

Run with vidcost's ``src`` on PYTHONPATH. Prints one JSON object: the import
time, the number of modules the import loaded, and the time of the first
``load_model_spec()``, ``load_hardware()`` and ``load_hardware_db()`` calls.
"""

import json
import sys
from time import perf_counter


def main() -> None:
    modules = len(sys.modules)
    t0 = perf_counter()
    import vidcost

    t1 = perf_counter()
    vidcost.load_model_spec()
    t2 = perf_counter()
    vidcost.load_hardware()
    t3 = perf_counter()
    vidcost.load_hardware_db()
    t4 = perf_counter()
    print(json.dumps({
        "import_s": t1 - t0,
        "modules": len(sys.modules) - modules,
        "load_model_spec_s": t2 - t1,
        "load_hardware_s": t3 - t2,
        "load_hardware_db_s": t4 - t3,
    }))


if __name__ == "__main__":
    main()

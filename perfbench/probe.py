"""Set-up probe: a fresh interpreter gets one workload ready, then says so.

    python3 perfbench/probe.py WORKLOAD WORKDIR

Imports cost is paid once per process, so set-up can only be sampled in new
processes.  The parent times this process from its start to the JSON line
it prints; the line breaks that time down.
"""

import json
import sys
import time
from pathlib import Path


def main(workload, work):
    t0 = time.perf_counter()
    if workload == "detect":
        from xmlad import adifa, extract, flatten, model_io, schema  # noqa: F401
        t1 = time.perf_counter()
        schema.SchemaVector.load(Path(work) / "schema.xadschema")
        flatten.TfIdfDictionary.load(Path(work) / "dict.xaddict")
        t2 = time.perf_counter()
        model_io.load_model(Path(work) / "model.xadmodel")
        t3 = time.perf_counter()
        out = {"import_s": t1 - t0, "schema_dict_load_s": t2 - t1,
               "model_load_s": t3 - t2}
    else:
        from xmlad import cli  # noqa: F401
        out = {"import_s": time.perf_counter() - t0}
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])

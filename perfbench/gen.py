"""Input generation, in its own process before any measured one.

    python3 gen.py SYNTH_JSON DATA_DIR ENV_JSON

Writes the dataset directory through ``probeforge synth`` and records the
software environment (Python, numpy, BLAS, threadpoolctl) in ENV_JSON.
Importing probeforge here also compiles its bytecode, so the measured
processes do not pay for that.
"""

import json
import sys

from probeforge import cli


def environment() -> dict:
    import importlib.util
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
    }


def main(synth_json: str, data_dir: str, env_json: str) -> int:
    code = cli.main(["synth", "--spec", synth_json, "--out-dir", data_dir])
    with open(env_json, "w", encoding="utf-8") as fh:
        json.dump(environment(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

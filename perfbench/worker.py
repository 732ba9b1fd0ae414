"""One benchmark operation in a fresh process.

    worker.py setup <result.json> <checkpoint> <model.cfg>
        Time `import gliomaforge`, building GliomaForgeNet of the config in
        <model.cfg> and loading the checkpoint.
    worker.py cli <result.json> <trace 0|1> <gliomaforge argv...>
        Run one `gliomaforge` subcommand in process through cli.main, with
        the per-layer tracer installed when <trace> is 1.

The result file records the exit code and this process's peak RSS; a
traced call adds its spans. Only the standard library is imported before
the timed set-up, so set-up time includes the numpy/scipy imports.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def setup(result_path, ckpt, cfg):
    start = time.perf_counter()
    from gliomaforge import config as cfgmod
    from gliomaforge.model import GliomaForgeNet

    model = GliomaForgeNet(config=cfgmod.model_config_from_text(Path(cfg).read_text()))
    model.load(ckpt)
    seconds = time.perf_counter() - start
    _write(result_path, {"setup_s": seconds, "parameters": model.parameter_count()})


def run_cli(result_path, trace, argv):
    from gliomaforge import cli

    recorder = None
    if trace:
        sys.path.insert(0, str(ROOT / "perfbench"))
        import tracer

        recorder = tracer.install()
        index = recorder.open("cli." + argv[0])
    try:
        code = cli.main(argv)
    finally:
        if recorder is not None:
            recorder.close(index)
    payload = {
        "rc": code,
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        payload["trace"] = recorder.dump()
    _write(result_path, payload)
    return code


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    mode, result_path, *rest = argv
    if mode == "setup":
        setup(result_path, *rest)
        return 0
    if mode == "cli":
        return run_cli(result_path, rest[0] == "1", rest[1:])
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

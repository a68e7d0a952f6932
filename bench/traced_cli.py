"""Run one ``diracmr`` command with the layer tracer installed.

    python3 bench/traced_cli.py SPANS.npz COMMAND [ARGS...]

The spans are written to SPANS.npz when the command ends; the exit code is
the command's own.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import diracmr.cli  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    spans, args = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    command = tracer.span(f"cli.{args[0]}", diracmr.cli.main.main)
    try:
        command(args=args, prog_name="diracmr", standalone_mode=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main())

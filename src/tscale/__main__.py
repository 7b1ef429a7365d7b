"""Command-line entry point: python -m tscale ARGS runs the tscale CLI."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

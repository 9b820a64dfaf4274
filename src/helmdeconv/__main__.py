"""Run the CLI as ``python -m helmdeconv``."""

from .cli import main

main()

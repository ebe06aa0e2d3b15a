"""``python -m volumize``: the same entry point as the ``volumize`` script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

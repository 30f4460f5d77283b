"""``python -m oribij``: the command-line interface, as the ``oribij`` script."""
from .cli import console_main

if __name__ == "__main__":
    console_main()

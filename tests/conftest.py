"""Lets the tests run from a checkout: the `pythonpath` setting in pyproject.toml
puts `src` on this interpreter's path, and this puts it on the path of every
interpreter the tests start."""

import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join([_SRC, *filter(None, [os.environ.get("PYTHONPATH")])])

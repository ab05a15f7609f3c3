"""Build script: compiles the enumeration kernel extension.

The package works without the extension (pure-Python fallback selected at
import time), so the extension is optional and a failed compile only costs
speed.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("neronjac._speedups", ["src/neronjac/_speedups.c"], optional=True)
    ]
)

"""Knowledge-graph collaborative filtering with content-embedding fusion.

Submodules are imported by name (`from kgrec import model`); this file
imports none of them, so `import kgrec` loads no numpy and the CLI can cap
numeric-library thread counts before anything touches it.
"""

__version__ = "0.1.0"

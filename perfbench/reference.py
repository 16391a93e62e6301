"""Fixed reference work that times the machine, not the package.

Usage: python3 perfbench/reference.py

Generates a corpus in memory and round-trips it through JSON: pure-Python
string, list and dict work in a fresh interpreter, like the CLI's own. It
never imports predstmt, so its work stays the same whatever the package does.
"""

import json

import gen_corpus

json.loads(json.dumps(gen_corpus.generate(0, 1.5)))

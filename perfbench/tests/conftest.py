import sys
from pathlib import Path

# The benchmark's modules sit beside run.py, which is not a package.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

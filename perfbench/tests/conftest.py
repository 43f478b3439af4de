import os
import sys

# The benchmark's modules are flat files beside run.py.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import sys
from pathlib import Path

from hypothesis import settings

# ``pytester`` runs a pytest session on written test files
pytest_plugins = ["pytester"]

# the oracles beside the tests, and the package from the source tree
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# derandomized property tests draw the same examples on every run, and no
# example database carries failures from one run into the next
settings.register_profile("jmf", derandomize=True, database=None,
                          deadline=None, max_examples=50)
settings.load_profile("jmf")

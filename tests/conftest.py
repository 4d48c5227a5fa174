import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# derandomized property tests draw the same examples on every run, and no
# example database carries failures from one run into the next
settings.register_profile("jmf", derandomize=True, database=None,
                          deadline=None, max_examples=50)
settings.load_profile("jmf")

"""Set-up shared by every test module.

Pin BLAS to one thread before numpy is first imported, so that timings and
float results do not depend on how many cores the host has or on another
numpy process sharing them. A value already set in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

"""Name the numeric profile that the pinned digests belong to.

The goldens pin bits that depend on three things: numpy's release, the
OpenBLAS core that numpy's bundled library picked for this CPU when it
loaded, and the SIMD features numpy dispatches to. `running_profile()`
reads the three back from the running process.

    python tools/profiles.py

prints the profile as one line, for example

    profile: numpy 2.4.6 | openblas SkylakeX | simd baseline X86_V2 | simd found X86_V3 X86_V4 AVX512_ICL AVX512_SPR

`OPENBLAS_CORETYPE` and `NPY_DISABLE_CPU_FEATURES` in the environment
change what a new process picks, and so what it reads back here.
"""

from __future__ import annotations

import ctypes
import sys

import numpy as np
from numpy._core import _multiarray_umath


def openblas_core() -> str:
    """The OpenBLAS core numpy's bundled library runs, or "unknown" when
    the library or its corename query cannot be found (a numpy built on
    another BLAS). numpy's extension module links the library, so a
    lookup through it searches the library too."""
    try:
        # the query under the prefix and suffix of numpy's wheels' OpenBLAS
        query = ctypes.CDLL(
            _multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return "unknown"
    query.argtypes, query.restype = [], ctypes.c_char_p
    return query().decode()


def running_profile() -> dict:
    """numpy's version, the OpenBLAS core and numpy's SIMD features: the
    `baseline` it was built for and the dispatch targets `found` on this
    CPU."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    return {"numpy": np.__version__, "openblas": openblas_core(),
            "simd_baseline": list(simd["baseline"]),
            "simd_found": list(simd["found"])}


def profile_line() -> str:
    """The running profile as one line."""
    p = running_profile()
    return (f"profile: numpy {p['numpy']} | openblas {p['openblas']} | "
            f"simd baseline {' '.join(p['simd_baseline'])} | "
            f"simd found {' '.join(p['simd_found'])}")


def main() -> int:
    print(profile_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())

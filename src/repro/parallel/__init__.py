"""Engine-free array kernels.

:mod:`repro.parallel.slabs` holds the numpy hot loops every vectorized path
runs on, written against plain arrays and scalars only.
"""

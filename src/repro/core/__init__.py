"""Core TER-iDS algorithmic components (paper Sections 2-4).

Pure-python and numpy kernels, run on the driver and testable against the
paper's worked examples.
"""

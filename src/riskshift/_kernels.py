"""Name of the array backend that evaluates the Monte Carlo metrics."""


def kernel_backend():
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"

"""Process-wide guard for the test suite.

The address space of the test process, and of the CLI processes it starts,
is capped at 4 GiB, so a test that builds a factorial-sized object past a
size guard fails with MemoryError within seconds instead of driving the
machine into swap.
"""

import resource

ADDRESS_SPACE_LIMIT = 4 * 2**30


def pytest_configure(config):
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > ADDRESS_SPACE_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, hard))

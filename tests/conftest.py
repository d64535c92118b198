"""Shared test configuration.

Property tests run under a ``hypothesis`` profile that is derandomized
(the examples are a fixed function of each test), keeps no example
database and draws a bounded number of examples, so the suite is
deterministic and quick.
"""

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # the property tests skip themselves then
    pass
else:
    settings.register_profile(
        "colorlie",
        derandomize=True,
        database=None,
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("colorlie")

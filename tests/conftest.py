"""Shared pytest plumbing: collect acceptance-criterion verdict lines and
echo them in the terminal summary, where capture cannot swallow them; and
the default hypothesis profile."""

from hypothesis import settings

# Property tests replay the same examples on every run and have no per-example
# deadline, so a slow or loaded host cannot make them flaky.
settings.register_profile("transversal", derandomize=True, deadline=None)
settings.load_profile("transversal")

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
